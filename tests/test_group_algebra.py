import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from class_oracle import class_values, evaluate
from cmred.group_algebra import CHUNK_ROWS, class_project, convolve, reflex
from cmred.permgroup import close_generators, conjugacy_classes
from perm_oracle import index_of, inv, mul

S3_GENS = [(1, 0, 2), (1, 2, 0)]


def s3():
    return close_generators(3, S3_GENS)


def z4():
    return close_generators(4, [(1, 2, 3, 0)])


def s4():
    return close_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def s5():
    return close_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def oracle_convolve(G, a, b):
    """Definition-level loop over Gamma x Gamma through G.mul, independent of
    the kernel's table gathers and chunking."""
    out = np.zeros((2, G.order), dtype=np.int64)
    for by in (0, 1):
        for y in range(G.order):
            for bx in (0, 1):
                for x in range(G.order):
                    # b evaluated at y^-1 x, whose bit is by ^ bx
                    out[bx, x] += a[by, y] * b[by ^ bx, mul(G, inv(G, y), x)]
    return out


def delta(G, x, value=1):
    out = np.zeros((2, G.order), dtype=np.int64)
    out[x[1], x[0]] = value
    return out


def random_element(G, rng, size=4):
    out = np.zeros((2, G.order), dtype=np.int64)
    for _ in range(size):
        out[rng.randrange(2), rng.randrange(G.order)] = rng.randint(-6, 6)
    return out


def trace_of(G):
    out = np.zeros((2, G.order), dtype=np.int64)
    out[0] = 1
    return out


def test_delta_is_identity():
    G = s3()
    rng = random.Random(3)
    e = delta(G, (0, 0))
    for _ in range(10):
        f = random_element(G, rng)
        assert np.array_equal(convolve(e, f, G), f)
        assert np.array_equal(convolve(f, e, G), f)


def test_trace_squared():
    G = s3()
    tr = trace_of(G)
    assert np.array_equal(convolve(tr, tr, G), G.order * tr)


def test_convolution_matches_oracle():
    rng = random.Random(17)
    for G in (s3(), z4(), s4(), s5()):
        for size in (4, 4 * G.order):
            a = random_element(G, rng, size)
            b = random_element(G, rng, size)
            assert np.array_equal(convolve(a, b, G), oracle_convolve(G, a, b))
    # the last, dense S5 input spans more than one chunk of table rows
    assert np.count_nonzero(a[0]) > CHUNK_ROWS


def test_convolution_associative():
    rng = random.Random(7)
    for G in (s3(), z4()):
        for _ in range(8):
            a, b, c = (random_element(G, rng) for _ in range(3))
            assert np.array_equal(convolve(convolve(a, b, G), c, G),
                                  convolve(a, convolve(b, c, G), G))


def test_convolution_bilinear():
    rng = random.Random(41)
    G = s3()
    a, b, c = (random_element(G, rng) for _ in range(3))
    lam = -3
    assert np.array_equal(convolve(lam * a + b, c, G),
                          lam * convolve(a, c, G) + convolve(b, c, G))
    assert np.array_equal(convolve(c, lam * a + b, G),
                          lam * convolve(c, a, G) + convolve(c, b, G))


def test_reflex_involution():
    rng = random.Random(9)
    for G in (s3(), z4()):
        for _ in range(10):
            a = random_element(G, rng)
            assert np.array_equal(reflex(reflex(a, G), G), a)


def test_reflex_of_delta_keeps_bit():
    G = s3()
    g = 3
    assert np.array_equal(reflex(delta(G, (g, 1)), G), delta(G, (inv(G, g), 1)))


def test_reflex_antihomomorphism():
    rng = random.Random(13)
    G = s3()
    for _ in range(8):
        a = random_element(G, rng)
        b = random_element(G, rng)
        assert np.array_equal(reflex(convolve(a, b, G), G),
                              convolve(reflex(b, G), reflex(a, G), G))


def test_gamma_ops():
    # deltas multiply as Gamma elements: (g, b)(g', b') = (g g', b ^ b')
    G = s3()
    rho = (0, 1)
    assert np.array_equal(convolve(delta(G, rho), delta(G, rho), G),
                          delta(G, (0, 0)))
    x = (2, 1)
    assert np.array_equal(convolve(delta(G, x), reflex(delta(G, x), G), G),
                          delta(G, (0, 0)))
    for g in range(G.order):
        for b in (0, 1):
            for h in range(G.order):
                got = convolve(delta(G, (g, b)), delta(G, (h, 1)), G)
                assert np.array_equal(got, delta(G, (mul(G, g, h), b ^ 1)))
        # rho central
        assert np.array_equal(convolve(delta(G, rho), delta(G, (g, 0)), G),
                              convolve(delta(G, (g, 0)), delta(G, rho), G))


def test_class_project_idempotent_linear():
    rng = random.Random(29)
    G = s3()
    P = conjugacy_classes(G)
    common = math.lcm(*P.sizes)
    for _ in range(10):
        a = random_element(G, rng)
        b = random_element(G, rng)
        fa = class_project(a, P)
        fb = class_project(b, P)
        lam = -5
        # class sums, over the class sizes, are linear
        assert fa.shape == (2, P.count)
        assert np.array_equal(class_project(lam * a + b, P), lam * fa + fb)
        # idempotent: re-project the class function seen as an algebra
        # element (scaled by a common multiple of the class sizes to stay
        # integral)
        values = class_values(fa, P.sizes, P)
        back = np.array([[int(values[P.class_of[g]][bit] * common)
                          for g in range(G.order)] for bit in (0, 1)],
                        dtype=np.int64)
        assert np.array_equal(class_project(back, P), common * fa)


def test_class_project_preserves_mass():
    rng = random.Random(31)
    G = s3()
    P = conjugacy_classes(G)
    for _ in range(10):
        a = random_element(G, rng)
        values = class_values(class_project(a, P), P.sizes, P)
        total = sum(values[c][b] * P.sizes[c] for c in range(P.count) for b in (0, 1))
        assert total == int(a.sum())


def test_class_project_delta_values():
    # oracle: average the delta over all Gamma conjugators directly
    G = s3()
    P = conjugacy_classes(G)
    transposition = index_of(G, (0, 2, 1))
    d = delta(G, (transposition, 0))
    f = class_project(d, P)
    for g in range(G.order):
        acc = Fraction(0)
        for x in range(G.order):
            conj = mul(G, mul(G, x, g), inv(G, x))
            acc += int(d[0, conj])
        assert evaluate(f, P.sizes, P, (g, 0)) == acc / G.order
    # value on the transposition class is 1/|class| = 1/3
    assert evaluate(f, P.sizes, P, (transposition, 0)) == Fraction(1, 3)
    # the identity-delta projects to itself
    f0 = class_project(delta(G, (0, 0)), P)
    assert evaluate(f0, P.sizes, P, (0, 0)) == 1


def test_evaluate_and_equality():
    G = s3()
    P = conjugacy_classes(G)
    a = delta(G, (1, 0), 3)
    f = class_project(a, P)
    zero = np.zeros_like(a)
    assert np.array_equal(convolve(a, zero, G), zero)
    assert np.array_equal(class_project(a + zero, P), f)
    assert not np.array_equal(class_project(2 * a, P), f)
    assert np.array_equal(class_project(2 * a, P), 2 * f)
    values = class_values(f, P.sizes, P)
    for g in range(G.order):
        assert evaluate(f, P.sizes, P, (g, 1)) == 0
        assert evaluate(f, P.sizes, P, (g, 0)) == values[P.class_of[g]][0]
    # the value of delta(1, 0) times 3 on its class c is 3 / |c|
    c = P.class_of[1]
    assert values[c] == [Fraction(3, P.sizes[c]), 0]


@st.composite
def group_and_pair(draw):
    degree = draw(st.integers(min_value=1, max_value=5))
    perm = st.permutations(list(range(degree)))
    gens = draw(st.lists(perm, min_size=1, max_size=2))
    G = close_generators(degree, gens)
    coeff = st.integers(min_value=-4, max_value=4)
    row = st.lists(coeff, min_size=G.order, max_size=G.order)
    a = np.array([draw(row), draw(row)], dtype=np.int64)
    b = np.array([draw(row), draw(row)], dtype=np.int64)
    return G, a, b


@settings(max_examples=25, deadline=None)
@given(group_and_pair())
def test_kernel_matches_oracle_on_random_groups(case):
    G, a, b = case
    assert np.array_equal(convolve(a, b, G), oracle_convolve(G, a, b))
    assert np.array_equal(reflex(convolve(a, b, G), G),
                          convolve(reflex(b, G), reflex(a, G), G))
