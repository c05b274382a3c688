import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmred import permgroup

from cmred.cm_engine import sample_subsets
from cmred.errors import SubsetCapExceeded
from cmred.galois_model import UnitaryGaloisModel
from cmred.group_zoo import build, zoo_order
from cmred.permgroup import TABLE_CAP, check_subset_cap, close_generators
from galois_oracle import act
from perm_oracle import mul, zoo_specs

S3_GENS = [(1, 0, 2), (1, 2, 0)]


def gamma_mul(G, x, y):
    """Product in Gamma = G x Z/2 of (element index, bit) pairs."""
    return (mul(G, x[0], y[0]), x[1] ^ y[1])


def s3_model():
    return UnitaryGaloisModel(close_generators(3, S3_GENS), [(0, 2, 1)])


def z5_model():
    return UnitaryGaloisModel(close_generators(5, [(1, 2, 3, 4, 0)]), [])


def all_subsets(n):
    return [s for eps in range(n + 1)
            for s in itertools.combinations(range(n), eps)]


def signature(s, n):
    return (n - len(s), len(s))


def test_build_s3():
    m = s3_model()
    assert (m.n, m.h, m.gamma_order) == (3, 2, 12)
    assert m.cosets.reps[0] == 0


def test_build_z5_trivial_subgroup():
    m = z5_model()
    assert (m.n, m.h, m.gamma_order) == (5, 1, 10)
    assert m.n * m.h == m.group.order


def test_signature():
    # the identity keeps a CM type and its signature; rho complements it
    z4 = UnitaryGaloisModel(close_generators(4, [(1, 2, 3, 0)]), [])
    assert act(z4, [(0, 0), (0, 1)], [(), ()]) == [(), (0, 1, 2, 3)]
    moved = act(z5_model(), [(0, 0), (0, 1)], [(0, 1), (0, 1)])
    assert [signature(s, 5) for s in moved] == [(3, 2), (2, 3)]
    assert act(s3_model(), [(0, 1)], [(0, 1, 2)]) == [()]


def test_act_identity_and_rho():
    m = s3_model()
    assert act(m, [(0, 0), (0, 1)], [(1,), (1,)]) == [(1,), (0, 2)]
    assert act(m, [], []) == []


def test_act_is_group_action():
    # exhaustive over Gamma x Gamma x all subsets for the small model, as
    # three blocks: (x y) phi against x (y phi)
    m = s3_model()
    gammas = [(g, b) for g in range(m.group.order) for b in (0, 1)]
    triples = list(itertools.product(gammas, gammas, all_subsets(3)))
    xs, ys, phis = (list(t) for t in zip(*triples))
    assert act(m, [gamma_mul(m.group, x, y) for x, y in zip(xs, ys)], phis) \
        == act(m, xs, act(m, ys, phis))
    rng = random.Random(19)
    m = z5_model()
    xs, ys, phis = [], [], []
    for _ in range(60):
        xs.append((rng.randrange(m.group.order), rng.randrange(2)))
        ys.append((rng.randrange(m.group.order), rng.randrange(2)))
        eps = rng.randrange(m.n + 1)
        phis.append(tuple(sorted(rng.sample(range(m.n), eps))))
    assert act(m, [gamma_mul(m.group, x, y) for x, y in zip(xs, ys)], phis) \
        == act(m, xs, act(m, ys, phis))


def test_act_matches_the_coset_of_each_product():
    # g phi = {coset of g o rep_i : i in phi}, one product at a time
    for m in (s3_model(), z5_model()):
        G, C = m.group, m.cosets
        triples = [((g, b), s) for g in range(G.order) for b in (0, 1)
                   for s in all_subsets(m.n)]
        moved = act(m, [x for x, _ in triples], [s for _, s in triples])
        for ((g, bit), s), got in zip(triples, moved):
            image = {int(C.coset_of[mul(G, g, C.reps[i])]) for i in s}
            if bit:
                image = set(range(m.n)) - image
            assert got == tuple(sorted(image))


def test_act_bit0_preserves_eps():
    m = s3_model()
    pairs = [((g, 0), s) for g in range(m.group.order)
             for s in itertools.combinations(range(3), 2)]
    moved = act(m, [x for x, _ in pairs], [s for _, s in pairs])
    assert [len(s) for s in moved] == [2] * len(pairs)


def test_rho_reverses_signature():
    for m in (s3_model(), z5_model()):
        phis = all_subsets(m.n)
        moved = act(m, [(0, 1)] * len(phis), phis)
        for s, t in zip(phis, moved):
            assert signature(t, m.n) == signature(s, m.n)[::-1]


def test_enumerate_counts_and_order():
    # a stratum of CM types is enumerated in lexicographic order when it is
    # small; check_subset_cap guards every stratum a command lists
    types, exhaustive = sample_subsets(4, 2, random.Random(0))
    assert exhaustive and len(types) == 6 and types == sorted(types)
    assert sample_subsets(3, 0, random.Random(0)) == ([()], True)
    check_subset_cap(28, 8)
    with pytest.raises(SubsetCapExceeded):
        check_subset_cap(28, 9)
    with pytest.raises(ValueError):
        check_subset_cap(4, 9)


def class_of_products(m):
    """The test side's class-of-product table: the class of every product
    read through the multiplication table, in the dtype ``product_class``
    promises."""
    class_of = m.classes.class_of.astype(
        np.min_scalar_type(m.classes.count - 1))
    return class_of[m.group.mult_table]


def assert_same_table(got, expected, what):
    assert got.dtype == expected.dtype, what
    assert got.shape == expected.shape and got.tobytes() == \
        expected.tobytes(), what


def test_product_class_is_the_class_of_each_product():
    specs = [spec for spec in zoo_specs() if zoo_order(spec) <= TABLE_CAP]
    assert len(specs) == 162 and "alt:7" in specs and "sym:7" not in specs
    for spec in specs:
        m = UnitaryGaloisModel(*build(spec))
        table = m.product_class
        assert table is m.product_class  # built once
        assert table.dtype == np.min_scalar_type(m.classes.count - 1)
        assert_same_table(table, class_of_products(m), spec)


@st.composite
def small_group(draw):
    """(degree, generators) of a random group of degree at most 6."""
    degree = draw(st.integers(min_value=1, max_value=6))
    perm = st.permutations(list(range(degree)))
    return degree, draw(st.lists(perm, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(small_group())
@example((6, [(1, 2, 3, 4, 5, 0)]))  # one generator: cyclic of order 6
@example((5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)]))  # abelian, order 6
@example((6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
              (0, 1, 2, 3, 5, 4)]))  # abelian on three generators
@example((1, [(0,)]))  # the trivial group
def test_product_class_of_random_groups(group):
    degree, gens = group
    m = UnitaryGaloisModel(close_generators(degree, gens), [])
    assert_same_table(m.product_class, class_of_products(m), group)


@pytest.mark.parametrize("spec", ["cyclic:6", "sym:4", "dihedral:12",
                                  "psl3:2", "sp4f2:-"])
def test_product_class_across_block_edges(spec, monkeypatch):
    # blocks of one child (TAKE_ENTRIES of 1 and 3 index entries, which also
    # cut the generator maps' gathers into chunks) and of three children
    m = UnitaryGaloisModel(*build(spec))
    expected = class_of_products(m)
    for entries in (1, 3, 3 * m.group.order):
        monkeypatch.setattr(permgroup, "TAKE_ENTRIES", entries)
        step = max(1, entries // m.group.order)
        left = m.group.generator_maps(right=False)
        sizes = [len(child) for _, _, child in m.group.span(left)]
        assert max(sizes) <= step and sum(sizes) == m.group.order - 1
        monkeypatch.delitem(vars(m), "product_class", raising=False)
        assert_same_table(m.product_class, expected, (spec, entries))


@pytest.mark.parametrize("spec", ["alt:7", "pgl2:13"])
def test_product_class_build_stays_near_its_table(spec):
    # the uint8 table is |G|^2 bytes; composing the class partition with
    # the uint16 multiplication table peaked at 2.9 |G|^2
    m = UnitaryGaloisModel(*build(spec))
    order = m.group.order
    tracemalloc.start()
    try:
        table = m.product_class
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint8 and table.shape == (order, order)
    assert peak <= 1.5 * order ** 2, peak / order ** 2
    assert "mult_table" not in vars(m.group)


def test_product_class_is_none_past_the_table_cap():
    m = UnitaryGaloisModel(*build("psu3:3"))
    assert m.group.order > TABLE_CAP and m.product_class is None
