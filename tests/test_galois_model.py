import itertools
import random

import pytest

from cmred.errors import SubsetCapExceeded
from cmred.galois_model import (
    CMType,
    UnitaryGaloisModel,
    act,
    enumerate_cm_types,
    signature,
)
from cmred.permgroup import close_generators

S3_GENS = [(1, 0, 2), (1, 2, 0)]


def gamma_mul(G, x, y):
    """Product in Gamma = G x Z/2 of (element index, bit) pairs."""
    return (G.mul(x[0], y[0]), x[1] ^ y[1])


def s3_model():
    return UnitaryGaloisModel(close_generators(3, S3_GENS), [(0, 2, 1)])


def z5_model():
    return UnitaryGaloisModel(close_generators(5, [(1, 2, 3, 4, 0)]), [])


def test_build_s3():
    m = s3_model()
    assert (m.n, m.h, m.gamma_order) == (3, 2, 12)
    assert m.cosets.reps[0] == 0


def test_build_z5_trivial_subgroup():
    m = z5_model()
    assert (m.n, m.h, m.gamma_order) == (5, 1, 10)
    assert m.n * m.h == m.group.order


def test_signature():
    m = z5_model()
    z4 = UnitaryGaloisModel(close_generators(4, [(1, 2, 3, 0)]), [])
    assert signature(CMType((), 4), z4) == (4, 0)
    assert signature(CMType((0, 1), 5), m) == (3, 2)
    m3 = s3_model()
    assert signature(CMType((0, 1, 2), 3), m3) == (0, 3)


def test_act_identity_and_rho():
    m = s3_model()
    phi = CMType((1,), 3)
    assert act((0, 0), phi, m) == phi
    flipped = act((0, 1), phi, m)
    assert flipped == CMType((0, 2), 3)
    assert signature(flipped, m) == (1, 2)


def test_act_is_group_action():
    # exhaustive over Gamma x Gamma x all subsets for the small model
    m = s3_model()
    gammas = [(g, b) for g in range(m.group.order) for b in (0, 1)]
    subsets = [CMType(s, 3) for eps in range(4)
               for s in itertools.combinations(range(3), eps)]
    for x in gammas:
        for y in gammas:
            for phi in subsets:
                assert act(gamma_mul(m.group, x, y), phi, m) == \
                    act(x, act(y, phi, m), m)
    rng = random.Random(19)
    m = z5_model()
    for _ in range(60):
        x = (rng.randrange(m.group.order), rng.randrange(2))
        y = (rng.randrange(m.group.order), rng.randrange(2))
        eps = rng.randrange(m.n + 1)
        phi = CMType(tuple(rng.sample(range(m.n), eps)), m.n)
        assert act(gamma_mul(m.group, x, y), phi, m) == act(x, act(y, phi, m), m)


def test_act_bit0_preserves_eps():
    m = s3_model()
    for g in range(m.group.order):
        for phi in enumerate_cm_types(m, 2):
            assert act((g, 0), phi, m).eps == phi.eps


def test_rho_reverses_signature():
    for m in (s3_model(), z5_model()):
        for eps in range(m.n + 1):
            for phi in enumerate_cm_types(m, eps):
                assert signature(act((0, 1), phi, m), m) == signature(phi, m)[::-1]


def test_enumerate_counts_and_order():
    m4 = UnitaryGaloisModel(close_generators(4, [(1, 2, 3, 0)]), [])
    types = enumerate_cm_types(m4, 2)
    assert len(types) == 6
    assert [t.indices for t in types] == sorted(t.indices for t in types)
    assert len(enumerate_cm_types(s3_model(), 0)) == 1
    with pytest.raises(SubsetCapExceeded):
        enumerate_cm_types(m4, 2, cap=3)
    with pytest.raises(ValueError):
        enumerate_cm_types(m4, 9)
