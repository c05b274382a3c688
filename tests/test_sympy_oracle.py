"""Order, stabilizer chain, class count and 2-transitivity against
``sympy.combinatorics``,
an implementation that shares nothing with cmred.  Skipped when sympy is not
installed; it is not a runtime dependency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy_comb = pytest.importorskip("sympy.combinatorics")

from cmred.certifier import certify, orbit_table
from cmred.galois_model import UnitaryGaloisModel
from cmred.group_zoo import build
from cmred.permgroup import close_generators, is_k_transitive
from perm_oracle import perm

# zoo groups of order at most 720: every family, and a sample of the cyclic
# and dihedral sizes
SMALL_ZOO = (
    [f"sym:{n}" for n in range(1, 7)] + [f"alt:{n}" for n in range(1, 7)]
    + [f"cyclic:{n}" for n in (1, 2, 3, 6, 12, 64)]
    + [f"dihedral:{n}" for n in (3, 4, 5, 12, 64)]
    + [f"psl2:{q}" for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [f"pgl2:{q}" for q in (2, 3, 4, 5, 7, 8, 9)]
    + ["psl3:2", "sp4f2:+", "sp4f2:-", "psu3:2", "pgu3:2"]
)


def sympy_group(degree, gens):
    perms = [sympy_comb.Permutation(list(g)) for g in gens]
    return sympy_comb.PermutationGroup(
        perms or [sympy_comb.Permutation(list(range(degree)))])


def sympy_basic_orbits(S, degree):
    """(i, sorted orbit) for every point i whose orbit under the pointwise
    stabilizer of 0..i-1 has more than one point."""
    orbits = []
    for i in range(degree):
        orbit = S.orbit(i)
        if len(orbit) > 1:
            orbits.append((i, sorted(orbit)))
        S = S.stabilizer(i)
    return orbits


def chain_matches_sympy(chain, S):
    return (chain.order == S.order() and
            [(i, sorted(o.tolist())) for i, o in chain.orbits]
            == sympy_basic_orbits(S, chain.degree))


def sympy_pair_orbits(S, point=0):
    """Orbits of the point stabilizer on the rest of the point's orbit: the
    orbit count on ordered pairs of distinct points of that orbit."""
    orbit = S.orbit(point)
    return sum(1 for o in S.stabilizer(point).orbits()
               if point not in o and o <= orbit)


@pytest.mark.parametrize("spec", SMALL_ZOO)
def test_zoo_matches_sympy(spec):
    G, H_gens = build(spec)
    assert G.order <= 720
    S = sympy_group(G.degree, [perm(G, g) for g in G.generators])
    assert G.order == S.order()
    assert chain_matches_sympy(G.chain, S)
    model = UnitaryGaloisModel(G, H_gens)
    assert model.classes.count == len(S.conjugacy_classes())
    # every zoo subgroup is the stabilizer of point 0 (trivial for the regular
    # cyclic action), so the coset action is the action on the orbit of 0
    assert model.n == len(S.orbit(0))
    if model.n >= 2:
        cert = certify(model, orbit_table(model, 2))
        pairs = sympy_pair_orbits(S)
        assert cert.pair_orbit_count == pairs
        assert cert.two_transitive == (pairs == 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)))
def test_random_groups_match_sympy(gens):
    degree = len(gens[0])
    G = close_generators(degree, gens)
    S = sympy_group(degree, gens)
    assert G.order == S.order()
    assert chain_matches_sympy(G.chain, S)
    assert UnitaryGaloisModel(G, []).classes.count == len(S.conjugacy_classes())
    rows = [G.images[g] for g in G.generators]
    assert is_k_transitive(rows, degree, 1)[0] == S.is_transitive()
    two_transitive, pairs = is_k_transitive(rows, degree, 2)
    if S.is_transitive():
        assert pairs == sympy_pair_orbits(S)
        assert two_transitive == (pairs == 1)
