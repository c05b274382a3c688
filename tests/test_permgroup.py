import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmred.errors import ElementCapExceeded, SubgroupNotContained, SubsetCapExceeded
from cmred.permgroup import (
    ELEMENT_CAP,
    check_subset_cap,
    close_generators,
    compose,
    conjugacy_classes,
    coset_action,
    identity_perm,
    inverse_perm,
    is_k_transitive,
    left_cosets,
    lex_rank,
    lex_unrank,
    orbits_on_subsets,
    stabilizer_generators,
)
from group_oracle import (
    dict_close,
    dict_conjugacy_classes,
    dict_left_cosets,
    scalar_stabilizer_generators,
)
from orbit_oracle import burnside_counts, tuple_bfs_k_transitive, tuple_bfs_orbits

S3_GENS = [(1, 0, 2), (1, 2, 0)]
Z4_GEN = [(1, 2, 3, 0)]


def sym_group(n):
    if n == 1:
        return close_generators(1, [])
    swap = [1, 0] + list(range(2, n))
    cyc = list(range(1, n)) + [0]
    return close_generators(n, [tuple(swap), tuple(cyc)])


def test_close_s3():
    G = close_generators(3, S3_GENS)
    assert G.order == 6
    assert G.perm(0) == (0, 1, 2)


def test_close_trivial():
    G = close_generators(4, [])
    assert G.order == 1
    assert G.perm(0) == (0, 1, 2, 3)


def test_close_cyclic():
    G = close_generators(3, [(1, 2, 0)])
    assert G.order == 3


def test_close_rejects_non_permutation():
    with pytest.raises(ValueError):
        close_generators(3, [(0, 0, 1)])


def test_element_cap():
    with pytest.raises(ElementCapExceeded):
        close_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=10)


def test_deterministic_element_order():
    G1 = close_generators(3, S3_GENS)
    G2 = close_generators(3, list(reversed(S3_GENS)))
    assert [G1.perm(i) for i in range(6)] == [G2.perm(i) for i in range(6)]


def test_closure_random_pairs():
    rng = random.Random(11)
    for G in (close_generators(3, S3_GENS), sym_group(4), close_generators(4, Z4_GEN)):
        for _ in range(50):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert compose(G.perm(a), G.perm(b)) in G


def test_mul_inv_consistency():
    G = sym_group(4)
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        assert G.perm(G.mul(a, b)) == compose(G.perm(a), G.perm(b))
        assert G.perm(G.inv(a)) == inverse_perm(G.perm(a))
    assert G.mult_table is not None
    assert G.mul(0, 3) == 3 and G.mul(3, 0) == 3


def test_left_cosets_s3_stab0():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    assert C.n == 3 and C.h == 2
    assert C.reps[0] == 0
    assert sorted(C.cosets[0]) == sorted(C.subgroup_elements)
    # two elements share a left coset iff they differ by an H element on the right
    for a in range(G.order):
        for b in range(G.order):
            same = C.coset_of[a] == C.coset_of[b]
            diff = G.mul(G.inv(a), b)
            assert same == (diff in set(C.subgroup_elements))


def test_left_cosets_z6():
    G = close_generators(6, [(1, 2, 3, 4, 5, 0)])
    r3 = G.perm(G.index_of((3, 4, 5, 0, 1, 2)))
    C = left_cosets(G, [r3])
    assert C.n == 3 and C.h == 2


def test_left_cosets_ordering_by_minimal_element():
    G = sym_group(4)
    C = left_cosets(G, [(0, 2, 1, 3), (0, 1, 3, 2)])
    mins = [min(c) for c in C.cosets]
    assert mins == sorted(mins)
    assert C.reps == mins


def test_subgroup_not_contained():
    G = close_generators(3, [(1, 2, 0)])  # cyclic of order 3
    with pytest.raises(SubgroupNotContained):
        left_cosets(G, [(1, 0, 2)])


def test_conjugacy_s3():
    G = close_generators(3, S3_GENS)
    P = conjugacy_classes(G)
    assert sorted(P.sizes) == [1, 2, 3]
    assert P.class_of[0] == 0 and P.class_reps[0] == 0


def test_conjugacy_abelian_singletons():
    G = close_generators(4, Z4_GEN)
    P = conjugacy_classes(G)
    assert P.sizes == [1, 1, 1, 1]


def test_conjugacy_matches_orbit_oracle():
    # independent oracle: orbit of conjugation by generators only
    for G in (sym_group(4), close_generators(3, S3_GENS)):
        P = conjugacy_classes(G)
        seen = set()
        oracle_classes = []
        for r in range(G.order):
            if r in seen:
                continue
            orbit = {r}
            queue = [r]
            while queue:
                x = queue.pop()
                for g in G.generators:
                    y = G.mul(G.mul(g, x), G.inv(g))
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            seen |= orbit
            oracle_classes.append(sorted(orbit))
        assert oracle_classes == P.classes


def test_coset_action_is_homomorphism():
    for gens in (S3_GENS, [(1, 2, 3, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]):
        G = close_generators(len(gens[0]), gens)
        C = left_cosets(G, [])
        act = coset_action(G, C)
        for a in range(G.order):
            for b in range(G.order):
                ab = G.mul(a, b)
                assert np.array_equal(act[ab], act[a][act[b]])


def test_coset_action_matches_direct_definition():
    G = sym_group(4)
    C = left_cosets(G, stabilizer_generators(G, 0))
    act = coset_action(G, C)
    for g in range(G.order):
        direct = [C.coset_of[G.mul(g, C.reps[i])] for i in range(C.n)]
        assert list(act[g]) == direct


def test_coset_action_s3_natural():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    act = coset_action(G, C)
    # isomorphic to the natural action on 3 points: same multiset of cycle types
    def cycle_type(row):
        seen, ct = set(), []
        for i in range(len(row)):
            if i in seen:
                continue
            j, length = i, 0
            while j not in seen:
                seen.add(j)
                j = row[j]
                length += 1
            ct.append(length)
        return tuple(sorted(ct))
    types = sorted(cycle_type(tuple(act[g])) for g in range(6))
    natural = sorted(cycle_type(G.perm(g)) for g in range(6))
    assert types == natural


def test_coset_action_regular_is_fixed_point_free():
    G = close_generators(4, Z4_GEN)
    C = left_cosets(G, [])
    act = coset_action(G, C)
    assert list(act[0]) == [0, 1, 2, 3]
    for g in range(1, 4):
        assert all(act[g][i] != i for i in range(4))


def test_two_transitive_s3():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    act = coset_action(G, C)
    ok, orbits = is_k_transitive(act, C.n, 2)
    assert ok and orbits == 1


def test_regular_z4_not_two_transitive():
    G = close_generators(4, Z4_GEN)
    act = coset_action(G, left_cosets(G, []))
    ok, orbits = is_k_transitive(act, 4, 2)
    assert not ok and orbits == 3  # ordered pairs split by rotation difference


def test_k_transitive_implies_lower():
    for gens, n in ((S3_GENS, 3), ([(1, 2, 3, 0)], 4)):
        G = close_generators(n, gens)
        act = coset_action(G, left_cosets(G, stabilizer_generators(G, 0)))
        rows = [act[g] for g in G.generators]
        best = 0
        for k in range(1, min(4, len(act[0])) + 1):
            ok, _ = is_k_transitive(rows, len(act[0]), k)
            if ok:
                best = k
        for j in range(1, best + 1):
            assert is_k_transitive(rows, len(act[0]), j)[0]


def orbit_reps_sizes(labels):
    reps, sizes = np.unique(labels, return_counts=True)
    return reps.tolist(), sizes.tolist()


def test_orbits_on_subsets_s4():
    G = sym_group(4)
    act = coset_action(G, left_cosets(G, stabilizer_generators(G, 0)))
    rows = [act[g] for g in G.generators]
    labels = orbits_on_subsets(rows, 4, 2)
    assert orbit_reps_sizes(labels) == ([0], [6])


def test_orbits_on_subsets_z4():
    # oracle: enumerate the six 2-subsets of Z/4 under rotation by hand
    rot = (1, 2, 3, 0)
    subsets = list(itertools.combinations(range(4), 2))
    oracle = {}
    for s in subsets:
        canon = min(tuple(sorted(((p + k) % 4 for p in s))) for k in range(4))
        oracle.setdefault(canon, set()).add(s)
    G = close_generators(4, [rot])
    act = coset_action(G, left_cosets(G, []))
    labels = orbits_on_subsets([act[g] for g in range(4)], 4, 2)
    reps, sizes = orbit_reps_sizes(labels)
    assert sorted(sizes) == sorted(len(v) for v in oracle.values()) == [2, 4]
    # every subset carries the rank of its orbit's hand-computed canonical rep
    for r, s in enumerate(subsets):
        canon = next(c for c, members in oracle.items() if s in members)
        assert labels[r] == subsets.index(canon)


def test_orbits_empty_subset():
    G = close_generators(3, S3_GENS)
    act = coset_action(G, left_cosets(G, []))
    labels = orbits_on_subsets(act, G.order, 0)
    assert labels.tolist() == [0]


def test_orbit_sizes_sum_to_binomial():
    G = sym_group(4)
    act = coset_action(G, left_cosets(G, stabilizer_generators(G, 0)))
    rows = [act[g] for g in G.generators]
    for eps in range(5):
        labels = orbits_on_subsets(rows, 4, eps)
        assert sum(orbit_reps_sizes(labels)[1]) == math.comb(4, eps)


def test_subset_cap():
    G = sym_group(4)
    act = coset_action(G, left_cosets(G, stabilizer_generators(G, 0)))
    with pytest.raises(SubsetCapExceeded):
        orbits_on_subsets(act, 4, 2, cap=3)
    with pytest.raises(SubsetCapExceeded):
        check_subset_cap(28, 9)
    check_subset_cap(28, 8)
    with pytest.raises(ValueError):
        check_subset_cap(4, 5)


def test_orbit_canonical_order():
    G = close_generators(4, Z4_GEN)
    act = coset_action(G, left_cosets(G, []))
    labels = orbits_on_subsets([act[g] for g in range(4)], 4, 2)
    # each label is the smallest rank in its orbit, and a fixed point
    assert (labels <= np.arange(len(labels))).all()
    assert (labels[labels] == labels).all()
    reps, _ = orbit_reps_sizes(labels)
    assert [tuple(r) for r in lex_unrank(reps, 4, 2).tolist()] == [(0, 1), (0, 2)]


def test_lex_rank_is_combinations_order():
    for n in range(1, 9):
        for eps in range(n + 1):
            combos = np.array(list(itertools.combinations(range(n), eps)),
                              dtype=np.uint8).reshape(math.comb(n, eps), eps)
            ranks = np.arange(len(combos))
            assert (lex_unrank(ranks, n, eps) == combos).all()
            assert (lex_rank(combos, n) == ranks).all()


def test_lex_rank_past_int64_binomials():
    # C(69, 34) does not fit in int64; the capped weights never need it
    n = 70
    for eps in (1, 2, 68, 69):
        combos = np.array(list(itertools.combinations(range(n), eps)),
                          dtype=np.uint8)
        ranks = np.arange(len(combos))
        assert (lex_unrank(ranks, n, eps) == combos).all()
        assert (lex_rank(combos, n) == ranks).all()


def test_orbits_past_64_points():
    n = 70
    rot = [(i + 1) % n for i in range(n)]
    reps, sizes = orbit_reps_sizes(orbits_on_subsets([rot], n, 2))
    assert sizes == [70] * 34 + [35]
    assert lex_unrank(reps, n, 2).tolist() == [[0, d] for d in range(1, 36)]


@st.composite
def random_group(draw):
    degree = draw(st.integers(min_value=1, max_value=8))
    perm = st.permutations(list(range(degree)))
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    return close_generators(degree, gens)


@settings(max_examples=60, deadline=None)
@given(random_group())
def test_orbits_match_tuple_bfs_and_burnside(G):
    n = G.degree
    rows = [G.images[g] for g in G.generators]
    burnside = burnside_counts(G.images.tolist(), n)
    for eps in range(n + 1):
        labels = orbits_on_subsets(rows, n, eps)
        reps, sizes = orbit_reps_sizes(labels)
        oracle = tuple_bfs_orbits(rows, n, eps)
        assert [tuple(r) for r in lex_unrank(reps, n, eps).tolist()] == \
            [o[0] for o in oracle]
        assert sizes == [len(o) for o in oracle]
        assert len(reps) == burnside[eps]


def test_stabilizer_generators_generate_full_stabilizer():
    for G in (sym_group(4), sym_group(5)):
        gens = stabilizer_generators(G, 0)
        H = close_generators(G.degree, gens)
        fixed = sum(1 for i in range(G.order) if G.images[i][0] == 0)
        assert H.order == fixed
        for i in range(H.order):
            assert H.perm(i)[0] == 0


@settings(max_examples=40, deadline=None)
@given(random_group(), st.integers(min_value=1, max_value=3))
def test_k_transitive_matches_tuple_bfs(G, k):
    n = G.degree
    if k > n:
        return
    rows = [G.images[g] for g in G.generators]
    expected = tuple_bfs_k_transitive(rows, n, k)
    assert is_k_transitive(rows, n, k) == expected
    if G.order <= 720:
        # the whole element table names the same group
        assert is_k_transitive(G.images, n, k) == expected


@st.composite
def group_with_subgroups(draw):
    """A random group of degree <= 7 and two random subgroup generator
    lists drawn from its elements (possibly empty)."""
    degree = draw(st.integers(min_value=1, max_value=7))
    perm = st.permutations(list(range(degree)))
    gens = draw(st.lists(perm, min_size=0, max_size=3))
    G = close_generators(degree, gens)
    element = st.integers(min_value=0, max_value=G.order - 1)
    subgroups = [[G.perm(i) for i in draw(st.lists(element, max_size=2))]
                 for _ in range(2)]
    return degree, gens, G, subgroups


@settings(max_examples=40, deadline=None)
@given(group_with_subgroups())
def test_group_layer_matches_dict_oracle(case):
    degree, gens, G, subgroups = case
    images, parents, levels, generators = dict_close(degree, gens, ELEMENT_CAP)
    assert np.array_equal(G.images, images)
    assert np.array_equal(G._parents, parents)
    assert G._levels == levels and G.generators == generators
    P = conjugacy_classes(G)
    class_of, reps, classes = dict_conjugacy_classes(G)
    assert np.array_equal(P.class_of, class_of)
    assert (P.class_reps, P.classes) == (reps, classes)
    for H_gens in subgroups + [stabilizer_generators(G, 0)]:
        C = left_cosets(G, H_gens)
        h_indices, coset_of, reps, cosets = dict_left_cosets(G, H_gens)
        assert np.array_equal(C.coset_of, coset_of)
        assert (C.subgroup_elements, C.reps, C.cosets) == (h_indices, reps, cosets)
        assert (C.h, C.n) == (len(h_indices), len(reps))
    assert G.inverses.tolist() == [G.index_of(inverse_perm(G.perm(i)))
                                   for i in range(G.order)]
    assert stabilizer_generators(G, 0) == scalar_stabilizer_generators(G, 0)


def test_index_rows_identity_and_generators():
    G = sym_group(5)
    assert G.index_rows(np.arange(5)[None]).tolist() == [0]
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    assert G.index_rows(gens).tolist() == G.generators
    assert G.index_rows(G.images).tolist() == list(range(G.order))
    assert G.index_of((1, 2, 3, 4, 0)) == G.generators[1]


def test_index_rows_outside_group():
    G = close_generators(5, [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4)])  # A4 on 0..3
    assert G.order == 12
    outside = [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (4, 1, 2, 3, 0)]
    assert G.index_rows(outside).tolist() == [-1, -1, -1]
    assert G.index_rows(outside + [(0, 1, 2, 3, 4)]).tolist() == [-1] * 3 + [0]
    with pytest.raises(KeyError):
        G.index_of((1, 0, 2, 3, 4))
    assert (1, 0, 2, 3, 4) not in G
    assert (0, 1, 2) not in G and (0, 1, 2, 3, 300) not in G
    with pytest.raises(ValueError):
        G.index_rows([(0, 1, 2)])


def test_index_rows_past_63_key_bits():
    # eight disjoint transpositions on 200 points: the base is 0, 2, ..., 14
    # at 8 bits a point, so the key is re-ranked before its last point
    degree = 200
    gens = []
    for t in range(8):
        img = list(range(degree))
        img[2 * t], img[2 * t + 1] = 2 * t + 1, 2 * t
        gens.append(tuple(img))
    G = close_generators(degree, gens)
    assert G.order == 256
    assert any(table is not None for _, table in G._key_plan)
    assert G.index_rows(G.images).tolist() == list(range(256))
    # fixes every base point but is not the identity
    odd = list(range(degree))
    odd[1], odd[199] = 199, 1
    assert G.index_rows([odd, G.images[255]]).tolist() == [-1, 255]
