import copy
import itertools
import math
import random
import re
import time
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmred import cm_engine, permgroup
from cmred.certifier import certify, orbit_table
from cmred.cli import parse_spec
from cmred.errors import (
    BuildVerificationError,
    ElementCapExceeded,
    SubgroupNotContained,
    SubsetCapExceeded,
)
from cmred.cm_engine import pair_tensor
from cmred.galois_model import UnitaryGaloisModel
from cmred.group_zoo import _zoo_action, build, parse_zoo_spec, zoo_order
from cmred.permgroup import (
    ELEMENT_CAP,
    ConjugacyPartition,
    StabChain,
    _partition,
    _stabilized_point,
    check_subset_cap,
    close_generators,
    conjugacy_classes,
    coset_action,
    generator_rows,
    is_k_transitive,
    left_cosets,
    lex_rank,
    lex_subsets,
    lex_unrank,
    merge_labels,
    orbits_on_subsets,
    stabilizer_generators,
)
from class_oracle import class_members
from group_oracle import (
    bytes_index,
    dict_close,
    dict_conjugacy_classes,
    dict_left_cosets,
    scalar_stabilizer_generators,
)
from orbit_oracle import burnside_counts, tuple_bfs_k_transitive, tuple_bfs_orbits
from perm_oracle import (
    build_zoo_model,
    compose,
    contains,
    identity_perm,
    index_of,
    inv,
    inverse_perm,
    lookup,
    mul,
    perm,
    zoo_specs,
)

S3_GENS = [(1, 0, 2), (1, 2, 0)]
FIXTURES = Path(__file__).parent / "fixtures"
Z4_GEN = [(1, 2, 3, 0)]


def sym_group(n):
    if n == 1:
        return close_generators(1, [])
    swap = [1, 0] + list(range(2, n))
    cyc = list(range(1, n)) + [0]
    return close_generators(n, [tuple(swap), tuple(cyc)])


def element_set(degree, gens):
    """The elements generated by ``gens``, closed by the dict oracle."""
    return {row.tobytes() for row in dict_close(degree, gens, ELEMENT_CAP)[0]}


def byte_positions(images):
    """Position of each row in the byte-sorted list of the rows."""
    positions = np.empty(len(images), dtype=np.int64)
    positions[np.lexsort(images.T[::-1])] = np.arange(len(images))
    return positions


# one or more entries of every zoo family, all of order at most 10^5
ZOO = ([f"sym:{n}" for n in (1, 2, 3, 4, 5, 8)]
       + [f"alt:{n}" for n in (1, 3, 4, 5, 8)]
       + ["cyclic:1", "cyclic:6", "cyclic:64", "dihedral:3", "dihedral:12"]
       + [f"psl2:{q}" for q in (2, 4, 7, 9, 13)]
       + [f"pgl2:{q}" for q in (3, 8, 11, 13)]
       + ["psl3:2", "sp4f2:+", "sp4f2:-", "psu3:2", "pgu3:2", "psu3:3",
          "pgu3:3"])


def test_close_s3():
    G = close_generators(3, S3_GENS)
    assert G.order == 6
    assert perm(G, 0) == identity_perm(3)


def test_close_trivial():
    G = close_generators(4, [])
    assert G.order == 1
    assert perm(G, 0) == identity_perm(4)


def test_close_cyclic():
    G = close_generators(3, [(1, 2, 0)])
    assert G.order == 3


def test_close_rejects_non_permutation():
    with pytest.raises(ValueError):
        close_generators(3, [(0, 0, 1)])


def test_element_cap():
    # |S10| = 3,628,800 is over ELEMENT_CAP; the chain sees it first
    swap = (1, 0) + tuple(range(2, 10))
    cycle = tuple((i + 1) % 10 for i in range(10))
    with pytest.raises(ElementCapExceeded,
                       match="group order is at least 3628800"):
        close_generators(10, [swap, cycle])


def test_deterministic_element_order():
    G1 = close_generators(3, S3_GENS)
    G2 = close_generators(3, list(reversed(S3_GENS)))
    assert [perm(G1, i) for i in range(6)] == [perm(G2, i) for i in range(6)]


def test_closure_random_pairs():
    rng = random.Random(11)
    for G in (close_generators(3, S3_GENS), sym_group(4), close_generators(4, Z4_GEN)):
        for _ in range(50):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert contains(G, compose(perm(G, a), perm(G, b)))


def test_mul_inv_consistency():
    G = sym_group(4)
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        assert perm(G, mul(G, a, b)) == compose(perm(G, a), perm(G, b))
        assert perm(G, inv(G, a)) == inverse_perm(perm(G, a))
    assert G.mult_table is not None
    assert mul(G, 0, 3) == 3 and mul(G, 3, 0) == 3


def test_inverses_and_mult_table_are_built_once():
    # both are cached on first read; above TABLE_CAP the table is None
    G = sym_group(4)
    assert "inverses" not in vars(G) and "mult_table" not in vars(G)
    assert G.inverses is G.inverses and G.mult_table is G.mult_table
    assert G.mult_table.shape == (24, 24)
    # TABLE_CAP < 2^16, so every element index fits
    assert G.mult_table.dtype == np.uint16
    big = build("sym:7")[0]
    assert big.order == 5040 > permgroup.TABLE_CAP
    assert big.mult_table is None and vars(big)["mult_table"] is None
    assert big.inverses.shape == (5040,)


def coset_lists(C):
    """The sorted element indices of each coset, from ``coset_of``."""
    return [np.flatnonzero(C.coset_of == i).tolist() for i in range(C.n)]


def test_left_cosets_s3_stab0():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    assert C.n == 3 and C.h == 2
    assert C.reps[0] == 0
    assert coset_lists(C)[0] == C.subgroup_elements.tolist()
    # two elements share a left coset iff they differ by an H element on the right
    for a in range(G.order):
        for b in range(G.order):
            same = C.coset_of[a] == C.coset_of[b]
            diff = mul(G, inv(G, a), b)
            assert same == (diff in set(C.subgroup_elements))


def test_left_cosets_z6():
    G = close_generators(6, [(1, 2, 3, 4, 5, 0)])
    r3 = perm(G, index_of(G, (3, 4, 5, 0, 1, 2)))
    C = left_cosets(G, [r3])
    assert C.n == 3 and C.h == 2


def test_left_cosets_ordering_by_minimal_element():
    G = sym_group(4)
    C = left_cosets(G, [(0, 2, 1, 3), (0, 1, 3, 2)])
    mins = [min(c) for c in coset_lists(C)]
    assert mins == sorted(mins)
    assert C.reps == mins


def test_subgroup_not_contained():
    G = close_generators(3, [(1, 2, 0)])  # cyclic of order 3
    with pytest.raises(SubgroupNotContained):
        left_cosets(G, [(1, 0, 2)])


def past_63_key_bits():
    """Eight disjoint transpositions on 200 points, whose basic orbits are
    {0, 1}, {2, 3}, ..., {14, 15}, and a row that fixes every base point
    but is not the identity: it ranks onto an element without being one."""
    degree = 200
    gens = []
    for t in range(8):
        img = list(range(degree))
        img[2 * t], img[2 * t + 1] = 2 * t + 1, 2 * t
        gens.append(tuple(img))
    G = close_generators(degree, gens)
    odd = list(range(degree))
    odd[1], odd[199] = 199, 1
    return G, tuple(odd)


@pytest.mark.parametrize("case", ["a4", "past-63-key-bits", "past-table-cap"])
def test_subgroup_not_contained_names_the_smallest_outside_generator(case):
    # the generators are sifted through G's chain as one block; the message
    # names the smallest of those outside G, whatever their order
    if case == "a4":
        G = close_generators(5, [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4)])
        inside = [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4)]
        outside = [(4, 1, 2, 3, 0), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]
    elif case == "past-63-key-bits":
        G, odd = past_63_key_bits()
        inside = [perm(G, 255), perm(G, 3)]
        outside = [odd, tuple(odd[:3]) + (4, 3) + tuple(odd[5:])]
    else:
        G = build("alt:8")[0]
        assert G.order > permgroup.TABLE_CAP
        inside = [(1, 0, 3, 2, 4, 5, 6, 7), (1, 2, 0, 3, 4, 5, 6, 7)]
        outside = [(0, 1, 2, 3, 4, 5, 7, 6), (1, 0, 2, 3, 4, 5, 6, 7)]
    assert all(contains(G, p) for p in inside)
    assert not any(contains(G, p) for p in outside)
    assert left_cosets(G, inside).h == len(element_set(G.degree, inside))
    message = re.escape(f"subgroup element {min(outside)} is not in the group")
    for gens in ([inside[0], *outside, inside[1]], outside[::-1] + inside):
        with pytest.raises(SubgroupNotContained, match=f"^{message}$"):
            left_cosets(G, gens)


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
                    y = mul(G, mul(G, g, x), inv(G, g))
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            seen |= orbit
            oracle_classes.append(sorted(orbit))
        assert oracle_classes == [c.tolist() for c in class_members(P)]


def test_coset_action_is_homomorphism():
    for gens in (S3_GENS, [(1, 2, 3, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]):
        G = close_generators(len(gens[0]), gens)
        C = left_cosets(G, [])
        act = coset_action(G, C, range(G.order))
        for a in range(G.order):
            for b in range(G.order):
                ab = mul(G, a, b)
                assert np.array_equal(act[ab], act[a][act[b]])


def test_coset_action_matches_direct_definition():
    G = sym_group(4)
    C = left_cosets(G, stabilizer_generators(G))
    act = coset_action(G, C, range(G.order))
    for g in range(G.order):
        direct = [C.coset_of[mul(G, g, C.reps[i])] for i in range(C.n)]
        assert list(act[g]) == direct


def test_coset_action_s3_natural():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    act = coset_action(G, C, range(G.order))
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
    natural = sorted(cycle_type(perm(G, g)) for g in range(6))
    assert types == natural


def test_coset_action_regular_is_fixed_point_free():
    G = close_generators(4, Z4_GEN)
    C = left_cosets(G, [])
    act = coset_action(G, C, range(G.order))
    assert list(act[0]) == [0, 1, 2, 3]
    for g in range(1, 4):
        assert all(act[g][i] != i for i in range(4))


def test_two_transitive_s3():
    G = close_generators(3, S3_GENS)
    C = left_cosets(G, [(0, 2, 1)])
    act = coset_action(G, C, range(G.order))
    ok, orbits = is_k_transitive(act, C.n, 2)
    assert ok and orbits == 1


def test_regular_z4_not_two_transitive():
    G = close_generators(4, Z4_GEN)
    act = coset_action(G, left_cosets(G, []), range(G.order))
    ok, orbits = is_k_transitive(act, 4, 2)
    assert not ok and orbits == 3  # ordered pairs split by rotation difference


def test_k_transitive_implies_lower():
    for gens, n in ((S3_GENS, 3), ([(1, 2, 3, 0)], 4)):
        G = close_generators(n, gens)
        C = left_cosets(G, stabilizer_generators(G))
        act = coset_action(G, C, range(G.order))
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
    C = left_cosets(G, stabilizer_generators(G))
    act = coset_action(G, C, range(G.order))
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
    act = coset_action(G, left_cosets(G, []), range(G.order))
    labels = orbits_on_subsets([act[g] for g in range(4)], 4, 2)
    reps, sizes = orbit_reps_sizes(labels)
    assert sorted(sizes) == sorted(len(v) for v in oracle.values()) == [2, 4]
    # every subset carries the rank of its orbit's hand-computed canonical rep
    for r, s in enumerate(subsets):
        canon = next(c for c, members in oracle.items() if s in members)
        assert labels[r] == subsets.index(canon)


def test_orbits_empty_subset():
    G = close_generators(3, S3_GENS)
    act = coset_action(G, left_cosets(G, []), range(G.order))
    labels = orbits_on_subsets(act, G.order, 0)
    assert labels.tolist() == [0]


def test_orbit_sizes_sum_to_binomial():
    G = sym_group(4)
    C = left_cosets(G, stabilizer_generators(G))
    act = coset_action(G, C, range(G.order))
    rows = [act[g] for g in G.generators]
    for eps in range(5):
        labels = orbits_on_subsets(rows, 4, eps)
        assert sum(orbit_reps_sizes(labels)[1]) == math.comb(4, eps)


def raises_unallocated(error, call):
    """``call()`` raises ``error`` under a tracemalloc peak of 1 MiB: the
    size check comes before any array of the requested size."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_subset_cap():
    # C(28, 9) = 6,906,900 subsets would take 62 MB as uint8 point rows
    rows = [list(range(28))]
    raises_unallocated(SubsetCapExceeded,
                       lambda: orbits_on_subsets(rows, 28, 9))
    with pytest.raises(SubsetCapExceeded):
        check_subset_cap(28, 9)
    check_subset_cap(28, 8)
    with pytest.raises(ValueError):
        check_subset_cap(4, 5)


def test_lex_rank_and_unrank_past_the_subset_cap():
    # C(40, 20) = 137,846,528,820 ranks would not fit int32
    subset = np.arange(20, dtype=np.uint8)[None]
    raises_unallocated(SubsetCapExceeded, lambda: lex_rank(subset, 40))
    raises_unallocated(SubsetCapExceeded, lambda: lex_unrank([0], 40, 20))


def test_k_transitive_past_int32_tuples():
    # 1291**3 = 2,151,685,171 >= 2^31 ordered triples; 1290**3 fits
    rows = np.arange(1291, dtype=np.int32)[None]
    raises_unallocated(ValueError, lambda: is_k_transitive(rows, 1291, 3))


def test_orbit_canonical_order():
    G = close_generators(4, Z4_GEN)
    act = coset_action(G, left_cosets(G, []), range(G.order))
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


def test_lex_subsets_are_the_combinations():
    for n in range(1, 13):
        for eps in range(n + 1):
            subsets = lex_subsets(n, eps)
            assert subsets.dtype == np.min_scalar_type(n - 1)
            count = math.comb(n, eps)
            assert np.array_equal(
                subsets, lex_unrank(np.arange(count), n, eps))
            combos = np.array(list(itertools.combinations(range(n), eps)),
                              dtype=subsets.dtype).reshape(count, eps)
            assert np.array_equal(subsets, combos)


def root_labels(data, m):
    """Root labels of m items drawn into random classes: each item is
    labelled by the smallest item of its class."""
    items = st.integers(min_value=0, max_value=m - 1)
    classes = data.draw(st.lists(items, min_size=m, max_size=m))
    smallest = {}
    for x, c in enumerate(classes):
        smallest.setdefault(c, x)
    return [smallest[c] for c in classes]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_labels_matches_a_union_find(data):
    # chunks of 3 edges: up to 40 items cross many chunk edges, and the
    # hooks of one chunk change the labels a later chunk reads
    m = data.draw(st.integers(min_value=1, max_value=40))
    items = st.integers(min_value=0, max_value=m - 1)
    labels = root_labels(data, m)
    kind = data.draw(st.sampled_from(["permutation", "map", "sparse"]))
    if kind == "permutation":
        image = data.draw(st.permutations(range(m)))
    elif kind == "map":
        image = data.draw(st.lists(items, min_size=m, max_size=m))
    else:  # mostly fixed points: few edges hook roots into long chains
        moves = data.draw(st.lists(st.one_of(st.none(), items),
                                   min_size=m, max_size=m))
        image = [x if y is None else y for x, y in enumerate(moves)]
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))

    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(m):
        for y in (labels[x], image[x]):
            a, b = find(x), find(y)
            parent[max(a, b)] = min(a, b)  # a root is its class's minimum
    given_labels = np.array(labels, dtype=dtype)
    with mock.patch.object(permgroup, "TAKE_ENTRIES", 3):
        got = merge_labels(given_labels, np.array(image, dtype=data.draw(
            st.sampled_from([np.uint8, np.int32, np.int64]))))
    assert got is given_labels  # merged in place
    assert got.dtype == dtype
    assert got.tolist() == [find(x) for x in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_and_class_sizes_across_chunks(data):
    # chunks of 3 labels: the roots are numbered across chunk edges, and
    # the sizes counted a chunk at a time are np.bincount's
    m = data.draw(st.integers(min_value=1, max_value=40))
    labels = root_labels(data, m)
    roots = sorted(set(labels))
    number = {r: k for k, r in enumerate(roots)}
    expected = [number[label] for label in labels]
    with mock.patch.object(permgroup, "TAKE_ENTRIES", 3):
        given_labels = np.array(labels, dtype=np.int32)
        class_of, reps = _partition(given_labels, np.empty(m, np.int32))
        assert class_of is given_labels  # written over the labels
        sizes = ConjugacyPartition(class_of, reps.tolist()).sizes
    assert class_of.tolist() == expected
    assert reps.tolist() == roots
    assert class_of.dtype == np.int32
    assert sizes == np.bincount(class_of).tolist()


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
    picked = [G.images[g] for g in G.orbit_generators]
    burnside = burnside_counts(G.images.tolist(), n)
    for eps in range(n + 1):
        oracle = tuple_bfs_orbits(rows, n, eps)
        for action in (rows, picked):
            reps, sizes = orbit_reps_sizes(orbits_on_subsets(action, n, eps))
            assert [tuple(r) for r in lex_unrank(reps, n, eps).tolist()] == \
                [o[0] for o in oracle]
            assert sizes == [len(o) for o in oracle]
            assert len(reps) == burnside[eps]


def test_stabilizer_generators_generate_full_stabilizer():
    for G in (sym_group(4), sym_group(5)):
        gens = stabilizer_generators(G)
        H = close_generators(G.degree, gens)
        fixed = sum(1 for i in range(G.order) if G.images[i][0] == 0)
        assert H.order == fixed
        for i in range(H.order):
            assert perm(H, i)[0] == 0


@settings(max_examples=40, deadline=None)
@given(random_group(), st.integers(min_value=1, max_value=3))
def test_k_transitive_matches_tuple_bfs(G, k):
    n = G.degree
    if k > n:
        return
    rows = [G.images[g] for g in G.generators]
    expected = tuple_bfs_k_transitive(rows, n, k)
    assert is_k_transitive(rows, n, k) == expected
    picked = [G.images[g] for g in G.orbit_generators]
    assert is_k_transitive(picked, n, k) == expected
    if G.order <= 720:
        # the whole element table names the same group
        assert is_k_transitive(G.images, n, k) == expected


@st.composite
def group_with_subgroups(draw):
    """A random group of degree <= 7 and two random subgroup generator
    lists drawn from its elements (possibly empty)."""
    degree = draw(st.integers(min_value=1, max_value=7))
    permutation = st.permutations(list(range(degree)))
    gens = draw(st.lists(permutation, min_size=0, max_size=3))
    G = close_generators(degree, gens)
    element = st.integers(min_value=0, max_value=G.order - 1)
    subgroups = [[perm(G, i) for i in draw(st.lists(element, max_size=2))]
                 for _ in range(2)]
    return degree, gens, G, subgroups


@settings(max_examples=40, deadline=None)
@given(group_with_subgroups())
def test_group_layer_matches_dict_oracle(case):
    degree, gens, G, subgroups = case
    images, generators = dict_close(degree, gens, ELEMENT_CAP)
    assert np.array_equal(G.images, images) and G.generators == generators
    assert np.array_equal(G.chain.rank(G.images), byte_positions(G.images))
    P = conjugacy_classes(G)
    class_of, reps, classes = dict_conjugacy_classes(G)
    assert np.array_equal(P.class_of, class_of)
    assert (P.class_reps, [c.tolist() for c in class_members(P)]) == \
        (reps, classes)
    for H_gens in subgroups + [stabilizer_generators(G)]:
        C = left_cosets(G, H_gens)
        h_indices, coset_of, reps, cosets = dict_left_cosets(G, H_gens)
        assert np.array_equal(C.coset_of, coset_of)
        assert (C.subgroup_elements.tolist(), C.reps, coset_lists(C)) == \
            (h_indices, reps, cosets)
        assert (C.h, C.n) == (len(h_indices), len(reps))
    assert G.inverses.tolist() == [index_of(G, inverse_perm(perm(G, i)))
                                   for i in range(G.order)]
    # the same subgroup, whatever the generators
    assert element_set(G.degree, stabilizer_generators(G)) == \
        element_set(G.degree, scalar_stabilizer_generators(G, 0))


@settings(max_examples=40, deadline=None)
@given(group_with_subgroups())
def test_coset_action_matches_dict_cosets(case):
    # random H: the column path and the merge path of left_cosets both run
    _, _, G, subgroups = case
    assume(G.order <= 120)  # |G| n lookups per subgroup in the oracle
    index = bytes_index(G)
    for H_gens in subgroups + [stabilizer_generators(G)]:
        C = left_cosets(G, H_gens)
        _, coset_of, reps, _ = dict_left_cosets(G, H_gens)
        # row of g o rep_i, looked up by its bytes
        oracle = [[coset_of[index[G.images[g][G.images[r]].tobytes()]]
                   for r in reps] for g in range(G.order)]
        assert coset_action(G, C, range(G.order)).tolist() == oracle


def test_index_elements_identity_and_generators():
    G = sym_group(5)
    assert G.index_elements(np.arange(5)[None], "identity").tolist() == [0]
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    assert G.index_elements(gens, "generators").tolist() == G.generators
    assert G.index_elements(G.images, "elements").tolist() == \
        list(range(G.order))
    assert index_of(G, (1, 2, 3, 4, 0)) == G.generators[1]
    assert lookup(G, G.images).tolist() == list(range(G.order))


def test_rows_outside_the_group():
    # index_elements raises on them, the chain's sift leaves a residue and
    # the test-side lookup gives -1
    G = close_generators(5, [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4)])  # A4 on 0..3
    assert G.order == 12
    outside = [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3), (4, 1, 2, 3, 0)]
    for row in outside:
        with pytest.raises(BuildVerificationError,
                           match="^lookup: a row outside the group$"):
            G.index_elements([(0, 1, 2, 3, 4), row], "lookup")
        assert G.chain._sift(np.array([row], np.uint8), 0) is not None
    assert G.chain._sift(G.images, 0) is None
    assert lookup(G, outside + [(0, 1, 2, 3, 4)]).tolist() == [-1] * 3 + [0]
    with pytest.raises(KeyError):
        index_of(G, (1, 0, 2, 3, 4))
    assert not contains(G, (1, 0, 2, 3, 4))
    assert not contains(G, (0, 1, 2)) and not contains(G, (0, 1, 2, 3, 300))
    with pytest.raises(ValueError):
        G.index_elements([(0, 1, 2)], "lookup")


def test_index_elements_past_63_key_bits():
    G, odd = past_63_key_bits()
    assert G.order == 256
    assert G.index_elements(G.images, "elements").tolist() == list(range(256))
    # odd ranks onto an element, and only the full-row compare and the
    # chain's sift see that it is none
    _, idx, found = G._lookup(np.array([odd], np.uint8))
    assert 0 <= idx[0] < G.order and found[0].tolist() != list(odd)
    with pytest.raises(BuildVerificationError):
        G.index_elements([odd, G.images[255]], "lookup")
    assert G.chain._sift(np.array([odd], np.uint8), 0) is not None
    assert lookup(G, [odd, G.images[255]]).tolist() == [-1, 255]


def cycle_type(images):
    seen, lengths = set(), []
    for start in range(len(images)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = images[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_sym8_classes_are_the_cycle_types():
    # 40,320 elements: conjugation is looked up over more than one block
    G = sym_group(8)
    assert G.order > permgroup.BLOCK_ROWS
    by_type = {}
    for x, images in enumerate(G.images.tolist()):
        by_type.setdefault(cycle_type(images), []).append(x)
    P = conjugacy_classes(G)
    assert P.count == len(by_type) == 22
    assert sorted(c.tolist() for c in class_members(P)) == \
        sorted(by_type.values())


def test_sym8_general_cosets_across_blocks():
    # <(0 1)(2 3)> fixes points but is no point stabilizer: the general path
    G = sym_group(8)
    h = (1, 0, 3, 2, 4, 5, 6, 7)
    C = left_cosets(G, [h])
    assert _stabilized_point(G, generator_rows(8, [h])) is None
    rows = list(map(tuple, G.images.tolist()))
    index = {row: x for x, row in enumerate(rows)}
    expected = {frozenset({x, index[tuple(row[i] for i in h)]})  # {x, x o h}
                for x, row in enumerate(rows)}
    cosets = {}
    for x, c in enumerate(C.coset_of.tolist()):
        cosets.setdefault(c, set()).add(x)
    assert set(map(frozenset, cosets.values())) == expected
    assert (C.n, C.h) == (len(expected), 2) == (20_160, 2)
    assert C.reps == [min(cosets[c]) for c in range(C.n)]


def test_index_elements_of_a_whole_block_at_the_block_edges():
    # one lookup of all of G, past the rank chunks, in int32; a row that is
    # no permutation on either side of a block edge raises
    G = sym_group(8)
    edge = permgroup.BLOCK_ROWS
    idx = G.index_elements(G.images, "elements")
    assert idx.dtype == np.int32
    assert np.array_equal(idx, np.arange(G.order))
    for at, bad in ((edge - 1, 0),  # not a permutation
                    (edge, np.arange(8)[::-1] % 7)):  # 0 twice, no 7
        rows = G.images.copy()
        rows[at] = bad
        with pytest.raises(BuildVerificationError,
                           match="^elements: a row outside the group$"):
            G.index_elements(rows, "elements")
        assert np.flatnonzero(lookup(G, rows) < 0).tolist() == [at]


def test_conjugacy_classes_of_sym9_stay_small():
    # 362,880 elements; conjugates are looked up a block at a time and the
    # member lists are not built
    G = sym_group(9)
    tracemalloc.start()
    try:
        P = conjugacy_classes(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.count == 30
    assert "classes" not in vars(P)
    # the labels and one map buffer (1.4 MiB each) and chunk-sized
    # temporaries: 3.1 MiB; full-size merge buffers and partition arrays
    # peaked it at 5.9 MiB
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_index_elements_at_the_block_edges():
    # one row outside G on either side of a block edge raises, naming the
    # map, through _mapped and through coset_action; valid blocks give
    # the test-side lookup's indices
    G = sym_group(8)
    edge = permgroup.BLOCK_ROWS
    s = G.images[G.generators[1]]
    s_inv = np.argsort(s)

    def conjugate(x):
        return s[x[:, s_inv]]

    rows = conjugate(G.images)
    expected = lookup(G, rows)
    assert (expected >= 0).all()
    assert np.array_equal(G.index_elements(rows, "conjugation map"), expected)
    assert np.array_equal(
        permgroup._mapped(G, conjugate, "conjugation map"), expected)
    C = left_cosets(G, stabilizer_generators(G))
    elements = np.arange(2 * edge) % G.order
    products = G.images[elements][:, G.images[C.reps]].reshape(-1, 8)
    assert np.array_equal(coset_action(G, C, elements).ravel(),
                          C.coset_of[lookup(G, products)])

    whole = permgroup.CosetSpace(np.zeros(G.order, dtype=np.int32), [0])
    outside = copy.copy(G)  # one more image row, past the elements
    bad_rows = [np.zeros(8, dtype=np.uint8),  # not a permutation
                (np.arange(8)[::-1] % 7).astype(np.uint8)]  # 0 twice, no 7
    for at, bad in zip((edge - 1, edge), bad_rows):
        seen = [0]  # elements mapped so far

        def leaves(x):
            out = conjugate(x)
            if seen[0] <= at < seen[0] + len(x):
                out[at - seen[0]] = bad
            seen[0] += len(x)
            return out

        with pytest.raises(BuildVerificationError,
                           match="^conjugation map: a row outside the group$"):
            permgroup._mapped(G, leaves, "conjugation map")
        # raised in the block that holds the bad row
        assert seen[0] == min((at // edge + 1) * edge, G.order)
        outside.images = np.vstack([G.images, bad])
        moved = elements.copy()
        moved[at] = G.order  # one product, g o rep_0 = g, is the bad row
        assert np.array_equal(coset_action(outside, whole, elements),
                              np.zeros((2 * edge, 1), dtype=np.int32))
        with pytest.raises(BuildVerificationError,
                           match="^coset action: a row outside the group$"):
            coset_action(outside, whole, moved)


def test_orbits_on_subsets_of_psu3_3_stay_small():
    # C(28, 7) = 1,184,040 subsets: int32 labels and ranks, subsets built
    # in lexicographic order, each image sorted in place
    rows = build_zoo_model("psu3:3").generator_action_rows
    tracemalloc.start()
    try:
        labels = orbits_on_subsets(rows, 28, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.dtype == np.int32 and len(labels) == math.comb(28, 7)
    assert (labels[labels] == labels).all()
    assert peak <= 48 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("spec", ["sym:4", "psl2:7", "pgl2:13"])
def test_member_lists_are_lazy_and_unchanged(spec):
    G, _ = build(spec)
    P = conjugacy_classes(G)
    # the partition keeps no member lists; readers build them on demand
    assert not hasattr(P, "classes")
    # the eager construction: a stable argsort of class_of, split by sizes
    members = np.argsort(P.class_of, kind="stable").astype(np.int32)
    expected = np.split(members, np.cumsum(np.bincount(P.class_of))[:-1])
    assert [c.dtype for c in class_members(P)] == [np.int32] * P.count
    assert [c.tolist() for c in class_members(P)] == \
        [c.tolist() for c in expected]
    assert P.sizes == [len(c) for c in expected]
    assert P.class_reps == [int(c[0]) for c in expected]
    assert P.class_of.dtype == np.int32
    assert all((P.class_of[c] == i).all() for i, c in enumerate(expected))


@pytest.mark.parametrize("spec", ZOO)
def test_rank_is_the_byte_sorted_position_on_the_zoo(spec):
    G, _ = build(spec)
    assert G.order == G.chain.order <= 10 ** 5
    assert np.array_equal(G.chain.rank(G.images), byte_positions(G.images))


@pytest.mark.parametrize("spec", ZOO)
def test_column_and_merge_cosets_agree_on_the_zoo(spec, monkeypatch):
    G, H_gens = build(spec)
    C = left_cosets(G, H_gens)
    # every zoo subgroup is the stabilizer of point 0
    assert _stabilized_point(G, generator_rows(G.degree, H_gens)) == 0
    action = coset_action(G, C, range(G.order))
    asked = []  # the merge path runs when no stabilized point is found
    monkeypatch.setattr(permgroup, "_stabilized_point",
                        lambda G, rows: asked.append(len(rows)))
    M = left_cosets(G, H_gens)
    assert asked == [len(generator_rows(G.degree, H_gens))]
    assert np.array_equal(C.coset_of, M.coset_of) and C.reps == M.reps
    assert np.array_equal(C.subgroup_elements, M.subgroup_elements)
    assert np.array_equal(action, coset_action(G, M, range(G.order)))


def test_column_path_only_for_a_whole_point_stabilizer():
    G = sym_group(4)
    # fixes 2 and 3, but is smaller than either stabilizer
    assert _stabilized_point(G, generator_rows(4, [(1, 0, 2, 3)])) is None
    H_gens = [(1, 0, 2, 3), (1, 2, 0, 3)]  # Stab(3)
    C = left_cosets(G, H_gens)
    assert _stabilized_point(G, generator_rows(4, H_gens)) == 3
    assert (C.n, C.h) == (4, 6)
    assert element_set(4, H_gens) == {
        row.tobytes() for row in G.images if row[3] == 3}


@pytest.mark.parametrize("level", range(4))
def test_truncated_chain_is_caught_by_the_closure(level, monkeypatch):
    # S5's basic orbits have 5, 4, 3 and 2 points; dropping one point from
    # any of them must make the closure raise, never return a smaller group
    class Truncated(permgroup.StabChain):
        def __init__(self, *args):
            super().__init__(*args)
            point, orbit = self.orbits[level]
            self.orbits[level] = (point, orbit[:-1])

    monkeypatch.setattr(permgroup, "StabChain", Truncated)
    with pytest.raises(BuildVerificationError):
        close_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


def test_truncated_chain_is_caught_in_a_batch_of_slots(monkeypatch):
    # sp4f2:+ has 15 generator slots, and every BFS level takes them in one
    # batch: the products that share a rank there are compared too
    degree, gens = _zoo_action(parse_zoo_spec("sp4f2:+"))
    levels = len(StabChain(degree, generator_rows(degree, gens)).orbits)
    for level in range(levels):
        class Truncated(StabChain):
            def __init__(self, *args):
                super().__init__(*args)
                point, orbit = self.orbits[level]
                self.orbits[level] = (point, orbit[:-1])

        monkeypatch.setattr(permgroup, "StabChain", Truncated)
        with pytest.raises(BuildVerificationError):
            close_generators(degree, gens)


def test_too_large_group_is_rejected_before_enumeration():
    # S12 has 479,001,600 elements; the chain passes the cap in milliseconds
    swap = (1, 0) + tuple(range(2, 12))
    cycle = tuple((i + 1) % 12 for i in range(12))
    started = time.monotonic()
    with pytest.raises(ElementCapExceeded, match=f"cap of {ELEMENT_CAP}"):
        close_generators(12, [swap, cycle])
    assert time.monotonic() - started < 1


def test_chain_order_must_match_a_derived_order():
    with pytest.raises(BuildVerificationError, match="order 100"):
        close_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], order=100)


def test_the_closure_of_sym9_holds_no_parents():
    # 362,880 elements: the closure records no BFS words, and the 2.8 MB of
    # int32 parents it used to hold peaked it at 8.9 MiB
    spec = parse_zoo_spec("sym:9")
    degree, gens = _zoo_action(spec)
    tracemalloc.start()
    try:
        G = close_generators(degree, gens, order=zoo_order(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = UnitaryGaloisModel(G, stabilizer_generators(G))
    assert (G.order, model.n, G.mult_table) == (362_880, 9, None)
    assert peak <= 7 * 2 ** 20, peak / 2 ** 20


def test_mult_table_is_every_product():
    # the table's own search reaches every element, and each entry is the
    # product looked up by its bytes
    _, degree, gens, _ = parse_spec(f"file:{FIXTURES / 's5_over_c2.json'}")
    groups = [build(spec)[0] for spec in
              ("sym:4", "dihedral:7", "psu3:2", "sp4f2:+")]
    for G in groups + [close_generators(degree, gens)]:
        index, d = bytes_index(G), G.degree
        expected = np.empty((G.order, G.order), dtype=np.uint16)
        for a in range(G.order):
            raw = G.images[a][G.images].tobytes()  # row b: a o b
            expected[a] = [index[raw[b * d:(b + 1) * d]]
                           for b in range(G.order)]
        assert np.array_equal(G.mult_table, expected)
        assert G.mult_table.dtype == np.uint16


def test_mult_table_of_a_non_generating_set_raises():
    # the transposition alone spans a group of order 2, not S4; the table
    # and the class-of-product table fill their rows over the same span
    G, H = build("sym:4")
    m = UnitaryGaloisModel(G, H)
    G.generators = [g for g in G.generators
                    if np.count_nonzero(G.images[g] != np.arange(4)) == 2]
    assert len(G.generators) == 1
    for read in (lambda: G.mult_table, lambda: m.product_class):
        with pytest.raises(BuildVerificationError,
                           match="generator product map: .* 2 of 24"):
            read()


@settings(max_examples=40, deadline=None)
@given(random_group())
def test_span_reaches_each_element_once_from_a_spanned_parent(G):
    # children[j] = g o parents[j] for the slot's generator g, each element
    # but the identity a child exactly once, after its parent
    assume(G.order <= permgroup.TABLE_CAP)  # the maps are uint16
    left = G.generator_maps(right=False)
    right = G.generator_maps(right=True)
    for maps in (left, right):
        assert maps.shape == (len(G.generators), G.order)
        assert maps.dtype == np.uint16
    index = bytes_index(G)
    for row, col, g in zip(left, right, G.generators):
        assert row.tolist() == [index[G.images[g][G.images[b]].tobytes()]
                                for b in range(G.order)]
        assert col.tolist() == [index[G.images[b][G.images[g]].tobytes()]
                                for b in range(G.order)]
    spanned = np.zeros(G.order, dtype=bool)
    spanned[0] = True
    step = max(1, permgroup.TAKE_ENTRIES // G.order)
    for slot, parents, children in G.span(left):
        assert 1 <= len(children) <= step
        assert spanned[parents].all() and not spanned[children].any()
        assert np.array_equal(children, left[slot][parents])
        spanned[children] = True
    assert spanned.all()


def random_words(degree, gen_rows, count, length=8, seed=0):
    """(count, degree) uint8 rows of random words of ``length`` generators."""
    rows = np.tile(np.arange(degree, dtype=np.uint8), (count, 1))
    if not len(gen_rows):
        return rows
    rng = np.random.default_rng(seed)
    for _ in range(length):
        picked = gen_rows[rng.integers(len(gen_rows), size=count)]
        rows = np.take_along_axis(picked, rows, axis=1)  # s o row
    return rows


def check_known_order_chain(degree, gen_rows, order):
    """A chain told |G| has the full chain's orbits and ranks, and its
    stabilizer generators generate Stab(0), of order |G| / |0^G|."""
    full = StabChain(degree, gen_rows)
    short = StabChain(degree, gen_rows, order=order)
    assert full.order == short.order == order
    # the same basic orbits, perhaps met in another order
    assert [(p, sorted(o.tolist())) for p, o in short.orbits] == \
        [(p, sorted(o.tolist())) for p, o in full.orbits]
    rows = random_words(degree, gen_rows, 64)
    assert np.array_equal(short.rank(rows), full.rank(rows))
    stabilizer = stabilizer_generators(types.SimpleNamespace(chain=short))
    orbit_of_0 = dict(full.orbits).get(0, [0])
    assert StabChain(degree, generator_rows(degree, stabilizer)).order == \
        order // len(orbit_of_0)


def test_known_order_chains_of_the_zoo():
    specs = [spec for spec in zoo_specs() if zoo_order(spec) <= 10 ** 6]
    assert len(specs) == 169
    for spec in specs:
        degree, gens = _zoo_action(parse_zoo_spec(spec))
        check_known_order_chain(degree, generator_rows(degree, gens),
                                zoo_order(spec))


@settings(max_examples=60, deadline=None)
@given(random_group())
def test_known_order_chains_of_random_groups(G):
    check_known_order_chain(G.degree, G.chain.generators, G.order)


@pytest.mark.parametrize("spec, partial", [("sym:4", 12), ("sp4f2:+", 360)])
def test_a_partial_order_stops_the_chain_and_the_closure_raises(spec, partial):
    # |G| is 24 and 720: the chain's orbit lengths multiply to the partial
    # order on the way, so it stops there.  Every product still ranks below
    # that order, and the closure's full-row compares catch the wrong chain
    degree, gens = _zoo_action(parse_zoo_spec(spec))
    rows = generator_rows(degree, gens)
    assert StabChain(degree, rows, order=partial).order == partial
    assert StabChain(degree, rows).order == 2 * partial
    with pytest.raises(BuildVerificationError):
        close_generators(degree, gens, order=partial)


def test_coset_numbers_are_narrow():
    for spec in ZOO:
        model = build_zoo_model(spec)
        assert model.cosets.coset_of.dtype == np.uint8, spec
        assert model.generator_action_rows.dtype == np.uint8, spec
    # S9 over S6 is no point stabilizer: 504 cosets on the merge path
    _, degree, gens, subgroup_gens = parse_spec(
        f"file:{FIXTURES / 's9_over_s6.json'}")
    model = UnitaryGaloisModel(close_generators(degree, gens), subgroup_gens)
    C = model.cosets
    assert C.coset_of.dtype == np.uint16 and (C.n, C.h) == (504, 720)
    # no number wraps: every coset has h elements, numbered by first
    # occurrence at its representative
    assert np.bincount(C.coset_of).tolist() == [720] * 504
    assert np.unique(C.coset_of, return_index=True)[1].tolist() == C.reps
    rows = model.generator_action_rows
    assert rows.dtype == np.uint16
    assert (np.sort(rows, axis=1) == np.arange(504)).all()
    G = model.group
    products = G.images[G.orbit_generators][:, G.images[C.reps]]
    assert np.array_equal(rows, C.coset_of.astype(np.int64)[
        lookup(G, products.reshape(-1, degree))].reshape(rows.shape))


def test_coset_numbers_past_65536_cosets():
    # S9 over <(0 1)(2 3)>, no point stabilizer: 181,440 cosets on the merge
    # path, numbered in uint32.  Each coset is {x, x o h}, numbered by its
    # smallest element, which is its representative
    _, degree, gens, subgroup_gens = parse_spec(
        f"file:{FIXTURES / 's9_over_c2.json'}")
    G = close_generators(degree, gens)
    (h,) = subgroup_gens
    C = left_cosets(G, subgroup_gens)
    assert C.coset_of.dtype == np.uint32
    assert (C.n, C.h) == (181_440, 2)
    partner = lookup(G, G.images[:, list(h)])  # x o h
    assert (partner >= 0).all() and (partner != np.arange(G.order)).all()
    first = np.minimum(np.arange(G.order), partner)
    reps = np.unique(first)
    assert C.reps == reps.tolist()
    assert np.array_equal(C.coset_of, np.searchsorted(reps, first))
    assert np.bincount(C.coset_of).tolist() == [2] * C.n
    assert C.subgroup_elements.tolist() == [0, index_of(G, h)]


def check_orbit_generators(G):
    """``orbit_generators`` generates G, is no longer than the input
    generators, is them when they are at most two, and is deterministic."""
    picked = G.orbit_generators
    assert StabChain(G.degree, G.images[picked]).order == G.order
    assert len(picked) <= len(G.generators)
    if len(G.generators) <= 2:
        assert picked == G.generators
    assert G._pick_orbit_generators() == picked


@pytest.mark.parametrize("spec", ZOO)
def test_orbit_generators_generate_the_zoo_groups(spec):
    G, _ = build(spec)
    check_orbit_generators(G)
    assert build(spec)[0].orbit_generators == G.orbit_generators


@settings(max_examples=60, deadline=None)
@given(random_group())
def test_orbit_generators_generate_random_groups(G):
    check_orbit_generators(G)


def test_orbit_generators_of_the_trivial_group():
    G = close_generators(4, [])
    assert G.generators == [] and G.orbit_generators == []
    model = UnitaryGaloisModel(G, [])
    assert [row.tolist() for row in model.generator_action_rows] == [[0]]


def test_orbit_generators_shrink_the_wide_zoo_groups():
    for spec in ("psu3:3", "pgl2:13", "psl2:13"):
        G, _ = build(spec)
        assert len(G.generators) >= 24 and len(G.orbit_generators) == 2


def test_orbit_generators_keep_an_input_that_cannot_shrink():
    # (0 1), (2 3), (4 5) generate (Z/2)^3: no two elements generate it
    gens = [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]
    G = close_generators(6, gens)
    assert G.order == 8 and G.orbit_generators == G.generators


def input_generator_partitions(spec, eps_max):
    """(picked, all inputs) pairs of class labels, orbit tables and
    certificates: the old merges over every input generator are the oracle."""
    model = build_zoo_model(spec)
    G = model.group
    results = []
    for gens in (G.orbit_generators, list(G.generators)):
        G.orbit_generators = gens
        model.generator_action_rows = coset_action(G, model.cosets, gens)
        table = orbit_table(model, eps_max)
        results.append((conjugacy_classes(G).class_of.tolist(),
                        table.to_dict(eps_max), certify(model, table).to_dict()))
    return results


@pytest.mark.parametrize("spec, eps_max", [
    ("psu3:3", 3), ("pgl2:13", 14), ("sp4f2:+", 10), ("sp4f2:-", 6),
    ("psu3:2", 9)])
def test_picked_merges_match_every_input_generator(spec, eps_max):
    picked, inputs = input_generator_partitions(spec, eps_max)
    assert picked == inputs


def test_orbit_generators_fall_back_on_the_input_generators(monkeypatch):
    G, _ = build("psu3:3")
    stabilizer = np.flatnonzero(G.images[:, 0] == 0).tolist()

    class SubgroupStream:
        """Stands in for ``random.Random``: every draw fixes point 0, so the
        draws lie in a proper subgroup of the transitive G."""

        def __init__(self, seed):
            self.draws = itertools.cycle(stabilizer)

        def randrange(self, stop):
            return next(self.draws)

    monkeypatch.setattr(permgroup, "random",
                        types.SimpleNamespace(Random=SubgroupStream))
    picked = G._pick_orbit_generators()
    assert StabChain(G.degree, G.images[picked]).order == G.order
    assert (G.images[picked, 0] != 0).any()  # an input generator was needed
    expected = conjugacy_classes(G).class_of
    G.orbit_generators = picked
    assert np.array_equal(conjugacy_classes(G).class_of, expected)


def group_layer(spec):
    """(degree, group generators, subgroup generators or None for the
    stabilizer of point 0) of a zoo spec or a ``file:`` fixture, unbuilt."""
    if spec.startswith("file:"):
        _, degree, gens, subgroup_gens = parse_spec(f"file:{FIXTURES / spec[5:]}")
        return degree, gens, subgroup_gens
    return (*_zoo_action(parse_zoo_spec(spec)), None)


def group_layer_outputs(spec):
    """Every array the group layer gathers with ``_take``, by name."""
    degree, gens, subgroup_gens = group_layer(spec)
    G = close_generators(degree, gens)
    if subgroup_gens is None:
        subgroup_gens = stabilizer_generators(G)
    out = {"images": G.images, "index_of_rank": G._index_of_rank,
           "inverses": G.inverses, "mult_table": G.mult_table}
    model = UnitaryGaloisModel(G, subgroup_gens)
    P = model.classes
    out["class_of"], out["class_reps"] = P.class_of, P.class_reps
    # the subgroup, then the cyclic subgroup of the first generator, which
    # is no point stabilizer here: the merge path, whatever the subgroup's
    for name, H in (("H", subgroup_gens),
                    ("cyclic", [G.images[G.generators[0]].tolist()])):
        C = model.cosets if name == "H" else left_cosets(G, H)
        column = _stabilized_point(G, generator_rows(degree, H)) is not None
        out[f"{name}_path"] = "column" if column else "merge"
        out[f"{name}_coset_of"], out[f"{name}_reps"] = C.coset_of, C.reps
    rows, n = model.generator_action_rows, model.n
    out["orbits"] = orbits_on_subsets(rows, n, 2)
    out["2-transitive"] = is_k_transitive(rows, n, 2)
    if n <= 10:  # n^3 tuples, each its own chunk at one entry a chunk
        out["3-transitive"] = is_k_transitive(rows, n, 3)
    out["L"], out["W"] = pair_tensor(model)
    out["row_sums"], out["column_sums"] = cm_engine._label_sums(out["L"],
                                                                out["W"])
    return out


@pytest.mark.parametrize("spec", ["sym:5", "psu3:2", "sp4f2:-",
                                  "file:s5_over_c2.json"])
def test_take_chunk_edges(spec, monkeypatch):
    # chunks of one and of three index entries and blocks of one and three
    # rows, then a chunk of one image row, give every array of the default
    # chunking: tuple digits, subset ranks, coset products and the label
    # counts of the pair tensor cross many chunk edges
    expected = group_layer_outputs(spec)
    degree = group_layer(spec)[0]
    for entries in (1, 3, degree):
        monkeypatch.setattr(permgroup, "TAKE_ENTRIES", entries)
        monkeypatch.setattr(cm_engine, "TAKE_ENTRIES", entries)
        monkeypatch.setattr(permgroup, "BLOCK_ROWS", entries)
        got = group_layer_outputs(spec)
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(got[name], value), (entries, name)
            assert np.asarray(got[name]).dtype == np.asarray(value).dtype
    paths = {expected["H_path"], expected["cyclic_path"]}
    assert paths == ({"merge"} if spec.startswith("file:")
                     else {"column", "merge"})


def test_close_and_model_of_psu3_3_stay_small():
    # |G| = 6,048 on 28 points.  The bound is 25% over the 936,902 bytes
    # the layer peaked at with fancy indexing; np.take on whole indices
    # (an intp copy of each, 8 bytes an entry) peaks at about 2.4 MB
    spec = parse_zoo_spec("psu3:3")
    degree, gens = _zoo_action(spec)
    tracemalloc.start()
    try:
        G = close_generators(degree, gens, order=zoo_order(spec))
        m = UnitaryGaloisModel(G, stabilizer_generators(G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.order, m.n) == (6048, 28)
    assert peak <= 1.25 * 936_902, peak


def test_k_transitive_of_s9_over_s6_stays_small():
    # n = 504: 254,016 ordered pairs, ranked in int32
    _, degree, gens, subgroup_gens = parse_spec(
        f"file:{FIXTURES / 's9_over_s6.json'}")
    m = UnitaryGaloisModel(close_generators(degree, gens), subgroup_gens)
    rows = m.generator_action_rows
    tracemalloc.start()
    try:
        result = is_k_transitive(rows, 504, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n == 504 and result == (False, 33)
    assert peak <= 10 * 2 ** 20, peak / 2 ** 20


@pytest.fixture(scope="module")
def s7_over_c2():
    """S7 over <(0 1)>: n = 2,520 cosets, so 6,350,400 ordered pairs of
    cosets, 3,173,940 2-subsets (under SUBSET_CAP) and n^2 coset products."""
    _, degree, gens, subgroup_gens = parse_spec(
        f"file:{FIXTURES / 's7_over_c2.json'}")
    return UnitaryGaloisModel(close_generators(degree, gens), subgroup_gens)


def traced_peak(call):
    """(the result of call(), its tracemalloc peak in MiB)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_k_transitive_of_s7_over_c2_stays_small(s7_over_c2):
    # the labels and one int32 map, 24.2 MiB each, with the digits and the
    # distinct-tuple roots a chunk at a time; full digit arrays, a full bool
    # and intp roots peaked at 206 MiB
    rows = s7_over_c2.generator_action_rows
    result, peak = traced_peak(lambda: is_k_transitive(rows, 2520, 2))
    assert result == (False, 1319)
    assert peak <= 56, peak


def test_orbits_on_subsets_of_s7_over_c2_stay_small(s7_over_c2):
    # the uint16 subsets, the labels and one int32 map, 12.1 MiB each; a
    # full image of every subset before its ranks peaked at 48.7 MiB
    rows = s7_over_c2.generator_action_rows
    labels, peak = traced_peak(lambda: orbits_on_subsets(rows, 2520, 2))
    assert len(labels) == math.comb(2520, 2)
    assert np.count_nonzero(labels == np.arange(len(labels))) == 717
    assert peak <= 40, peak


def test_coset_action_of_s7_over_c2_stays_small(s7_over_c2):
    # the n^2 products pair_tensor looks up: the uint16 output, 12.1 MiB, and
    # block-sized products; every product at once peaked at 164 MiB
    G, C = s7_over_c2.group, s7_over_c2.cosets
    inverses = G.index_elements(np.argsort(G.images[C.reps], axis=1),
                                "inverses of the coset representatives")
    J, peak = traced_peak(lambda: coset_action(G, C, inverses))
    assert J.shape == (2520, 2520) and J.dtype == np.uint16
    # sigma_j^-1 sigma_i lies in H exactly when i = j
    assert np.array_equal(np.flatnonzero(J == 0), np.arange(2520) * 2521)
    assert peak <= 14, peak


@pytest.mark.parametrize("read, name", [
    (lambda m: m.group.inverses, "inverse map"),
    (lambda m: m.group.mult_table, "generator product map"),
    (lambda m: m.product_class, "generator right product map"),
    (lambda m: conjugacy_classes(m.group), "conjugation map"),
    (lambda m: left_cosets(m.group, [(1, 0, 3, 2)]),
     "right multiplication by a subgroup generator"),
    (lambda m: coset_action(m.group, m.cosets, range(m.group.order)),
     "coset action"),
    (lambda m: pair_tensor(m), "inverses of the coset representatives"),
])
def test_a_map_that_leaves_the_group_raises(monkeypatch, read, name):
    # a -1 for a row outside the group, used as an index, would read the
    # last element: merge_labels(arange(5), [1, 0, -1, 3, 4]) merges 2 with 4
    assert permgroup.merge_labels(
        np.arange(5), np.array([1, 0, -1, 3, 4])).tolist() == [0, 0, 2, 3, 2]
    m = build_zoo_model("sym:4")
    assert not {"inverses", "mult_table"} & set(vars(m.group))
    lookup = permgroup.FiniteGroup._lookup

    def last_row_leaves(self, rows):
        # every map reads at least n = 4 rows; left_cosets sifts its
        # subgroup generator through the chain and reads none here.  A zero
        # row is no permutation
        rows = np.array(rows)
        if len(rows) >= 4:
            rows[-1] = 0
        return lookup(self, rows)

    monkeypatch.setattr(permgroup.FiniteGroup, "_lookup", last_row_leaves)
    with pytest.raises(BuildVerificationError,
                       match=f"^{name}: a row outside the group$"):
        read(m)
