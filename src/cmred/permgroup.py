"""Finite permutation groups by exhaustive enumeration.

Permutations are image tuples on points 0..degree-1.  Groups are closed from
generators by breadth-first search; the element list is deterministic (BFS
level order, lexicographic tie-break within a level, identity first), so every
downstream report is byte-reproducible.  Hot loops run on integer numpy
arrays; all results are exact.

Elements are found by one vectorised lookup (``FiniteGroup.index_rows``).
Each element's key packs its images at a base, found greedily from the
enumerated rows; a base determines the element, so the keys are distinct.
The keys are kept sorted next to one int32 array from sorted position to
element index, a block of image rows is looked up with one
``np.searchsorted``, and a row outside the group is caught by comparing the
full row and reported as -1.

Partitions are int64 label arrays: ``labels[x]`` is the smallest item of x's
class, and ``merge_labels`` merges x with ``image[x]`` for every x by hooking
each root onto the smaller root and pointer jumping.  Left cosets are the
classes of x ~ x o s for the generators s of H, conjugacy classes those of
x ~ s o x o s^-1 for the generators s of G, and orbits on ordered k-tuples
and on subsets those of a tuple or a subset and its image under a generator.

Orbits on size-eps subsets of the n points are indexed by lexicographic rank
(``itertools.combinations`` order): ``labels[r]`` is the rank of the smallest
member of the orbit of subset r, so the canonical representative of an orbit
is its minimum rank.  Each generator's image of every subset is ranked once
and dropped before the next, so memory stays at a few arrays of C(n, eps)
entries; the only size limit is ``SUBSET_CAP``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ElementCapExceeded, SubgroupNotContained, SubsetCapExceeded

ELEMENT_CAP = 2_000_000
TABLE_CAP = 4_096
MAX_DEGREE = 255  # image rows are uint8
SUBSET_CAP = 5_000_000

Permutation = tuple  # image tuple: p[i] = image of point i


def identity_perm(degree: int) -> Permutation:
    return tuple(range(degree))


def is_permutation(images: Sequence[int], degree: int) -> bool:
    return len(images) == degree and sorted(images) == list(range(degree))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: (p o q)[i] = p[q[i]]."""
    return tuple(p[j] for j in q)


def inverse_perm(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _greedy_base(images: np.ndarray) -> list[int]:
    """Points b_1, b_2, ... each moved by the pointwise stabilizer of the
    points before it, until that stabilizer is trivial."""
    stab = np.ones(images.shape[0], dtype=bool)
    base = []
    for p in range(images.shape[1]):
        fixes = images[:, p] == p
        if not fixes[stab].all():
            base.append(p)
            stab &= fixes
    return base


def _key_plan(images: np.ndarray, bits: int):
    """The plan ``_pack`` follows for this group, and every element's key.

    The points are a greedy base, so the keys are distinct.  Before a point
    would take the key past 63 bits, the plan re-ranks the key so far among
    the elements' keys so far (``bits`` <= 8 and a rank is below |G|, far
    under 2**55, so a re-ranked key always has room for the next point).
    """
    plan = []
    key = np.zeros(images.shape[0], dtype=np.int64)
    width = 0
    for point in _greedy_base(images):
        table = None
        if width + bits > 63:
            table = np.unique(key)
            key = np.searchsorted(table, key)
            width = (len(table) - 1).bit_length()
        key = (key << bits) | images[:, point]
        width += bits
        plan.append((point, table))
    return plan, key


def _pack(rows: np.ndarray, plan, bits: int) -> np.ndarray:
    """int64 key of each row: its images at the plan's points, ``bits`` each.
    A plan entry with a table first replaces the key so far by its rank among
    the group's keys so far, so that the key never outgrows 63 bits."""
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for point, table in plan:
        if table is not None:
            key = np.searchsorted(table, key)
        key <<= bits
        key |= rows[:, point]
    return key


class FiniteGroup:
    """Enumerated permutation group; element 0 is the identity.

    The element list order is the BFS order from the generators with
    lexicographic tie-break, so indices are stable across runs.
    """

    def __init__(self, degree, images, parents, levels, gen_rows):
        self.degree = int(degree)
        self.images = images  # (order, degree) uint8
        self.order = int(images.shape[0])
        self._parents = parents  # (order, 2) int32: [generator slot, parent index]
        self._levels = levels  # BFS level boundaries, levels[k]:levels[k+1]
        self._key_bits = max(1, (self.degree - 1).bit_length())
        self._key_plan, key = _key_plan(images, self._key_bits)
        self._key_order = np.argsort(key, kind="stable").astype(np.int32)
        self._sorted_keys = key[self._key_order]
        # element indices of the input generators, one per BFS generator slot
        self.generators = self.index_rows(gen_rows).tolist()
        self._inverses = None
        self._mult_table = None

    def index_rows(self, rows) -> np.ndarray:
        """Element index of each row of an (m, degree) block of image rows,
        -1 for a row that is not in the group."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise ValueError(f"need rows of length {self.degree}, "
                             f"got shape {rows.shape}")
        key = _pack(rows, self._key_plan, self._key_bits)
        pos = np.minimum(np.searchsorted(self._sorted_keys, key), self.order - 1)
        idx = self._key_order[pos]
        hit = self._sorted_keys[pos] == key
        hit &= (self.images[idx] == rows).all(axis=1)
        return np.where(hit, idx, -1)

    def perm(self, i: int) -> Permutation:
        return tuple(int(x) for x in self.images[i])

    def index_of(self, p: Permutation) -> int:
        """Element index of an image tuple; KeyError if not in the group."""
        row = np.asarray(p)
        if row.shape == (self.degree,):
            i = int(self.index_rows(row[None])[0])
            if i >= 0:
                return i
        raise KeyError(p)

    def __contains__(self, p) -> bool:
        try:
            self.index_of(p)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def __len__(self) -> int:
        return self.order

    @property
    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            inv_img = np.empty_like(self.images)
            np.put_along_axis(
                inv_img, self.images,
                np.broadcast_to(np.arange(self.degree, dtype=np.uint8),
                                self.images.shape),
                axis=1)
            self._inverses = self.index_rows(inv_img).astype(np.int32)
        return self._inverses

    @property
    def mult_table(self):
        """Dense table mul[a, b] = index(a o b); only for order <= TABLE_CAP."""
        if self._mult_table is None and self.order <= TABLE_CAP:
            self._mult_table = self._build_mult_table()
        return self._mult_table

    def _build_mult_table(self) -> np.ndarray:
        # Left-regular rows extend along BFS words: L_{g o p} = L_g[L_p].
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n, dtype=np.int32)
        gen_rows = [self.index_rows(self.images[g][self.images])  # g o b
                    for g in self.generators]
        for e in range(1, n):
            slot, parent = self._parents[e]
            table[e] = gen_rows[slot][table[parent]]
        return table

    def mul(self, a: int, b: int) -> int:
        t = self.mult_table
        if t is not None:
            return int(t[a, b])
        return int(self.index_rows(self.images[a][self.images[b]][None])[0])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])


def close_generators(degree: int, gens: Iterable[Sequence[int]],
                     cap: int = ELEMENT_CAP) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on points 0..degree-1.

    Level by level: each generator slot maps the whole frontier at once, the
    images not yet known are kept in (slot, frontier position) order, and
    ``np.unique`` sorts them by bytes and keeps each one's first parent.
    The elements found so far are a sorted array of fixed-width row keys
    (each row's bytes as one numpy void value), searched with
    ``np.searchsorted``; the base of the final index is not known until the
    closure is done.  Raises ElementCapExceeded if the closure would exceed
    ``cap``.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    gen_list = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if not is_permutation(t, degree):
            raise ValueError(f"not a permutation of degree {degree}: {t}")
        if t not in gen_list:
            gen_list.append(t)
    gen_rows = np.array(gen_list, dtype=np.uint8).reshape(-1, degree)

    row_key = np.dtype((np.void, degree))
    blocks = [np.arange(degree, dtype=np.uint8)[None]]
    parents = [np.array([[-1, -1]], dtype=np.int32)]
    levels = [0, 1]
    known = blocks[0].view(row_key).ravel()  # sorted keys of every element
    while levels[-1] > levels[-2]:
        frontier = blocks[-1]
        # empty heads keep the concatenations defined without generators
        fresh = [known[:0]]
        slots, origins = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
        for slot, grow in enumerate(gen_rows):
            prod = grow[frontier].view(row_key).ravel()  # gen o x
            pos = np.minimum(np.searchsorted(known, prod), len(known) - 1)
            new = np.flatnonzero(known[pos] != prod)
            fresh.append(prod[new])
            slots.append(np.full(len(new), slot, dtype=np.int32))
            origins.append((new + levels[-2]).astype(np.int32))
        level, first = np.unique(np.concatenate(fresh), return_index=True)
        if levels[-1] + len(level) > cap:
            raise ElementCapExceeded(
                f"group closure exceeds cap of {cap} elements")
        blocks.append(level.view(np.uint8).reshape(-1, degree))
        parents.append(np.stack([np.concatenate(slots)[first],
                                 np.concatenate(origins)[first]], axis=1))
        known = np.insert(known, np.searchsorted(known, level), level)
        levels.append(levels[-1] + len(level))
    levels.pop()  # the last level found nothing new

    return FiniteGroup(degree, np.concatenate(blocks), np.concatenate(parents),
                       levels, gen_rows)


def merge_labels(labels: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Merge the class of every x with the class of ``image[x]``.

    ``labels`` must name roots (``labels[labels] == labels``), each the
    smallest item of its class.  Each round hooks every root onto the smaller
    root across every unmerged edge (a scatter-min both ways) and then jumps
    pointers, until both ends of every edge share a root.
    """
    while True:
        ends = labels[image]
        moved = ends != labels
        if not moved.any():
            return labels
        tail, head = labels[moved], ends[moved]
        np.minimum.at(labels, tail, head)
        np.minimum.at(labels, head, tail)
        labels = _compress(labels)


def _compress(labels: np.ndarray) -> np.ndarray:
    """Pointer jumping until every entry names its root."""
    while True:
        hop = labels[labels]
        if np.array_equal(hop, labels):
            return labels
        labels = hop


def _partition(labels: np.ndarray):
    """(class of each item, smallest item per class, sorted member lists),
    classes ordered by their smallest item."""
    reps, class_of, sizes = np.unique(labels, return_inverse=True,
                                      return_counts=True)
    members = np.argsort(class_of, kind="stable")
    blocks = np.split(members, np.cumsum(sizes)[:-1])
    return (class_of.astype(np.int32), reps.tolist(),
            [b.tolist() for b in blocks])


class CosetSpace:
    """Left cosets gH of a subgroup H, with fixed representatives.

    Coset 0 is H itself with the identity as representative; the remaining
    cosets are ordered by their minimal element index (which is also the
    representative).
    """

    def __init__(self, group, subgroup_elements, coset_of, reps, cosets):
        self.group = group
        self.subgroup_elements = subgroup_elements  # sorted element indices of H
        self.coset_of = coset_of  # (order,) int32: element index -> coset index
        self.reps = reps  # representative element index per coset
        self.cosets = cosets  # list of sorted element-index lists
        self.h = len(subgroup_elements)
        self.n = len(reps)


def left_cosets(G: FiniteGroup, H_gens: Iterable[Sequence[int]]) -> CosetSpace:
    """Partition G into left cosets of the subgroup generated by ``H_gens``:
    the classes of x ~ x o s over the generators s.

    Raises SubgroupNotContained if a generator is outside G (then so is the
    subgroup; otherwise all of it lies in G).
    """
    gens = []
    for g in H_gens:
        t = tuple(int(x) for x in g)
        if not is_permutation(t, G.degree):
            raise ValueError(f"not a permutation of degree {G.degree}: {t}")
        gens.append(t)
    rows = np.array(gens, dtype=np.uint8).reshape(-1, G.degree)
    missing = G.index_rows(rows) < 0
    if missing.any():
        raise SubgroupNotContained(
            f"subgroup element {min(map(tuple, rows[missing].tolist()))} "
            f"is not in the group")
    labels = np.arange(G.order, dtype=np.int64)
    for s in rows:
        labels = merge_labels(labels, G.index_rows(G.images[:, s]))
    coset_of, reps, cosets = _partition(labels)
    return CosetSpace(G, cosets[0], coset_of, reps, cosets)


class ConjugacyPartition:
    """Partition of a group into conjugacy classes."""

    def __init__(self, class_of, class_reps, classes):
        self.class_of = class_of  # (order,) int32
        self.class_reps = class_reps  # minimal element index per class
        self.classes = classes  # list of sorted element-index lists
        self.sizes = [len(c) for c in classes]

    @property
    def count(self) -> int:
        return len(self.class_reps)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyPartition:
    """Exact classes: the orbits of conjugation x -> s o x o s^-1 by the
    generators s of G."""
    labels = np.arange(G.order, dtype=np.int64)
    for g in G.generators:
        s = G.images[g]
        conj = s[G.images[:, np.argsort(s)]]  # rows: s o x o s^-1
        labels = merge_labels(labels, G.index_rows(conj))
    return ConjugacyPartition(*_partition(labels))


def coset_action(G: FiniteGroup, C: CosetSpace) -> np.ndarray:
    """Action table on cosets: row g maps i to the coset of g o rep_i.

    The table is a group homomorphism; rows for non-generators extend the
    generator rows along the BFS parent words.
    """
    n = C.n
    dtype = np.min_scalar_type(n - 1)  # coset indices never wrap
    rows = np.empty((G.order, n), dtype=dtype)
    rows[0] = np.arange(n, dtype=dtype)
    rep_rows = G.images[np.asarray(C.reps, dtype=np.int64)]
    gen_action = np.array(
        [C.coset_of[G.index_rows(G.images[g][rep_rows])]  # g o rep_i
         for g in G.generators], dtype=dtype).reshape(-1, n)
    for start, stop in zip(G._levels[1:], G._levels[2:]):
        lev = np.arange(start, stop)
        slots = G._parents[lev, 0]
        par = G._parents[lev, 1]
        rows[lev] = np.take_along_axis(gen_action[slots], rows[par], axis=1)
    return rows


def is_k_transitive(action_rows, n: int, k: int) -> tuple[bool, int]:
    """Whether the action is k-transitive, plus the orbit count on ordered
    k-tuples of distinct points.

    ``action_rows`` may be any family of action permutations whose closure is
    the acting group (the generator rows suffice; the full table also works).
    Every ordered k-tuple is ranked in mixed radix n, and each row's image of
    the n**k ranks is merged into the labels before the next row's is built.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    labels = np.arange(n ** k, dtype=np.int64)
    digits = [labels // n ** (k - 1 - i) % n for i in range(k)]
    for row in action_rows:
        row = np.asarray(row, dtype=np.int64)
        image = np.zeros(n ** k, dtype=np.int64)
        for d in digits:
            image = image * n + row[d]
        labels = merge_labels(labels, image)
    distinct = np.ones(n ** k, dtype=bool)
    for a, b in itertools.combinations(digits, 2):
        distinct &= a != b
    # an orbit of distinct tuples is labelled by its smallest member, itself
    # a tuple of distinct points
    roots = np.flatnonzero(distinct)
    orbit_count = int(np.count_nonzero(labels[roots] == roots))
    return (orbit_count == 1, orbit_count)


def check_subset_cap(n: int, eps: int, cap: int = SUBSET_CAP) -> None:
    """Raise SubsetCapExceeded unless the size-``eps`` subsets of n points
    number at most ``cap``."""
    if not 0 <= eps <= n:
        raise ValueError(f"need 0 <= eps <= n, got eps={eps}, n={n}")
    if math.comb(n, eps) > cap:
        raise SubsetCapExceeded(
            f"C({n},{eps}) = {math.comb(n, eps)} exceeds cap {cap}")


def _lex_weights(n: int, eps: int) -> np.ndarray:
    """(eps, n) int64 table: entry (i, a) is C(n - 1 - a, eps - i), capped at
    C(n, eps) so that it fits in int64.  No subset's rank uses an entry over
    C(n, eps), so the cap changes no rank."""
    total = math.comb(n, eps)
    return np.array([[min(math.comb(n - 1 - a, eps - i), total)
                      for a in range(n)] for i in range(eps)],
                    dtype=np.int64).reshape(eps, n)


def lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Rank of each sorted row among the size-eps subsets of n points, in
    ``itertools.combinations`` (lexicographic) order.

    The weight of a_i counts the subsets that agree before position i and
    exceed a_i there (the combinatorial number system on n - 1 - a).
    """
    count, eps = subsets.shape
    weights = _lex_weights(n, eps)
    ranks = np.full(count, math.comb(n, eps) - 1, dtype=np.int64)
    for i in range(eps):
        ranks -= weights[i][subsets[:, i]]
    return ranks


def lex_unrank(ranks, n: int, eps: int) -> np.ndarray:
    """Inverse of ``lex_rank``: the sorted subsets of the given ranks, as a
    (len(ranks), eps) array of point indices."""
    weights = _lex_weights(n, eps)
    rest = math.comb(n, eps) - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((rest.shape[0], eps), dtype=np.min_scalar_type(n - 1))
    for i in range(eps):
        # the smallest point whose weight fits; weights fall along a row
        a = np.searchsorted(-weights[i], -rest, side="left")
        rest -= weights[i][a]
        out[:, i] = a
    return out


def orbits_on_subsets(action_rows, n: int, eps: int,
                      cap: int = SUBSET_CAP) -> np.ndarray:
    """Orbit labels of the action on the size-``eps`` subsets of n points.

    Subsets are numbered by their lexicographic rank (``lex_rank``), and
    ``labels[r]`` is the rank of the smallest member of the orbit of subset r.
    The distinct labels in increasing order are therefore the canonical
    (lexicographically smallest) orbit representatives in report order, and
    their multiplicities are the orbit sizes.

    One pass per row of ``action_rows``: the row maps every subset, the image
    is sorted and ranked, and ``merge_labels`` merges it into the labels.
    Only one row's image (an int64 rank per subset) is held at a time.
    """
    check_subset_cap(n, eps, cap)
    subsets = lex_unrank(np.arange(math.comb(n, eps)), n, eps)
    labels = np.arange(subsets.shape[0], dtype=np.int64)
    for row in action_rows:
        labels = merge_labels(
            labels, lex_rank(np.sort(np.asarray(row)[subsets], axis=1), n))
    return labels


def stabilizer_generators(G: FiniteGroup, point: int = 0) -> list[Permutation]:
    """A small deterministic generating set for the stabilizer of a point.

    Takes the first stabilizer element (in element order) outside the
    subgroup generated so far, until that subgroup is the whole stabilizer;
    every new generator at least doubles it.
    """
    fixed = np.flatnonzero(G.images[:, point] == point)
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    gens: list[int] = []
    while True:
        outside = fixed[~inside[fixed]]
        if not len(outside):
            return [G.perm(i) for i in gens]
        gens.append(int(outside[0]))
        inside[G.index_rows(close_generators(G.degree, G.images[gens]).images)] = True
