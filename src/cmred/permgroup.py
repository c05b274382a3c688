"""Finite permutation groups by exhaustive enumeration.

Permutations are image tuples on points 0..degree-1.  Groups are closed from
generators by breadth-first search; the element list is deterministic (BFS
level order, lexicographic tie-break within a level, identity first), so every
downstream report is byte-reproducible.  Hot loops run on integer numpy
arrays; all results are exact.

Orbits on size-eps subsets of the n points are int64 label arrays indexed by
lexicographic rank (``itertools.combinations`` order): ``labels[r]`` is the
rank of the smallest member of the orbit of subset r, so the canonical
representative of an orbit is its minimum rank.  Each generator's image of
every subset is ranked once and dropped before the next, so memory stays at
a few arrays of C(n, eps) entries; the only size limit is ``SUBSET_CAP``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ElementCapExceeded, SubgroupNotContained, SubsetCapExceeded

ELEMENT_CAP = 2_000_000
TABLE_CAP = 4_096
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


class FiniteGroup:
    """Enumerated permutation group; element 0 is the identity.

    The element list order is the BFS order from the generators with
    lexicographic tie-break, so indices are stable across runs.
    """

    def __init__(self, degree, images, generators, parents, levels):
        self.degree = int(degree)
        self.images = images  # (order, degree) uint8
        self.order = int(images.shape[0])
        self.generators = generators  # element indices of the input generators
        self._parents = parents  # (order, 2) int32: [generator slot, parent index]
        self._levels = levels  # BFS level boundaries, levels[k]:levels[k+1]
        buf = images.tobytes()
        d = self.degree
        self._index = {buf[i * d:(i + 1) * d]: i for i in range(self.order)}
        self._bfs_gens = list(generators)
        self._inverses = None
        self._inverse_images = None
        self._mult_table = None

    def perm(self, i: int) -> Permutation:
        return tuple(int(x) for x in self.images[i])

    def index_of(self, p: Permutation) -> int:
        """Element index of an image tuple; KeyError if not in the group."""
        return self._index[bytes(p)]

    def __contains__(self, p) -> bool:
        try:
            return bytes(p) in self._index
        except (TypeError, ValueError):
            return False

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
            buf = inv_img.tobytes()
            d = self.degree
            self._inverses = np.fromiter(
                (self._index[buf[i * d:(i + 1) * d]] for i in range(self.order)),
                dtype=np.int32, count=self.order)
            self._inverse_images = inv_img
        return self._inverses

    @property
    def inverse_images(self) -> np.ndarray:
        if self._inverse_images is None:
            _ = self.inverses
        return self._inverse_images

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
        gen_rows = {}
        buf_d = self.degree
        for slot, g in enumerate(self._gen_elements):
            row = self.images[g][self.images]  # (n, degree): g o b for all b
            raw = row.tobytes()
            gen_rows[slot] = np.fromiter(
                (self._index[raw[i * buf_d:(i + 1) * buf_d]] for i in range(n)),
                dtype=np.int32, count=n)
        for start, stop in zip(self._levels, self._levels[1:]):
            if start == 0:
                start = 1
            if start >= stop:
                continue
            for e in range(start, stop):
                slot, parent = self._parents[e]
                table[e] = gen_rows[slot][table[parent]]
        return table

    @property
    def _gen_elements(self):
        """Element indices of the BFS generator slots (deduplicated input)."""
        return self._bfs_gens

    def mul(self, a: int, b: int) -> int:
        t = self.mult_table
        if t is not None:
            return int(t[a, b])
        row = self.images[a][self.images[b]]
        return self._index[row.tobytes()]

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conjugate(self, x: int, g: int) -> int:
        """Index of x o g o x^-1."""
        return self.mul(self.mul(x, g), self.inv(x))


def close_generators(degree: int, gens: Iterable[Sequence[int]],
                     cap: int = ELEMENT_CAP) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on points 0..degree-1.

    Raises ElementCapExceeded if the closure would exceed ``cap``.
    """
    if not 1 <= degree <= 255:
        raise ValueError(f"degree must be in 1..255, got {degree}")
    gen_list = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if not is_permutation(t, degree):
            raise ValueError(f"not a permutation of degree {degree}: {t}")
        if t not in gen_list:
            gen_list.append(t)
    gen_rows = [np.array(g, dtype=np.uint8) for g in gen_list]

    ident = np.arange(degree, dtype=np.uint8)
    index = {ident.tobytes(): 0}
    rows = [ident]
    parents = [(-1, -1)]
    levels = [0, 1]
    frontier = [0]
    while frontier:
        block = np.array([rows[i] for i in frontier], dtype=np.uint8)
        discovered = {}
        for slot, grow in enumerate(gen_rows):
            prod = grow[block]  # rows: gen o x for x in frontier
            raw = prod.tobytes()
            for k, parent in enumerate(frontier):
                key = raw[k * degree:(k + 1) * degree]
                if key not in index and key not in discovered:
                    discovered[key] = (slot, parent)
        frontier = []
        for key in sorted(discovered):
            if len(rows) >= cap:
                raise ElementCapExceeded(
                    f"group closure exceeds cap of {cap} elements")
            idx = len(rows)
            index[key] = idx
            rows.append(np.frombuffer(key, dtype=np.uint8))
            parents.append(discovered[key])
            frontier.append(idx)
        levels.append(len(rows))
    if levels[-1] == levels[-2]:
        levels.pop()

    images = np.vstack(rows) if rows else np.empty((0, degree), np.uint8)
    return FiniteGroup(degree, images,
                       generators=[index[np.array(g, np.uint8).tobytes()]
                                   for g in gen_list],
                       parents=np.array(parents, dtype=np.int32).reshape(-1, 2),
                       levels=levels)


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
    """Partition G into left cosets of the subgroup generated by ``H_gens``.

    Raises SubgroupNotContained if a generated subgroup element is
    outside G.
    """
    try:
        H = close_generators(G.degree, H_gens, cap=G.order + 1)
    except ElementCapExceeded:
        raise SubgroupNotContained(
            "subgroup generators close to more elements than the group holds")
    h_indices = []
    for i in range(H.order):
        p = H.images[i].tobytes()
        if p not in G._index:
            raise SubgroupNotContained(
                f"subgroup element {tuple(H.images[i])} is not in the group")
        h_indices.append(G._index[p])
    h_indices.sort()
    h_block = G.images[np.array(h_indices, dtype=np.int32)]  # (h, degree)

    order, d = G.order, G.degree
    coset_of = np.full(order, -1, dtype=np.int32)
    reps, cosets = [], []
    for g in range(order):
        if coset_of[g] >= 0:
            continue
        prod = G.images[g][h_block]  # rows: g o eta for eta in H
        raw = prod.tobytes()
        members = sorted(G._index[raw[k * d:(k + 1) * d]]
                         for k in range(len(h_indices)))
        c = len(reps)
        coset_of[np.array(members, dtype=np.int64)] = c
        reps.append(g)
        cosets.append(members)
    return CosetSpace(G, h_indices, coset_of, reps, cosets)


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
    """Exact classes by brute-force conjugation over all of G."""
    order, d = G.order, G.degree
    einv = G.inverse_images
    class_of = np.full(order, -1, dtype=np.int32)
    reps, classes = [], []
    void = np.dtype((np.void, d))
    for r in range(order):
        if class_of[r] >= 0:
            continue
        xr = G.images[:, G.images[r]]  # rows: x o r for all x
        conj = np.take_along_axis(xr, einv, axis=1)  # rows: x o r o x^-1
        uniq = np.unique(np.ascontiguousarray(conj).view(void).ravel())
        members = sorted(G._index[u.tobytes()] for u in uniq)
        c = len(reps)
        class_of[np.array(members, dtype=np.int64)] = c
        reps.append(r)
        classes.append(members)
    return ConjugacyPartition(class_of, reps, classes)


def coset_action(G: FiniteGroup, C: CosetSpace) -> np.ndarray:
    """Action table on cosets: row g maps i to the coset of g o rep_i.

    The table is a group homomorphism; rows for non-generators extend the
    generator rows along the BFS parent words.
    """
    n = C.n
    dtype = np.min_scalar_type(n - 1)  # coset indices never wrap
    rows = np.empty((G.order, n), dtype=dtype)
    rows[0] = np.arange(n, dtype=dtype)
    gen_action = {}
    for slot, g in enumerate(G._gen_elements):
        gen_action[slot] = np.array(
            [C.coset_of[G.mul(g, C.reps[i])] for i in range(n)], dtype=dtype)
    for start, stop in zip(G._levels, G._levels[1:]):
        if start == 0:
            start = 1
        if start >= stop:
            continue
        lev = np.arange(start, stop)
        slots = G._parents[lev, 0]
        par = G._parents[lev, 1]
        gen_rows = np.array([gen_action[s] for s in slots], dtype=dtype)
        rows[lev] = np.take_along_axis(gen_rows, rows[par], axis=1)
    return rows


def is_k_transitive(action_rows, n: int, k: int) -> tuple[bool, int]:
    """Whether the action is k-transitive, plus the orbit count on ordered
    k-tuples of distinct points.

    ``action_rows`` may be any family of action permutations whose closure is
    the acting group (the generator rows suffice; the full table also works).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rows = [tuple(int(x) for x in r) for r in action_rows]
    seen = set()
    orbit_count = 0
    first_orbit_size = None
    for start in itertools.permutations(range(n), k):
        if start in seen:
            continue
        orbit_count += 1
        queue = [start]
        seen.add(start)
        size = 0
        while queue:
            t = queue.pop()
            size += 1
            for row in rows:
                img = tuple(row[p] for p in t)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        if first_orbit_size is None:
            first_orbit_size = size
    full = math.perm(n, k)
    return (first_orbit_size == full, orbit_count)


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


def _compress(labels: np.ndarray) -> np.ndarray:
    """Pointer jumping until every entry names its root."""
    while True:
        hop = labels[labels]
        if np.array_equal(hop, labels):
            return labels
        labels = hop


def orbits_on_subsets(action_rows, n: int, eps: int,
                      cap: int = SUBSET_CAP) -> np.ndarray:
    """Orbit labels of the action on the size-``eps`` subsets of n points.

    Subsets are numbered by their lexicographic rank (``lex_rank``), and
    ``labels[r]`` is the rank of the smallest member of the orbit of subset r.
    The distinct labels in increasing order are therefore the canonical
    (lexicographically smallest) orbit representatives in report order, and
    their multiplicities are the orbit sizes.

    One pass per row of ``action_rows``: the row maps every subset, the image
    is sorted and ranked, and the image is merged into the labels by hooking
    each root onto the smaller root across every edge (a scatter-min) followed
    by pointer jumping, until both ends of every edge share a root.  Only one
    row's image (an int64 rank per subset) is held at a time.
    """
    check_subset_cap(n, eps, cap)
    subsets = lex_unrank(np.arange(math.comb(n, eps)), n, eps)
    labels = np.arange(subsets.shape[0], dtype=np.int64)
    for row in action_rows:
        image = lex_rank(np.sort(np.asarray(row)[subsets], axis=1), n)
        while True:
            ends = labels[image]
            moved = ends != labels
            if not moved.any():
                break
            tail, head = labels[moved], ends[moved]
            np.minimum.at(labels, tail, head)
            np.minimum.at(labels, head, tail)
            labels = _compress(labels)
        del image  # freed before the next row's image is built
    return labels


def stabilizer_generators(G: FiniteGroup, point: int = 0) -> list[Permutation]:
    """A small deterministic generating set for the stabilizer of a point.

    Scans the full stabilizer in element order and keeps each element not yet
    generated; every new generator at least doubles the closure.
    """
    fixed = [int(i) for i in np.nonzero(G.images[:, point] == point)[0]]
    target = len(fixed)
    gens: list[int] = []
    closure = {0}
    for idx in fixed:
        if len(closure) == target:
            break
        if idx in gens or idx in closure:
            continue
        gens.append(idx)
        closure = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = G.mul(g, x)
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
    return [G.perm(i) for i in gens]
