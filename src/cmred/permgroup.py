"""Finite permutation groups by exhaustive enumeration.

Permutations are image tuples on points 0..degree-1.  Groups are closed from
generators by breadth-first search; the element list is deterministic (BFS
level order, lexicographic tie-break within a level, identity first), so every
downstream report is byte-reproducible.  Hot loops run on integer numpy
arrays; all results are exact.

Before any enumeration a Schreier-Sims chain (``StabChain``) on the base
0, 1, ..., degree-1 gives |G| and every element's rank: its position in the
byte-sorted element list, read from the basic orbits, in int32 (any row
ranks under 255 |G|).  The closure checks the order against its cap, takes
each BFS level's generator slots in batches of whole slots, ranks a batch's
products with one call, places each new element by its rank, and compares
every product with the stored element by full row, so a wrong chain raises
instead of giving a wrong group.  ``FiniteGroup.index_rows`` looks a block
of image rows up by rank and reports a row outside the group, caught by the
same full-row compare, as -1; ``FiniteGroup.index_elements`` raises
BuildVerificationError instead, for the rows of a map that must keep the
group.  A map of elements, such as conjugation by s, is looked up
``BLOCK_ROWS`` elements at a time (``_mapped``), so no full-size copy of the
element rows is made.

Gathers by an integer index array (the closure's gen o x, label merges,
conjugates, rank lookups, subset images and ranks) go through ``_take``:
``np.take`` on at most ``TAKE_ENTRIES`` index entries at a time, into a
preallocated output.  On the narrow uint8 and int32 indices used here,
``np.take`` is faster than fancy indexing ``a[idx]``, but it first copies
its index to intp, 8 bytes an entry; the chunks keep that copy at 128 KiB
instead of eight times a whole uint8 index.  Selecting columns by a row of
degree entries (``x[:, s]``) stays fancy indexing.

Partitions are label arrays: ``labels[x]`` is the smallest item of x's
class, and ``merge_labels`` merges x with ``image[x]`` for every x by hooking
each root onto the smaller root and pointer jumping, in the labels' dtype.
Partitions of G are int32 (|G| <= ELEMENT_CAP < 2^31), those of ordered
k-tuples int32 while n**k < 2^31, and those of subsets int64.  Any
generating set of G gives the same partition, so the merges over G run over
``FiniteGroup.orbit_generators``: the input generators when there are at
most two, else a set no longer than they, picked once with chain checks.
Conjugacy classes are the classes of x ~ s o x o s^-1 for those s, and orbits
on ordered k-tuples and on subsets those of a tuple or a subset and its image
under the coset action of one of them.  The closure and the BFS parent words
keep the input generators.  Left cosets of the stabilizer of a point p are
read from column p of the element list (gH is fixed by g(p)); the cosets of
any other subgroup are the classes of x ~ x o s for its generators s.
``coset_action`` builds the action rows of the elements it is given only:
the row of g holds the coset of each g o rep_i, looked up by rank.

Orbits on size-eps subsets of the n points are indexed by lexicographic rank
(``itertools.combinations`` order): ``labels[r]`` is the rank of the smallest
member of the orbit of subset r, so the canonical representative of an orbit
is its minimum rank.  Each generator's image of every subset is ranked once
and dropped before the next, so memory stays at a few arrays of C(n, eps)
entries; the only size limit is ``SUBSET_CAP``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BuildVerificationError,
    ElementCapExceeded,
    SubgroupNotContained,
    SubsetCapExceeded,
)

ELEMENT_CAP = 2_000_000
TABLE_CAP = 4_096
MAX_DEGREE = 255  # image rows are uint8
SUBSET_CAP = 5_000_000
BLOCK_ROWS = 1 << 15  # elements per block of an element map
TAKE_ENTRIES = 1 << 14  # index entries per np.take call (_take)

Permutation = tuple  # image tuple: p[i] = image of point i


def is_permutation(images: Sequence[int], degree: int) -> bool:
    return len(images) == degree and sorted(images) == list(range(degree))


def generator_rows(degree: int, gens: Iterable[Sequence[int]]) -> np.ndarray:
    """(k, degree) uint8 image rows of the distinct generators, in input
    order; ValueError for a degree out of range or a non-permutation."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    gen_list = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if not is_permutation(t, degree):
            raise ValueError(f"not a permutation of degree {degree}: {t}")
        if t not in gen_list:
            gen_list.append(t)
    return np.array(gen_list, dtype=np.uint8).reshape(-1, degree)


class StabChain:
    """Schreier-Sims chain of the group generated by ``gen_rows`` on the
    base 0, 1, ..., degree-1 (Sims 1970; Seress 2003, ch. 4).

    ``orbits`` lists, in base order, each point i whose basic orbit O_i (its
    orbit under the pointwise stabilizer G^(i) of 0..i-1) has more than one
    point, with that orbit; |G| is the product of their lengths.  The rows of
    ``strong`` fixing 0..i-1 generate G^(i).  The build is deterministic:
    from the last level up, every Schreier generator of a level is sifted
    through the levels below it in one batch, and the first residue that is
    not the identity joins ``strong``; the levels it fixes are then rebuilt
    and checked again from the deepest one it reaches.

    Every orbit found on the way is inside a basic orbit, so the product of
    their lengths never exceeds |G|: once it passes ``cap`` the build stops
    with ElementCapExceeded, naming that lower bound.
    """

    def __init__(self, degree: int, gen_rows: np.ndarray, cap=None):
        self.degree = degree
        self.generators = gen_rows
        moved = gen_rows != np.arange(degree)
        keep = moved.any(axis=1)
        self.strong = gen_rows[keep]
        self.first_moved = moved[keep].argmax(axis=1)
        # point -> (orbit, position of each point in it or -1, inverse
        # transversal rows u_o^-1, level generators, transversal rows u_o),
        # nontrivial levels only
        self._levels = {}
        stale = set(range(degree))
        i = degree - 1
        while i >= 0:
            if i in stale:
                self._build_level(i)
                stale.discard(i)
                bound = math.prod(len(lv[0]) for lv in self._levels.values())
                if cap is not None and bound > cap:
                    raise ElementCapExceeded(
                        f"group order is at least {bound}, over the cap of "
                        f"{cap} elements")
            residue = self._check_level(i)
            if residue is None:
                i -= 1
                continue
            row, j = residue
            self.strong = np.vstack([self.strong, row])
            self.first_moved = np.append(self.first_moved, j)
            stale.update(range(j + 1))
            i = j
        self.orbits = [(i, self._levels[i][0]) for i in sorted(self._levels)]

    @property
    def order(self) -> int:
        return math.prod(len(orbit) for _, orbit in self.orbits)

    def _build_level(self, i: int) -> None:
        """Orbit of i under the strong generators fixing 0..i-1, with a
        transversal grown breadth first (u_{s(o)} = s o u_o)."""
        d = self.degree
        gens = self.strong[self.first_moved >= i]
        pos = np.full(d, -1, dtype=np.int16)
        pos[i] = 0
        points = np.array([i])
        rows = [np.arange(d, dtype=np.uint8)[None]]
        while len(gens):
            image = gens[:, points].ravel()  # generator-major
            new = np.flatnonzero(pos[image] < 0)
            if not len(new):
                break
            points, first = np.unique(image[new], return_index=True)
            s, o = np.divmod(new[first], len(rows[-1]))
            pos[points] = np.arange(len(points)) + (pos >= 0).sum()
            rows.append(np.take_along_axis(gens[s], rows[-1][o], axis=1))
        if len(rows) == 1:
            self._levels.pop(i, None)
            return
        u = np.concatenate(rows)
        self._levels[i] = (u[:, i], pos, np.argsort(u, axis=1).astype(np.uint8),
                           gens, u)

    def _check_level(self, i: int):
        """Sift every Schreier generator u_{s(o)}^-1 s u_o of level i; the
        first residue that is not the identity, or None."""
        if i not in self._levels:
            return None
        _, pos, u_inv, gens, u = self._levels[i]
        su = np.take(gens, u, axis=1).reshape(-1, self.degree)  # s o u_o
        return self._sift(np.take_along_axis(u_inv[pos[su[:, i]]], su, axis=1),
                          i + 1)

    def _sift(self, rows: np.ndarray, start: int):
        """(residue, level) of the first row, all fixing 0..start-1, that
        does not sift to the identity through levels start.., or None.  A
        point between two kept levels has a trivial basic orbit, so a
        residue must fix it."""
        point = start
        for level in sorted(k for k in self._levels if k >= start) + [None]:
            end = self.degree if level is None else level
            moved = rows[:, point:end] != np.arange(point, end)
            hit = np.flatnonzero(moved.any(axis=1))
            if len(hit):
                return rows[hit[0]], point + int(moved[hit[0]].argmax())
            if level is None:
                return None
            _, pos, u_inv, _, _ = self._levels[level]
            at = pos[rows[:, level]]
            hit = np.flatnonzero(at < 0)
            if len(hit):
                return rows[hit[0]], level
            rows = np.take_along_axis(u_inv[at], rows, axis=1)
            point = level + 1

    @functools.cached_property
    def _rank_plan(self):
        """(the points read, then per level in base order: the position of
        i among them, |O_i|, the positions of the points to compare, and
        whether to count the complement); each level compares on the
        smaller side."""
        plan = []
        for point, orbit in self.orbits:
            inside = np.zeros(self.degree, dtype=bool)
            inside[orbit] = True
            if len(orbit) - 1 <= self.degree - len(orbit):
                inside[point] = False
                plan.append((point, len(orbit), np.flatnonzero(inside), False))
            else:
                plan.append((point, len(orbit), np.flatnonzero(~inside), True))
        read = sorted({p for p, _, _, _ in plan}.union(
            *(others.tolist() for _, _, others, _ in plan)))
        at = {p: k for k, p in enumerate(read)}
        return np.array(read, dtype=np.intp), [
            (at[p], size, [at[o] for o in others.tolist()], outside)
            for p, size, others, outside in plan]

    def rank(self, rows: np.ndarray) -> np.ndarray:
        """int32 position of each row, an element of the group, in the
        byte-sorted element list: the sum over levels i of |G^(i+1)| times
        #{o in O_i : g(o) < g(i)}, accumulated in base order (Horner's rule,
        |G^(i+1)| being the product of the deeper |O_j|).  The elements
        agreeing with g on 0..i-1 are g G^(i), and g s(i) runs over g(O_i),
        each |G^(i+1)| times.  Only the columns the levels compare are read.

        Any uint8 row gets a rank, in [0, 255 |G|).  Each digit b_i is a
        count of at most |O_i| - 1 <= 254 points, or g(i) minus a count,
        wrapped to uint8, so b_i <= 255.  With P_i the product of the |O_j|
        for j > i, the rank is sum b_i P_i <= 255 sum P_i, and P_(i-1) =
        |O_i| P_i >= 2 P_i makes sum P_i < 2 P_0 = 2 |G| / |O_0| <= |G|;
        every partial sum of Horner's rule is smaller still.  The ranks fit
        int32 because close_generators, whose cap is at most ELEMENT_CAP,
        never ranks past it: 255 ELEMENT_CAP < 2^31."""
        read, plan = self._rank_plan
        columns = rows.T[read]  # the columns read, each contiguous
        rank = np.zeros(rows.shape[0], dtype=np.int32)
        for point, size, others, outside in plan:
            target = columns[point]
            below = np.zeros(rows.shape[0], dtype=np.uint8)  # at most 254
            for o in others:
                below += columns[o] < target
            if outside:  # #{o : g(o) < g(i)} is g(i) over all points
                below = target - below
            rank *= size
            rank += below
        return rank


class FiniteGroup:
    """Enumerated permutation group; element 0 is the identity.

    The element list order is the BFS order from the generators with
    lexicographic tie-break, so indices are stable across runs.
    """

    def __init__(self, chain: StabChain, images, parents, index_of_rank):
        self.chain = chain
        self.degree = chain.degree
        self.images = images  # (order, degree) uint8
        self.order = int(images.shape[0])
        self._parents = parents  # (order, 2) int32: [generator slot, parent index]
        self._index_of_rank = index_of_rank  # (order,) int32
        # element indices of the input generators, one per BFS generator slot
        self.generators = self.index_elements(chain.generators,
                                              "generators").tolist()
        self.orbit_generators = self._pick_orbit_generators()

    def _pick_orbit_generators(self) -> list[int]:
        """Element indices of a short generating set of G for the orbit
        merges.  With at most two input generators, those.  Otherwise walk
        len(generators) - 1 fixed-seed random elements, then the input
        generators, and keep each one outside the group of those kept so far
        (it does not sift through their chain), until that group is G.  The
        input generators when the pick would not be shorter."""
        gens = self.generators
        if len(gens) <= 2:
            return list(gens)
        rng = random.Random(0)
        stream = [rng.randrange(self.order) for _ in range(len(gens) - 1)]
        kept, chain = [], StabChain(self.degree, self.images[:0])
        for g in stream + gens:
            if chain._sift(self.images[g][None], 0) is None:
                continue  # already in the group of the kept elements
            kept.append(g)
            chain = StabChain(self.degree, self.images[kept])
            if chain.order == self.order or len(kept) >= len(gens) - 1:
                break
        return kept if chain.order == self.order else list(gens)

    def index_rows(self, rows) -> np.ndarray:
        """int32 element index of each row of an (m, degree) block of image
        rows, -1 for a row that is not in the group."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise ValueError(f"need rows of length {self.degree}, "
                             f"got shape {rows.shape}")
        # a row that is not a permutation may rank outside 0..order-1
        rank = np.clip(self.chain.rank(rows), 0, self.order - 1)
        idx = _take(self._index_of_rank, rank)
        found = _take(self.images, idx)
        # every row is compared in every column; a column at a time is
        # faster than a row-wise .all over (m, degree) uint8
        hit = found[:, 0] == rows[:, 0]
        for j in range(1, self.degree):
            hit &= found[:, j] == rows[:, j]
        return np.where(hit, idx, -1)

    def index_elements(self, rows, what: str) -> np.ndarray:
        """``index_rows`` of rows that must all be elements: a row outside the
        group raises BuildVerificationError naming ``what``, the map that made
        the rows, where a -1 would index the last element."""
        idx = self.index_rows(rows)
        if (idx < 0).any():
            raise BuildVerificationError(f"{what}: a row outside the group")
        return idx

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        # the inverse of a permutation row is its argsort
        return _mapped(self, lambda rows: np.argsort(rows, axis=1).astype(
            np.uint8), "inverse map")

    @functools.cached_property
    def mult_table(self) -> np.ndarray | None:
        """Dense table mul[a, b] = index(a o b); None above TABLE_CAP."""
        if self.order > TABLE_CAP:
            return None
        # Left-regular rows extend along BFS words: L_{g o p} = L_g[L_p].
        # uint16 holds every index: order <= TABLE_CAP < 2^16
        n = self.order
        table = np.empty((n, n), dtype=np.uint16)
        table[0] = np.arange(n)
        gen_rows = [self.index_elements(_take(self.images[g], self.images),
                                        "generator product map")
                    .astype(np.uint16) for g in self.generators]  # g o b
        for e in range(1, n):
            slot, parent = self._parents[e]
            _take(gen_rows[slot], table[parent], out=table[e])
        return table


def close_generators(degree: int, gens: Iterable[Sequence[int]],
                     cap: int = ELEMENT_CAP, *,
                     order: int | None = None) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on points 0..degree-1.

    The chain gives |G| first: ElementCapExceeded as soon as it is known to
    be over ``cap`` (at most ELEMENT_CAP, which keeps ranks in int32), and BuildVerificationError if it differs from an
    ``order`` the caller derived, before anything is allocated.  Then level
    by level, the generator slots map the whole frontier in batches of whole
    slots: as many as keep a batch's products within the bytes of one
    ``_take`` chunk's intp index copy (128 KiB), at least one.  One rank call
    per batch places its products.  A product whose rank is taken must equal
    the element stored there, and the others join the level with their first
    (slot, frontier position) in slot-major order as parent; a batch of
    several slots keeps the first of the products that share a new rank and
    compares the rest with it, like every other product.  A level is sorted
    by rank, which is byte order.  A collision or an enumerated count other
    than the chain's order raises BuildVerificationError.
    """
    chain = StabChain(degree, generator_rows(degree, gens), cap)
    if order is not None and chain.order != order:
        raise BuildVerificationError(
            f"expected order {order}, the stabilizer chain gives {chain.order}")
    order = chain.order
    images = np.empty((order, degree), dtype=np.uint8)
    images[0] = np.arange(degree)
    parents = np.empty((order, 2), dtype=np.int32)
    parents[0] = -1
    index_of_rank = np.full(order, -1, dtype=np.int32)
    index_of_rank[0] = 0  # the identity is the smallest row
    gens = chain.generators
    levels = [0, 1]
    while levels[-1] > levels[-2]:
        start = stop = levels[-1]
        frontier = images[levels[-2]:start]
        width = len(frontier)
        per_batch = max(1, TAKE_ENTRIES * np.intp(0).itemsize
                        // (width * degree))
        ranks = [np.empty(0, dtype=np.int32)]
        for first in range(0, len(gens), per_batch):
            batch = gens[first:first + per_batch]
            prod = np.empty((len(batch), width, degree), dtype=np.uint8)
            for grow, out in zip(batch, prod):
                _take(grow, frontier, out=out)  # gen o x
            prod = prod.reshape(-1, degree)
            rank = chain.rank(prod)
            at = _take(index_of_rank, rank)
            new = np.flatnonzero(at < 0)
            if len(batch) > 1:  # keep the first product of each new element
                # for now, index_of_rank at each new rank holds the first
                # batch position with that rank
                index_of_rank[rank[new]] = np.iinfo(np.int32).max
                np.minimum.at(index_of_rank, rank[new], new)
                new = new[_take(index_of_rank, rank[new]) == new]
            end = stop + len(new)
            if end > order:
                raise BuildVerificationError(
                    f"the closure passes the chain's order {order}")
            index_of_rank[rank[new]] = np.arange(stop, end)
            _take(prod, new, out=images[stop:end])
            # every product, seen or new, must be the element at its rank
            _take(index_of_rank, rank, out=at)
            if not np.array_equal(_take(images, at), prod):
                raise BuildVerificationError(
                    "two elements share a rank: the stabilizer chain is wrong")
            parents[stop:end, 0] = new // width + first
            parents[stop:end, 1] = new % width + levels[-2]
            ranks.append(rank[new])
            stop = end
        ranks = np.concatenate(ranks)
        by_rank = np.argsort(ranks)
        images[start:stop] = _take(images[start:stop], by_rank)
        parents[start:stop] = _take(parents[start:stop], by_rank)
        index_of_rank[ranks[by_rank]] = np.arange(start, stop)
        levels.append(stop)
    if levels[-1] != order:
        raise BuildVerificationError(
            f"enumerated {levels[-1]} elements, the chain's order is {order}")
    return FiniteGroup(chain, images, parents, index_of_rank)


def _take(a: np.ndarray, index, out=None) -> np.ndarray:
    """``a[index]`` along axis 0, into ``out`` (a new array when None), by
    ``np.take`` on at most ``TAKE_ENTRIES`` index entries at a time.

    np.take is faster than fancy indexing on narrow integer indices, but it
    first copies the index to intp (8 bytes an entry); the chunks bound that
    copy and np.take's buffer of the output."""
    index = np.asarray(index)
    if out is None:
        out = np.empty(index.shape + a.shape[1:], dtype=a.dtype)
    flat, into = index.reshape(-1), out.reshape((-1,) + a.shape[1:])
    for start in range(0, flat.size, TAKE_ENTRIES):
        stop = start + TAKE_ENTRIES
        a.take(flat[start:stop], axis=0, out=into[start:stop])
    return out


def _mapped(G: FiniteGroup, f, what: str) -> np.ndarray:
    """int32 element index of ``f(rows)`` for the image rows of every
    element, one block of ``BLOCK_ROWS`` elements at a time; f, the map
    ``what``, must keep the group (``FiniteGroup.index_elements``)."""
    out = np.empty(G.order, dtype=np.int32)
    for start in range(0, G.order, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        out[start:stop] = G.index_elements(f(G.images[start:stop]), what)
    return out


def merge_labels(labels: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Merge the class of every x with the class of ``image[x]``.

    ``labels`` must name roots (``labels[labels] == labels``), each the
    smallest item of its class.  Each round hooks every root onto the smaller
    root across every unmerged edge (a scatter-min both ways) and then jumps
    pointers, until both ends of every edge share a root.
    """
    while True:
        ends = _take(labels, image)
        moved = ends != labels
        if not moved.any():
            return labels
        head = ends[moved]
        del ends  # one full-length label array fewer at the peak
        tail = labels[moved]
        np.minimum.at(labels, tail, head)
        np.minimum.at(labels, head, tail)
        labels = _compress(labels)


def _compress(labels: np.ndarray) -> np.ndarray:
    """Pointer jumping until every entry names its root."""
    hop = np.empty_like(labels)
    while True:
        _take(labels, labels, out=hop)
        if np.array_equal(hop, labels):
            return labels
        labels, hop = hop, labels


def _partition(labels: np.ndarray):
    """(int32 class of each item, smallest item per class) of root labels,
    classes numbered by their smallest item: a root's number is the count of
    roots before it."""
    roots = labels == np.arange(len(labels), dtype=labels.dtype)
    number = np.cumsum(roots, dtype=np.int32) - 1
    return _take(number, labels), np.flatnonzero(roots)


class CosetSpace:
    """Left cosets gH of a subgroup H, with fixed representatives.

    Coset 0 is H itself with the identity as representative; the remaining
    cosets are ordered by their minimal element index (which is also the
    representative).
    """

    def __init__(self, group, coset_of, reps):
        self.group = group
        self.coset_of = coset_of  # (order,) int32: element index -> coset index
        self.reps = reps  # representative element index per coset
        # sorted element indices of H
        self.subgroup_elements = np.flatnonzero(coset_of == 0).astype(np.int32)
        self.h = len(self.subgroup_elements)
        self.n = len(reps)


def _stabilized_point(G: FiniteGroup, rows: np.ndarray):
    """The first point p fixed by every row with |<rows>| |p^G| = |G|, so
    that <rows> = Stab(p), or None."""
    fixed = np.flatnonzero((rows == np.arange(G.degree)).all(axis=0))
    if not len(fixed):
        return None
    h = StabChain(G.degree, rows).order
    orbit_of = np.arange(G.degree)
    for g in G.orbit_generators:
        orbit_of = merge_labels(orbit_of, G.images[g])
    sizes = np.bincount(orbit_of, minlength=G.degree)[orbit_of[fixed]]
    hit = np.flatnonzero(h * sizes == G.order)
    return int(fixed[hit[0]]) if len(hit) else None


def left_cosets(G: FiniteGroup, H_gens: Iterable[Sequence[int]]) -> CosetSpace:
    """Partition G into left cosets of the subgroup H generated by
    ``H_gens``.  When H is the stabilizer of a point p, g H is fixed by g(p),
    so the cosets are the values of column p numbered by first occurrence;
    otherwise they are the classes of x ~ x o s over the generators s.

    Raises SubgroupNotContained if a generator is outside G (then so is the
    subgroup; otherwise all of it lies in G).
    """
    rows = generator_rows(G.degree, H_gens)
    missing = G.index_rows(rows) < 0
    if missing.any():
        raise SubgroupNotContained(
            f"subgroup element {min(map(tuple, rows[missing].tolist()))} "
            f"is not in the group")
    point = _stabilized_point(G, rows)
    if point is not None:
        column = G.images[:, point]
        values, first = np.unique(column, return_index=True)
        by_first = np.argsort(first)
        number = np.empty(G.degree, dtype=np.int32)
        number[values[by_first]] = np.arange(len(values), dtype=np.int32)
        return CosetSpace(G, _take(number, column), first[by_first].tolist())
    labels = np.arange(G.order, dtype=np.int32)
    for s in rows:
        labels = merge_labels(labels, _mapped(  # x o s
            G, lambda x: x[:, s], "right multiplication by a subgroup generator"))
    coset_of, reps = _partition(labels)
    return CosetSpace(G, coset_of, reps.tolist())


class ConjugacyPartition:
    """Partition of a group into conjugacy classes, numbered by their
    smallest element index.

    ``class_of`` (int32 per element) and ``class_reps`` (the smallest element
    index per class) define it; ``sizes`` are counted from ``class_of``.  The
    member lists ``classes`` are built on first read only.
    """

    def __init__(self, class_of, class_reps):
        self.class_of = class_of  # (order,) int32
        self.class_reps = class_reps  # minimal element index per class
        self.sizes = np.bincount(class_of).tolist()

    @property
    def count(self) -> int:
        return len(self.class_reps)

    @functools.cached_property
    def classes(self) -> list[np.ndarray]:
        """Sorted int32 element-index array per class."""
        # a stable sort of at most 16-bit keys is a radix sort
        keys = self.class_of.astype(np.min_scalar_type(self.count - 1))
        members = np.argsort(keys, kind="stable").astype(np.int32)
        return np.split(members, np.cumsum(self.sizes)[:-1])


def conjugacy_classes(G: FiniteGroup) -> ConjugacyPartition:
    """Exact classes: the orbits of conjugation x -> s o x o s^-1 by the
    elements s of ``G.orbit_generators``, which generate G."""
    labels = np.arange(G.order, dtype=np.int32)
    for g in G.orbit_generators:
        s = G.images[g]
        s_inv = np.argsort(s)
        labels = merge_labels(labels, _mapped(
            G, lambda x: _take(s, x[:, s_inv]), "conjugation map"))
    class_of, reps = _partition(labels)
    return ConjugacyPartition(class_of, reps.tolist())


def coset_action(G: FiniteGroup, C: CosetSpace, elements) -> np.ndarray:
    """(len(elements), n) rows of the action on cosets: the row of g maps
    coset i to the coset of g o rep_i."""
    rep_rows = G.images[np.asarray(C.reps, dtype=np.int64)]
    products = G.images[np.asarray(elements, dtype=np.int64)][:, rep_rows]
    return C.coset_of[G.index_elements(products.reshape(-1, G.degree),
                                       "coset action")].reshape(-1, C.n)


def is_k_transitive(action_rows, n: int, k: int) -> tuple[bool, int]:
    """Whether the action is k-transitive, plus the orbit count on ordered
    k-tuples of distinct points.

    ``action_rows`` may be any family of action permutations whose closure is
    the acting group, such as the rows of a generating set.
    Every ordered k-tuple is ranked in mixed radix n, and each row's image of
    the n**k ranks is merged into the labels before the next row's is built.
    Ranks, digits and images are int32 when n**k fits, else int64.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    dtype = np.int32 if n ** k < 2 ** 31 else np.int64
    labels = np.arange(n ** k, dtype=dtype)
    digits = [labels // n ** (k - 1 - i) % n for i in range(k)]
    image = np.empty(n ** k, dtype=dtype)
    digit = np.empty(n ** k, dtype=dtype)
    for row in action_rows:
        row = np.asarray(row, dtype=dtype)
        image[:] = 0
        for d in digits:
            image *= n
            image += _take(row, d, out=digit)
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
    weight = np.empty(count, dtype=np.int64)
    for i in range(eps):
        ranks -= _take(weights[i], subsets[:, i], out=weight)
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
        # images in the subsets' own dtype, the smallest that holds n - 1
        row = np.asarray(row, dtype=subsets.dtype)
        labels = merge_labels(
            labels, lex_rank(np.sort(_take(row, subsets), axis=1), n))
    return labels


def stabilizer_generators(G: FiniteGroup) -> list[Permutation]:
    """The strong generators of the stabilizer of point 0, from G's chain:
    those that fix point 0 generate Stab(0)."""
    strong = G.chain.strong[G.chain.first_moved >= 1]
    return [tuple(row) for row in strong.tolist()]
