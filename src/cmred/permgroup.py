"""Finite permutation groups by exhaustive enumeration.

Permutations are image tuples on points 0..degree-1.  Groups are closed from
generators by breadth-first search; the element list is deterministic (BFS
level order, lexicographic tie-break within a level, identity first), so every
downstream report is byte-reproducible.  Hot loops run on integer numpy
arrays; all results are exact.

Before any enumeration a Schreier-Sims chain (``StabChain``) on the base
0, 1, ..., degree-1 gives |G| and every element's rank: its position in the
byte-sorted element list, read from the basic orbits, in int32 (any row
ranks under 255 |G|); it raises once the order passes ``ELEMENT_CAP``.
The closure takes each BFS level's generator slots in batches of whole slots,
a single slot taking the frontier ``TAKE_ENTRIES`` rows at a time; it ranks
a batch's products with one call, places each new element by its rank, and
compares every product with the stored element by full row, so a wrong
chain raises instead of giving a wrong group; it records no BFS words.
``FiniteGroup.mult_table`` spans G by its own breadth-first search in index
space over the input generators' product rows.  A chain given the order the
caller derived stops building once its orbit lengths multiply to it.
``FiniteGroup.index_elements`` looks a block of image rows up by rank, for
the rows of a map that must keep the group: it compares the whole block with
the rows found at their ranks in one pass and raises BuildVerificationError
on any difference.  Rows that may lie outside the group, a subgroup's
generators, are sifted through the chain instead.  A map of elements, such
as conjugation by s, is looked up ``BLOCK_ROWS`` elements at a time
(``_mapped``), so no full-size copy of the element rows is made, into one
int32 buffer that the merges over G refill for every generator.  A pass over
all of G holds its live full-size arrays (the element rows, the labels and
that buffer) and otherwise only block- or chunk-sized temporaries.

Gathers by an integer index array (the closure's gen o x, label merges,
conjugates, rank lookups, subset images and ranks) go through ``_take``:
``np.take`` on at most ``TAKE_ENTRIES`` index entries at a time, into a
preallocated output.  On the narrow uint8 and int32 indices used here,
``np.take`` is faster than fancy indexing ``a[idx]``, but it first copies
its index to intp, 8 bytes an entry; the chunks keep that copy at 128 KiB
instead of eight times a whole uint8 index.  Columns are selected by a row
of degree entries directly, with ``x.take(s, axis=1)`` for the conjugates
and ``x[:, s]`` elsewhere.

Partitions are label arrays: ``labels[x]`` is the smallest item of x's
class, and ``merge_labels`` merges x with ``image[x]`` for every x in place,
``TAKE_ENTRIES`` edges at a time, by hooking each end's label onto the
smaller one and pointer jumping, in the labels' dtype; ``_partition``
numbers the classes a chunk at a time.  Partitions of G are int32
(|G| <= ELEMENT_CAP < 2^31), those of ordered k-tuples int32
(n**k < 2^31), and those of subsets int32 too: a subset's label is a
lexicographic rank below C(n, eps) <= SUBSET_CAP < 2^31.
Any generating set of G gives the same partition, so the merges over G run
over ``FiniteGroup.orbit_generators``: the input generators when there are
at most two, else a set no longer than they, picked once with chain checks.
Conjugacy classes are the classes of x ~ s o x o s^-1 for those s, and orbits
on ordered k-tuples and on subsets those of a tuple or a subset and its image
under the coset action of one of them.  The closure and ``mult_table`` keep
the input generators.  Left cosets of the stabilizer of a point p are
read from column p of the element list (gH is fixed by g(p)); the cosets of
any other subgroup are the classes of x ~ x o s for its generators s.
Cosets are numbered in the smallest dtype that holds n - 1: uint8 up to 256
cosets (every point stabilizer: n <= degree <= 255), uint16 up to 65,536 and
uint32 past that; the merge path numbers them in int32 over its labels and
narrows once.
``coset_action`` builds the action rows of the elements it is given only:
the row of g holds the coset of each g o rep_i, looked up by rank, in the
coset numbers' dtype.

Orbits on size-eps subsets of the n points are indexed by lexicographic rank
(``itertools.combinations`` order): ``labels[r]`` is the rank of the smallest
member of the orbit of subset r, so the canonical representative of an orbit
is its minimum rank.  The subsets are built in that order directly
(``lex_subsets``).  Each generator's image of every subset is ranked once
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
BLOCK_ROWS = 1 << 13  # elements per block of an element map
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
    their lengths never exceeds |G|: once it passes ``ELEMENT_CAP`` the build
    stops with ElementCapExceeded, naming that lower bound.

    Given ``order``, the build also stops as soon as that product equals
    it, and when ``order`` is |G| the chain is then complete.  The orbit
    kept for a level i is the orbit of i under a subgroup of G^(i), so it
    lies in O_i, and a level with no orbit kept counts 1 <= |O_i|.  Their
    product equals prod |O_i| = |G| only if every kept orbit is all of O_i
    and every other O_i is {i}.  A kept level's transversal rows lie in
    G^(i) and reach every point of O_i, so sifting through the levels
    decides membership in G exactly and the ranks are those of the full
    chain.  By induction from the deepest level, the rows of ``strong``
    fixing 0..i-1 generate a subgroup of G^(i) that holds all
    prod_{j >= i} |O_j| = |G^(i)| products of transversal rows, so all of
    G^(i) (Seress 2003, ch. 4).  An ``order`` below |G| may stop the build
    at a partial product: the chain is then wrong, and the closure's
    full-row compares catch it.
    """

    def __init__(self, degree: int, gen_rows: np.ndarray, order=None):
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
                if bound > ELEMENT_CAP:
                    raise ElementCapExceeded(
                        f"group order is at least {bound}, over the cap of "
                        f"{ELEMENT_CAP} elements")
                if bound == order:
                    break
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

        A permutation row, in the group or not, ranks in [0, |G|), with |G|
        the product of the orbit lengths even for a wrong chain: its digit
        b_i counts points of O_i other than i (the complement count is g(i)
        minus the points outside O_i below g(i)), so b_i <= |O_i| - 1 and
        the rank is at most prod |O_i| - 1.  Any uint8 row gets a rank, in
        [0, 255 |G|).  Each digit b_i is a count of at most |O_i| - 1 <= 254
        points, or g(i) minus a count, wrapped to uint8, so b_i <= 255.
        With P_i the product of the |O_j| for j > i, the rank is
        sum b_i P_i <= 255 sum P_i, and P_(i-1) = |O_i| P_i >= 2 P_i makes
        sum P_i < 2 P_0 = 2 |G| / |O_0| <= |G|; every partial sum of
        Horner's rule is smaller still.  The ranks fit int32 because no
        chain has an order past ELEMENT_CAP: 255 ELEMENT_CAP < 2^31."""
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

    def __init__(self, chain: StabChain, images, index_of_rank):
        self.chain = chain
        self.degree = chain.degree
        self.images = images  # (order, degree) uint8
        self.order = int(images.shape[0])
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
            chain = StabChain(self.degree, self.images[kept], order=self.order)
            if chain.order == self.order or len(kept) >= len(gens) - 1:
                break
        return kept if chain.order == self.order else list(gens)

    def _lookup(self, rows):
        """(rows as an array, the int32 index stored at each row's clipped
        rank, the element rows at those indices): a row is an element
        exactly when it equals its found row."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise ValueError(f"need rows of length {self.degree}, "
                             f"got shape {rows.shape}")
        # a row that is not a permutation may rank outside 0..order-1
        idx = self.chain.rank(rows)
        np.clip(idx, 0, self.order - 1, out=idx)
        _take(self._index_of_rank, idx, out=idx)
        return rows, idx, _take(self.images, idx)

    def index_elements(self, rows, what: str) -> np.ndarray:
        """int32 element index of each row of a block that must hold
        elements only, the rows of the map ``what``.  The rows found at the
        ranks are compared with the whole block in one pass, written over
        the found rows, so every row is still compared in full; a row
        outside the group raises BuildVerificationError naming ``what``."""
        rows, idx, found = self._lookup(rows)
        # the compare overwrites found: no block-sized bool is made
        if not np.equal(found, rows, out=found.view(np.bool_)).all():
            raise BuildVerificationError(f"{what}: a row outside the group")
        return idx

    @functools.cached_property
    def inverses(self) -> np.ndarray:
        # the inverse of a permutation row is its argsort
        return _mapped(self, lambda rows: np.argsort(rows, axis=1).astype(
            np.uint8), "inverse map")

    @functools.cached_property
    def mult_table(self) -> np.ndarray | None:
        """Dense table mul[a, b] = index(a o b); None above TABLE_CAP.

        Row e is the left-regular map L_e: b -> e o b.  The rows are spanned
        by a breadth-first search in index space from the identity's row:
        each input generator g's row L_g is looked up once, and an element
        g o e first reached from a frontier element e takes the row
        L_{g o e} = L_g[L_e], since (g o e) o b = g o (e o b).  Each level
        gathers the products of every generator with every frontier element
        in one call; an element that several products reach keeps one of
        them, any one giving the same row.  Each generator then gathers its
        children's parent rows and maps them in place, so the rows held at
        once are one generator's children's.  An element left unreached
        raises BuildVerificationError."""
        if self.order > TABLE_CAP:
            return None
        # uint16 holds every index: order <= TABLE_CAP < 2^16
        n = self.order
        table = np.empty((n, n), dtype=np.uint16)
        table[0] = np.arange(n)
        gen_rows = np.empty((len(self.generators), n), dtype=np.uint16)
        for row, g in zip(gen_rows, self.generators):  # g o b
            row[:] = self.index_elements(_take(self.images[g], self.images),
                                         "generator product map")
        unreached = np.ones(n, dtype=bool)
        unreached[0] = False
        slot = np.empty(n, dtype=np.intp)  # a product position per child
        frontier = np.zeros(1, dtype=np.intp)
        runs = np.arange(len(gen_rows) + 1)  # gen is sorted: a run each
        while len(frontier):
            # every product g o e, generator-major
            child = gen_rows.take(frontier, axis=1).ravel()
            at = np.flatnonzero(unreached[child])
            child = child[at]
            if len(gen_rows) > 1:  # keep one product per child
                slot[child] = at
                keep = slot[child] == at
                at, child = at[keep], child[keep]
            unreached[child] = False
            gen, parent = np.divmod(at, len(frontier))
            parent = frontier[parent]
            bounds = np.searchsorted(gen, runs)
            for row, low, high in zip(gen_rows, bounds, bounds[1:]):
                rows = table[parent[low:high]]  # the parents' rows
                table[child[low:high]] = _take(row, rows, out=rows)
            frontier = child
        if unreached.any():
            raise BuildVerificationError(
                "generator product map: the generators reach "
                f"{n - np.count_nonzero(unreached)} of {n} elements")
        return table


def close_generators(degree: int, gens: Iterable[Sequence[int]], *,
                     order: int | None = None) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` on points 0..degree-1.

    The chain gives |G| first: ElementCapExceeded as soon as it is known to
    be over ``ELEMENT_CAP`` (which keeps ranks in int32), and
    BuildVerificationError if it differs from an ``order`` the caller
    derived, before anything is allocated; the chain stops building once its
    orbit lengths multiply to that order.  Then level
    by level, the generator slots map the frontier in batches of whole
    slots: as many as keep a batch's products within the bytes of one
    ``_take`` chunk's intp index copy (128 KiB), at least one.  A batch of
    several slots covers the whole frontier; a single slot takes it
    ``TAKE_ENTRIES`` rows at a time, so a wide level (sym:9's widest has
    27,766 elements) is mapped in chunks rather than all at once.  The
    products of one slot are distinct, so only a batch of several slots can
    produce an element twice.  One rank call
    per batch places its products; a product is a permutation, so its rank
    is below the chain's order even when the chain is wrong (``rank``).  A
    product whose rank is taken must equal the element stored there, and
    the others join the level; a batch of several slots keeps the first of
    the products that share a new rank and compares the rest with it, like
    every other product.  So an ``order`` below |G| that stops the chain at
    a partial product raises too.  A level is sorted by rank, which is byte
    order, in one sort of int64 keys, each new element's rank above its
    position in the level.  A collision or an enumerated count other than
    the chain's order raises BuildVerificationError.  The level boundaries
    are not kept: ``FiniteGroup.mult_table`` spans G by its own search.
    """
    chain = StabChain(degree, generator_rows(degree, gens), order)
    if order is not None and chain.order != order:
        raise BuildVerificationError(
            f"expected order {order}, the stabilizer chain gives {chain.order}")
    order = chain.order
    images = np.empty((order, degree), dtype=np.uint8)
    images[0] = np.arange(degree)
    index_of_rank = np.full(order, -1, dtype=np.int32)
    index_of_rank[0] = 0  # the identity is the smallest row
    gens = chain.generators
    levels = [0, 1]
    while levels[-1] > levels[-2]:
        start = stop = levels[-1]
        frontier = images[levels[-2]:start]
        per_batch = max(1, TAKE_ENTRIES * np.intp(0).itemsize
                        // (len(frontier) * degree))
        ranks = [np.empty(0, dtype=np.int32)]
        for first, low in itertools.product(
                range(0, len(gens), per_batch),
                range(0, len(frontier), TAKE_ENTRIES)):
            batch = gens[first:first + per_batch]
            part = frontier[low:low + TAKE_ENTRIES]
            prod = np.empty((len(batch), len(part), degree), dtype=np.uint8)
            for grow, out in zip(batch, prod):
                _take(grow, part, out=out)  # gen o x
            prod = prod.reshape(-1, degree)
            rank = chain.rank(prod)
            at = _take(index_of_rank, rank)
            new = np.flatnonzero(at < 0)
            if len(batch) > 1:  # keep the first product of each new element
                # for now, index_of_rank at each new rank holds the first
                # batch position with that rank
                index_of_rank[rank[new]] = np.iinfo(np.int32).max
                # int32 values keep ufunc.at on its fast path
                np.minimum.at(index_of_rank, rank[new], new.astype(np.int32))
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
            ranks.append(rank[new])
            stop = end
        # ranks are distinct and below 2^31, positions below 2^31
        key = np.concatenate(ranks, out=np.empty(stop - start, np.int64))
        del ranks
        key <<= 32
        key |= np.arange(stop - start, dtype=np.int32)
        key.sort()
        by_rank = key.astype(np.int32)  # the low 32 bits: the positions
        key >>= 32
        images[start:stop] = _take(images[start:stop], by_rank)
        index_of_rank[key] = np.arange(start, stop, dtype=np.int32)
        levels.append(stop)
    if levels[-1] != order:
        raise BuildVerificationError(
            f"enumerated {levels[-1]} elements, the chain's order is {order}")
    return FiniteGroup(chain, images, index_of_rank)


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


def _mapped(G: FiniteGroup, f, what: str, out=None) -> np.ndarray:
    """int32 element index of ``f(rows)`` for the image rows of every
    element, into ``out`` (a new array when None), one block of
    ``BLOCK_ROWS`` elements at a time; f, the map ``what``, must keep the
    group (``FiniteGroup.index_elements``)."""
    if out is None:
        out = np.empty(G.order, dtype=np.int32)
    for start in range(0, G.order, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        out[start:stop] = G.index_elements(f(G.images[start:stop]), what)
    return out


def merge_labels(labels: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Merge the class of every x with the class of ``image[x]``, in place.

    ``labels`` must name roots (``labels[labels] == labels``), each the
    smallest item of its class.  Each round passes over the edges x ->
    image[x] ``TAKE_ENTRIES`` at a time: it reads the labels at both ends of
    a chunk's edges and, where any differ, hooks each end's label onto the
    other's, a scatter-min both ways with no compaction of the edges that
    moved (an edge whose ends agree changes nothing).  The hooks read the
    live labels, not a snapshot of the round's roots; that merges the same
    classes, since a label only ever falls to a smaller item of its own
    class and only the round's roots are hooked.  Pointer jumping, a chunk
    at a time in place, then makes every label a root again.  The merge
    stops after a full pass in which no edge's two ends differ, with every
    label a root.  Two chunk-sized buffers in the labels' dtype serve every
    round.
    """
    ends = np.empty(min(len(labels), TAKE_ENTRIES), dtype=labels.dtype)
    spare = np.empty_like(ends)
    while True:
        hooked = False
        for start in range(0, len(labels), TAKE_ENTRIES):
            part = labels[start:start + TAKE_ENTRIES]
            far = labels.take(image[start:start + TAKE_ENTRIES],
                              out=ends[:len(part)])
            if np.array_equal(part, far):
                continue
            hooked = True
            near = spare[:len(part)]
            np.copyto(near, part)  # the hooks write into part
            np.minimum.at(labels, near, far)
            np.minimum.at(labels, far, near)
        if not hooked:
            return labels
        jumped = True
        while jumped:  # pointer jumping
            jumped = False
            for start in range(0, len(labels), TAKE_ENTRIES):
                part = labels[start:start + TAKE_ENTRIES]
                up = labels.take(part, out=ends[:len(part)])
                if not np.array_equal(up, part):
                    jumped = True
                    part[:] = up


def _partition(labels: np.ndarray, number: np.ndarray):
    """(class of each item, smallest item per class) of int32 root labels,
    classes numbered by their smallest item: a root's number is the count of
    roots before it.  The roots are numbered ``TAKE_ENTRIES`` labels at a
    time into ``number``, an int32 buffer as long as the labels, and each
    item then reads its root's number.  The classes are int32, written over
    the labels."""
    reps, count = [], 0
    for start in range(0, len(labels), TAKE_ENTRIES):
        part = labels[start:start + TAKE_ENTRIES]
        roots = part == np.arange(start, start + len(part),
                                  dtype=labels.dtype)
        chunk = np.cumsum(roots, dtype=np.int32,
                          out=number[start:start + len(part)])
        chunk += count - 1
        found = np.flatnonzero(roots)
        found += start
        reps.append(found)
        count += len(found)
    return _take(number, labels, out=labels), np.concatenate(reps)


class CosetSpace:
    """Left cosets gH of a subgroup H, with fixed representatives.

    Coset 0 is H itself with the identity as representative; the remaining
    cosets are ordered by their minimal element index (which is also the
    representative).
    """

    def __init__(self, coset_of, reps):
        # (order,) uint8, uint16 or uint32, the smallest dtype that holds
        # n - 1: element index -> coset index
        self.coset_of = coset_of
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
    so the cosets are the values of column p numbered by first occurrence,
    found by a scatter-min of positions over the column, ``TAKE_ENTRIES`` at
    a time, with no sort; otherwise they are the classes of x ~ x o s over
    the generators s.

    The generators are sifted through G's chain, which is complete, so a
    generator is in G exactly when it sifts to the identity.  Raises
    SubgroupNotContained, naming the smallest generator outside G, if there
    is one (then so is the subgroup; otherwise all of it lies in G).  The
    cosets are numbered in the smallest dtype that holds n - 1.
    """
    rows = generator_rows(G.degree, H_gens)
    if G.chain._sift(rows, 0) is not None:
        outside = [tuple(row.tolist()) for row in rows
                   if G.chain._sift(row[None], 0) is not None]
        raise SubgroupNotContained(
            f"subgroup element {min(outside)} is not in the group")
    point = _stabilized_point(G, rows)
    if point is not None:
        column = G.images[:, point]
        first = np.full(G.degree, G.order, dtype=np.int32)  # G.order: unseen
        for start in range(0, G.order, TAKE_ENTRIES):
            part = column[start:start + TAKE_ENTRIES]
            np.minimum.at(first, part, np.arange(
                start, start + len(part), dtype=np.int32))
        reps = np.sort(first[first < G.order])
        number = np.empty(G.degree, dtype=np.min_scalar_type(len(reps) - 1))
        number[column[reps]] = np.arange(len(reps))
        return CosetSpace(_take(number, column), reps.tolist())
    labels = np.arange(G.order, dtype=np.int32)
    image = np.empty(G.order, dtype=np.int32)
    for s in rows:
        labels = merge_labels(labels, _mapped(  # x o s
            G, lambda x: x[:, s], "right multiplication by a subgroup generator",
            out=image))
    coset_of, reps = _partition(labels, image)
    return CosetSpace(coset_of.astype(np.min_scalar_type(len(reps) - 1)),
                      reps.tolist())


class ConjugacyPartition:
    """Partition of a group into conjugacy classes, numbered by their
    smallest element index.

    ``class_of`` (int32 per element) and ``class_reps`` (the smallest element
    index per class) define it; ``sizes`` are counted from ``class_of``,
    ``TAKE_ENTRIES`` elements at a time, so no full-size intp copy of it is
    made.  No member lists are kept: every reader goes through ``class_of``.
    """

    def __init__(self, class_of, class_reps):
        self.class_of = class_of  # (order,) int32
        self.class_reps = class_reps  # minimal element index per class
        # np.add.at takes its fast path on intp counts, not int32
        sizes = np.zeros(len(class_reps), dtype=np.intp)
        for start in range(0, len(class_of), TAKE_ENTRIES):
            np.add.at(sizes, class_of[start:start + TAKE_ENTRIES], 1)
        self.sizes = sizes.tolist()

    @property
    def count(self) -> int:
        return len(self.class_reps)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyPartition:
    """Exact classes: the orbits of conjugation x -> s o x o s^-1 by the
    elements s of ``G.orbit_generators``, which generate G.  The labels and
    one map buffer, refilled for each s and then holding the class numbers,
    are the only full-size arrays it allocates; ``class_of`` is written over
    the labels."""
    labels = np.arange(G.order, dtype=np.int32)
    image = np.empty(G.order, dtype=np.int32)
    for g in G.orbit_generators:
        s = G.images[g]
        s_inv = np.argsort(s)
        def conjugate(x):
            rows = x.take(s_inv, axis=1)  # x o s^-1
            return _take(s, rows, out=rows)  # s o x o s^-1, in place

        labels = merge_labels(labels, _mapped(
            G, conjugate, "conjugation map", out=image))
    class_of, reps = _partition(labels, image)
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
    Ranks, digits and images are int32: ValueError unless n**k < 2^31.
    """
    if not 1 <= k <= n or n ** k >= 2 ** 31:
        raise ValueError(f"need 1 <= k <= n and n**k < 2^31, got k={k}, n={n}")
    labels = np.arange(n ** k, dtype=np.int32)
    digits = [labels // n ** (k - 1 - i) % n for i in range(k)]
    image = np.empty(n ** k, dtype=np.int32)
    digit = np.empty(n ** k, dtype=np.int32)
    for row in action_rows:
        row = np.asarray(row, dtype=np.int32)
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


def check_subset_cap(n: int, eps: int) -> None:
    """Raise SubsetCapExceeded unless the size-``eps`` subsets of n points
    number at most ``SUBSET_CAP``."""
    if not 0 <= eps <= n:
        raise ValueError(f"need 0 <= eps <= n, got eps={eps}, n={n}")
    if math.comb(n, eps) > SUBSET_CAP:
        raise SubsetCapExceeded(
            f"C({n},{eps}) = {math.comb(n, eps)} exceeds cap {SUBSET_CAP}")


def _lex_weights(n: int, eps: int) -> np.ndarray:
    """(eps, n) int32 table: entry (i, a) is C(n - 1 - a, eps - i), capped
    at C(n, eps) <= SUBSET_CAP so that it fits; SubsetCapExceeded past the
    cap.  No subset's rank uses an entry over C(n, eps), so the cap changes
    no rank."""
    check_subset_cap(n, eps)
    total = math.comb(n, eps)
    return np.array([[min(math.comb(n - 1 - a, eps - i), total)
                      for a in range(n)] for i in range(eps)],
                    dtype=np.int32).reshape(eps, n)


def lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Rank of each sorted row among the size-eps subsets of n points, in
    ``itertools.combinations`` (lexicographic) order, in int32;
    SubsetCapExceeded when the subsets number over ``SUBSET_CAP``.

    The weight of a_i counts the subsets that agree before position i and
    exceed a_i there (the combinatorial number system on n - 1 - a).  The
    weights are gathered ``TAKE_ENTRIES`` rows at a time into one chunk
    buffer, so the ranks are the only full-size array made.
    """
    count, eps = subsets.shape
    weights = _lex_weights(n, eps)
    ranks = np.full(count, math.comb(n, eps) - 1, dtype=np.int32)
    weight = np.empty(min(count, TAKE_ENTRIES), dtype=np.int32)
    for start in range(0, count, TAKE_ENTRIES):
        part = ranks[start:start + TAKE_ENTRIES]
        for i in range(eps):
            part -= weights[i].take(subsets[start:start + TAKE_ENTRIES, i],
                                    out=weight[:len(part)])
    return ranks


def lex_subsets(n: int, eps: int) -> np.ndarray:
    """Every size-eps subset of n points as a sorted row, in lexicographic
    order: row r is ``lex_unrank([r], n, eps)``, in its dtype.

    Built in place from the last column.  The j-subsets of eps-j..n-1 fill
    the first C(n - eps + j, j) rows of the last j columns: for each first
    point a in turn, a followed by the last C(n - 1 - a, j - 1) of the
    (j - 1)-subsets, those above a.  For a = eps - j that is all of them,
    already in place, so every entry is written once."""
    out = np.empty((math.comb(n, eps), eps), dtype=np.min_scalar_type(n - 1))
    size = 1  # the empty subset
    for j in range(1, eps + 1):
        column = eps - j
        out[:size, column] = column
        stop = size
        for a in range(column + 1, n - j + 1):
            count = math.comb(n - 1 - a, j - 1)
            out[stop:stop + count, column] = a
            out[stop:stop + count, column + 1:] = out[size - count:size,
                                                      column + 1:]
            stop += count
        size = stop
    return out


def lex_unrank(ranks, n: int, eps: int) -> np.ndarray:
    """Inverse of ``lex_rank``: the sorted subsets of the given ranks, as a
    (len(ranks), eps) array of point indices; SubsetCapExceeded as there."""
    weights = _lex_weights(n, eps)
    rest = math.comb(n, eps) - 1 - np.asarray(ranks, dtype=np.int64)
    out = np.empty((rest.shape[0], eps), dtype=np.min_scalar_type(n - 1))
    for i in range(eps):
        # the smallest point whose weight fits; weights fall along a row
        a = np.searchsorted(-weights[i], -rest, side="left")
        rest -= weights[i][a]
        out[:, i] = a
    return out


def orbits_on_subsets(action_rows, n: int, eps: int) -> np.ndarray:
    """Orbit labels of the action on the size-``eps`` subsets of n points.

    Subsets are numbered by their lexicographic rank (``lex_rank``), and
    ``labels[r]`` is the rank of the smallest member of the orbit of subset r.
    The distinct labels in increasing order are therefore the canonical
    (lexicographically smallest) orbit representatives in report order, and
    their multiplicities are the orbit sizes.

    One pass per row of ``action_rows``: the row maps every subset, the image
    is sorted in place and ranked, and ``merge_labels`` merges it into the
    labels.  Only one row's image (a rank per subset) is held at a time.
    Labels and ranks are int32; SubsetCapExceeded, before any subset is
    built, when the subsets number over ``SUBSET_CAP``.
    """
    check_subset_cap(n, eps)
    subsets = lex_subsets(n, eps)
    labels = np.arange(subsets.shape[0], dtype=np.int32)
    for row in action_rows:
        # images in the subsets' own dtype, the smallest that holds n - 1
        image = _take(np.asarray(row, dtype=subsets.dtype), subsets)
        image.sort(axis=1)
        image = lex_rank(image, n)  # the point rows are freed here
        labels = merge_labels(labels, image)
    return labels


def stabilizer_generators(G: FiniteGroup) -> list[Permutation]:
    """The strong generators of the stabilizer of point 0, from G's chain:
    those that fix point 0 generate Stab(0)."""
    strong = G.chain.strong[G.chain.first_moved >= 1]
    return [tuple(row) for row in strong.tolist()]
