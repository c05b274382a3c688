"""Reference orbit computations that share no code with the label engine.

``tuple_bfs_orbits`` is a breadth-first search over sorted index tuples, and
``oracle_orbit_table`` builds the report's orbit table from it with explicit
complement sets; neither uses lexicographic ranks.  ``tuple_bfs_k_transitive``
searches the ordered k-tuples of distinct points the same way.  ``burnside_counts`` gives
the orbit count of every stratum by the Cauchy-Frobenius lemma, with no orbit
search at all.
"""

import collections
import itertools
import math


def tuple_bfs_orbits(action_rows, n, eps):
    """Orbits on size-eps subsets, listed by canonical (lexicographically
    smallest) representative, members sorted."""
    rows = [tuple(int(x) for x in r) for r in action_rows]
    seen = set()
    orbits = []
    for s in itertools.combinations(range(n), eps):
        if s in seen:
            continue
        queue = [s]
        seen.add(s)
        members = []
        while queue:
            t = queue.pop()
            members.append(t)
            for row in rows:
                img = tuple(sorted(row[p] for p in t))
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        orbits.append(sorted(members))
    return orbits


def tuple_bfs_k_transitive(action_rows, n, k):
    """(first orbit is every ordered k-tuple of distinct points, orbit count
    on those tuples), by a depth-first search over image tuples."""
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
    return (first_orbit_size == math.perm(n, k), orbit_count)


def _stratum(orbits):
    return {"count": len(orbits), "sizes": [len(o) for o in orbits],
            "reps": [list(o[0]) for o in orbits]}


def oracle_orbit_table(action_rows, n, eps_max):
    """``OrbitTable.to_dict(eps_max)`` from the tuple BFS and complement sets."""
    points = set(range(n))
    table = {}
    for eps in range(min(eps_max, n) + 1):
        orbits = tuple_bfs_orbits(action_rows, n, eps)
        if 2 * eps != n:
            # the merged orbit's rep is the shorter of the orbit's smallest
            # member and its members' complements
            full = _stratum(orbits)
            full["reps"] = [
                list(min([o[0]] + [tuple(sorted(points - set(s))) for s in o],
                         key=lambda t: (len(t), t)))
                for o in orbits]
        else:
            orbit_of = {s: k for k, o in enumerate(orbits) for s in o}
            merged, done = [], set()
            for k, o in enumerate(orbits):
                if k in done:
                    continue
                partner = orbit_of[tuple(sorted(points - set(o[0])))]
                done |= {k, partner}
                merged.append(sorted(set(o) | set(orbits[partner])))
            full = _stratum(merged)
        table[str(eps)] = {"bit0": _stratum(orbits), "full": full}
    return table


def cycle_lengths(perm):
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def burnside_counts(elements, n):
    """Orbit count on the size-eps subsets for eps = 0..n, by
    Cauchy-Frobenius: the average over the group of the number of fixed
    subsets, [x^eps] of the product over cycles of (1 + x^len)."""
    types = collections.Counter(tuple(sorted(cycle_lengths(g)))
                                for g in elements)
    fixed = [0] * (n + 1)
    for lengths, count in types.items():
        poly = [1] + [0] * n
        for length in lengths:
            poly = [poly[k] + (poly[k - length] if k >= length else 0)
                    for k in range(n + 1)]
        fixed = [a + count * b for a, b in zip(fixed, poly)]
    order = sum(types.values())
    assert all(f % order == 0 for f in fixed)
    return [f // order for f in fixed]
