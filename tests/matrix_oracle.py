"""Whole matrix groups over the small fields, enumerated element by element.

The zoo never enumerates a matrix group: it acts with generators on points
and closes the permutations.  These breadth-first closures over the matrices
(and, for Sp4(F2), over the maps of all vectors), and the list of every
quadratic form that polarizes to the alternating form, are the independent
side the tests check the built actions against.
"""

import functools

from cmred.errors import BuildVerificationError
from cmred.group_zoo import base_quadratic_mask, mat_identity, quadratic_form_value


def mat_mul(F, A, B):
    n = len(A)
    return tuple(
        tuple(functools.reduce(F.add, (F.mul(A[i][k], B[k][j]) for k in range(n)))
              for j in range(n))
        for i in range(n))


def _bfs(ident, gens, product, cap):
    """Every product of the generators, in BFS order from ``ident``."""
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in gens:
            for x in frontier:
                y = product(g, x)
                if y not in seen:
                    if len(order) >= cap:
                        raise BuildVerificationError("matrix closure exceeded cap")
                    seen.add(y)
                    order.append(y)
                    new.append(y)
        frontier = new
    return order


def close_matrices(F, gens, cap=2_000_000):
    """BFS closure of a matrix generating set (deterministic order)."""
    return _bfs(mat_identity(len(gens[0])), gens,
                lambda g, x: mat_mul(F, g, x), cap)


def psi(u, v, m):
    """The alternating form sum_i u_i v_{m+i} + u_{m+i} v_i over F2, on
    vectors written as bitmasks, one coordinate at a time."""
    return sum((u >> i & 1) * (v >> (m + i) & 1) + (u >> (m + i) & 1) * (v >> i & 1)
               for i in range(m)) & 1


def enumerate_symplectic_maps(m, cap=10_000):
    """Every product of the transvections v -> v + psi(v, u) u, each as the
    tuple of its images of all 2^2m vectors, by BFS from the identity; only
    sensible for m = 2."""
    vectors = range(1 << (2 * m))
    gens = [tuple(v ^ (u if psi(v, u, m) else 0) for v in vectors)
            for u in vectors[1:]]
    return _bfs(tuple(vectors), gens, lambda g, x: tuple(g[y] for y in x), cap)


def polarizing_form_masks(m):
    """All quadratic forms whose polarization is the standard alternating
    form: the base form shifted by every linear functional."""
    dim = 2 * m
    base = base_quadratic_mask(m, "+")
    masks = []
    for a in range(1 << dim):
        mask = 0
        for v in range(1 << dim):
            bit = quadratic_form_value(base, v) ^ (bin(a & v).count("1") & 1)
            mask |= bit << v
        masks.append(mask)
    return masks
