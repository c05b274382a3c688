"""Whole matrix groups over the small fields, enumerated element by element.

The zoo never enumerates a matrix group: it acts with generator matrices on
points and closes the permutations.  These breadth-first closures over the
matrices themselves, and the list of every quadratic form that polarizes to
the alternating form, are the independent side the tests check the built
actions against.
"""

import functools

from cmred.errors import BuildVerificationError
from cmred.group_zoo import (
    _colmat_mul,
    _transvection_cols,
    base_quadratic_mask,
    mat_identity,
    quadratic_form_value,
)


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


def enumerate_symplectic_matrices(m, cap=10_000):
    """Full matrix enumeration by BFS over all transvections (column-bitmask
    representation); only sensible for m = 2."""
    gens = [_transvection_cols(u, m) for u in range(1, 1 << (2 * m))]
    return _bfs(tuple(1 << k for k in range(2 * m)), gens, _colmat_mul, cap)


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
