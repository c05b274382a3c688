"""Whole matrix groups over the small fields, enumerated element by element,
and matrices acting on points one at a time.

The zoo never enumerates a matrix group: it acts with generators on points
and closes the permutations, every matrix on every point at once in numpy.
The tuple helpers here do the same arithmetic one entry at a time: matrices
are row-major tuples of tuples of Python ints, and each field operation is
one read of the field's tables.  These breadth-first closures over the
matrices (and, for Sp4(F2), over the maps of all vectors), the point-by-point
maps, and the list of every quadratic form that polarizes to the alternating
form are the independent side the tests check the built actions against.
"""

import functools

import numpy as np

from cmred.errors import BuildVerificationError
from cmred.group_zoo import base_quadratic_mask, quadratic_form_value


def add(F, a, b):
    return int(F.add[a, b])


def mul(F, a, b):
    return int(F.mul[a, b])


def sub(F, a, b):
    return int(F.add[a, F.neg[b]])


def as_tuples(mats):
    """Row-major tuples of a stack of matrices (a numpy array)."""
    return [tuple(map(tuple, A)) for A in mats.tolist()]


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F, A, B):
    n = len(A)
    return tuple(
        tuple(functools.reduce(lambda x, y: add(F, x, y),
                               (mul(F, A[i][k], B[k][j]) for k in range(n)))
              for j in range(n))
        for i in range(n))


def mat_vec(F, A, v):
    n = len(A)
    return tuple(
        functools.reduce(lambda x, y: add(F, x, y),
                         (mul(F, A[i][k], v[k]) for k in range(n)))
        for i in range(n))


def mat_det(F, A):
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return sub(F, mul(F, A[0][0], A[1][1]), mul(F, A[0][1], A[1][0]))
    if n == 3:
        total = 0
        for j in range(3):
            minor = sub(F, mul(F, A[1][(j + 1) % 3], A[2][(j + 2) % 3]),
                        mul(F, A[1][(j + 2) % 3], A[2][(j + 1) % 3]))
            total = add(F, total, mul(F, A[0][j], minor))
        return total
    raise ValueError("determinant implemented for n <= 3")


def hermitian_form(F, frob, u, v):
    """u_1 v_3^q + u_2 v_2^q + u_3 v_1^q over the quadratic extension."""
    total = 0
    for a, b in ((u[0], v[2]), (u[1], v[1]), (u[2], v[0])):
        total = add(F, total, mul(F, a, int(frob[b])))
    return total


def normalize_point(F, v):
    """The multiple of a nonzero vector whose first nonzero coordinate is 1."""
    k = next(i for i, x in enumerate(v) if x)
    s = int(F.inv[v[k]])
    return tuple(mul(F, s, x) for x in v)


def matrix_point_perm(F, A, points, index):
    """Image index of every point under A, one point at a time; ``index``
    maps each normalized point tuple to its position."""
    return tuple(index[normalize_point(F, mat_vec(F, A, p))] for p in points)


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
    """BFS closure of a matrix generating set, a stack of matrices
    (deterministic order)."""
    gens = as_tuples(np.asarray(gens))
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


def field_tables(q, p, tail):
    """(add, mul) of F_q as lists of lists, by polynomial arithmetic over
    F_p one coefficient at a time: element e has coefficients e // p^k % p,
    and t^deg reduces to the coefficients ``tail`` (empty for q = p)."""
    deg = max(len(tail), 1)

    def poly(e):
        return [e // p ** k % p for k in range(deg)]

    def index(cs):
        return sum(c % p * p ** k for k, c in enumerate(cs))

    def times(x, y):
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for k in range(2 * deg - 2, deg - 1, -1):
            for j, t in enumerate(tail):
                prod[k - deg + j] += prod[k] * t
        return prod[:deg]

    add = [[index([a + b for a, b in zip(poly(x), poly(y))]) for y in range(q)]
           for x in range(q)]
    mul = [[index(times(poly(x), poly(y))) for y in range(q)] for x in range(q)]
    return add, mul
