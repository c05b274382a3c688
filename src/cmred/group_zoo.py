"""From-scratch constructors for the example groups, as permutation groups
with the correct point stabilizers.

The linear and unitary families act by fixed generator matrices on their
natural point sets (projective points, isotropic lines), the symplectic
families by transvection maps of the vectors of F2^2m on quadratic forms,
and the group is closed from those permutations; no matrix group is
enumerated.  Correctness never leans on the generator choices: every build
re-derives the group order, the point count, and form preservation, and
raises BuildVerificationError on any mismatch.

Field elements, vectors and matrices over F_q are uint8 arrays, and all
arithmetic is numpy indexing into ``SmallField``'s tables: a stack of k
generator matrices maps all P points in one pass, (k, P) table reads per
product term, as does the form check of every unitary generator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BuildVerificationError, UnsupportedParameter
from .permgroup import FiniteGroup, close_generators, stabilizer_generators

SMALL_FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# reduction of t^deg for the non-prime orders, as coefficient tuples
_IRREDUCIBLE_TAILS = {
    4: (2, (1, 1)),        # t^2 = 1 + t      (t^2 + t + 1 = 0 over F2)
    8: (2, (1, 1, 0)),     # t^3 = 1 + t      (t^3 + t + 1 = 0 over F2)
    9: (3, (2, 0)),        # t^2 = 2          (t^2 + 1 = 0 over F3)
}


class SmallField:
    """Finite field of one of the supported small orders.

    Elements are indexed 0..q-1 with 0 and 1 the additive and multiplicative
    identities; for prime powers the index encodes polynomial coefficients
    base p.  The operations are uint8 tables, read by numpy indexing so that
    one lookup serves whole arrays of operands: ``add[a, b]``, ``mul[a, b]``,
    ``neg[a]`` and ``inv[a]`` (``inv[0]`` is 0, not an inverse).  Field
    axioms are verified exhaustively at construction.
    """

    def __init__(self, q: int):
        if q not in SMALL_FIELD_ORDERS:
            raise UnsupportedParameter(f"unsupported field order {q}")
        self.q = q
        self.p, tail = _IRREDUCIBLE_TAILS.get(q, (q, ()))
        deg = max(len(tail), 1)
        place = self.p ** np.arange(deg)
        digits = np.arange(q)[:, None] // place % self.p  # coefficient of t^i
        a, b = digits[:, None, :], digits[None, :, :]
        # coefficients of t^0..t^(2 deg - 2) of every product, then each t^k
        # with k >= deg rewritten from the top by t^deg = tail
        prod = np.zeros((q, q, 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            prod[..., i:i + deg] += a[..., i, None] * b
        for k in range(2 * deg - 2, deg - 1, -1):
            prod[..., k - deg:k] += prod[..., k, None] * np.array(tail)
        self.add = ((a + b) % self.p @ place).astype(np.uint8)
        self.mul = (prod[..., :deg] % self.p @ place).astype(np.uint8)
        self.neg = (self.add == 0).argmax(axis=1).astype(np.uint8)
        self.inv = (self.mul == 1).argmax(axis=1).astype(np.uint8)
        self._verify_axioms()

    def _verify_axioms(self):
        q, add, mul = self.q, self.add, self.mul
        x = np.arange(q)
        if not ((add[:, 0] == x).all() and (mul[:, 1] == x).all()
                and (mul[:, 0] == 0).all()):
            raise BuildVerificationError(f"identity axiom fails in F{q}")
        if not (add[x, self.neg] == 0).all():
            raise BuildVerificationError(f"no negative for some element of F{q}")
        if not (mul[x[1:], self.inv[1:]] == 1).all():
            raise BuildVerificationError(f"no inverse for some unit of F{q}")
        if not ((add == add.T).all() and (mul == mul.T).all()):
            raise BuildVerificationError(f"commutativity fails in F{q}")
        # both sides at [a, b, c] for every triple
        if not (add[add] == add[:, add]).all():
            raise BuildVerificationError(f"additive assoc fails in F{q}")
        if not (mul[mul] == mul[:, mul]).all():
            raise BuildVerificationError(f"mult assoc fails in F{q}")
        if not (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all():
            raise BuildVerificationError(f"distributivity fails in F{q}")


@functools.lru_cache(maxsize=None)
def small_field(q: int) -> SmallField:
    return SmallField(q)


# ---------------------------------------------------------------------------
# stacks of matrices over a SmallField, as uint8 arrays (..., n, n)

def _mat_mul(F, A, B):
    """A @ B over F for broadcast stacks (..., n, k) and (..., k, m)."""
    terms = F.mul[A[..., :, :, None], B[..., None, :, :]]  # (..., n, k, m)
    return functools.reduce(lambda x, y: F.add[x, y], np.moveaxis(terms, -2, 0))


def _mat_det(F, A):
    """Determinant over F of each matrix of a stack, by the Leibniz formula."""
    n = A.shape[-1]
    det = np.zeros(A.shape[:-2], dtype=np.uint8)
    for perm in itertools.permutations(range(n)):
        term = functools.reduce(lambda x, y: F.mul[x, y],
                                (A[..., i, j] for i, j in enumerate(perm)))
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        det = F.add[det, F.neg[term] if odd else term]
    return det


def _diagonal(columns):
    """The stack of diagonal matrices with the given diagonal columns."""
    n = len(columns)
    out = np.zeros((len(columns[0]), n, n), dtype=np.uint8)
    for i, column in enumerate(columns):
        out[:, i, i] = column
    return out


# ---------------------------------------------------------------------------
# projective actions for PSL / PGL

def _places(F, dim):
    """Place values of the coordinates of a vector read as a base-q code,
    the first coordinate leading."""
    return F.q ** np.arange(dim - 1, -1, -1)


def projective_points(F, dim):
    """(count, dim) uint8 normalized representatives (first nonzero
    coordinate 1), in lex order."""
    v = np.arange(F.q ** dim)[:, None] // _places(F, dim) % F.q
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    return v[lead == 1].astype(np.uint8)


def matrix_point_perms(F, mats, points):
    """(len(mats), len(points)) index of the image of every point under
    every matrix, all in one pass: each image vector is scaled to its
    normalized representative and looked up by its base-q code.  An image
    that is no listed point (or zero) raises BuildVerificationError."""
    images = np.swapaxes(_mat_mul(F, mats, points.T), -1, -2)  # (k, P, dim)
    lead = np.take_along_axis(images, (images != 0).argmax(axis=-1)[..., None],
                              axis=-1)
    places = _places(F, points.shape[1])
    index = np.full(F.q ** points.shape[1], -1)
    index[points @ places] = np.arange(len(points))
    perms = index[F.mul[F.inv[lead], images] @ places]
    if (perms < 0).any():
        raise BuildVerificationError("a generator maps a point off the point set")
    return perms


def _linear_generators(F, dim, linear="special"):
    """(k, dim, dim) elementary transvections I + lambda E_ij over all units,
    for i != j in lex order and lambda innermost, which generate the special
    linear group for every field; for ``linear="general"`` then
    diag(lambda, 1, ..., 1) for the units lambda != 1."""
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    units = np.arange(1, F.q)
    gens = np.tile(np.eye(dim, dtype=np.uint8), (len(pairs) * len(units), 1, 1))
    rows, cols = np.repeat(np.array(pairs), len(units), axis=0).T
    gens[np.arange(len(gens)), rows, cols] = np.tile(units, len(pairs))
    if linear == "general":
        ones = np.ones(F.q - 2, dtype=np.uint8)
        gens = np.concatenate(
            [gens, _diagonal([np.arange(2, F.q)] + [ones] * (dim - 1))])
    return gens


def projective_space_action(F, dim, linear="special"):
    """Point permutations generating the projective (special) linear group
    on the normalized points of the projective space."""
    points = projective_points(F, dim)
    gens = _linear_generators(F, dim, linear)
    return points, matrix_point_perms(F, gens, points).tolist()


# ---------------------------------------------------------------------------
# symplectic groups over F2 acting on quadratic forms

def _psi_f2(u, v, m):
    """Alternating form u_1.v_2-block minus u_2.v_1-block on bitmask vectors."""
    lo = (1 << m) - 1
    return (bin((u & lo) & (v >> m)).count("1")
            + bin((u >> m) & (v & lo)).count("1")) & 1


def _transvection_map(u, m):
    """The symplectic transvection v -> v + psi(v, u) u as the tuple of its
    images of all 2^2m vectors; linear, and an involution over F2."""
    return tuple(v ^ (u if _psi_f2(v, u, m) else 0) for v in range(1 << (2 * m)))


def quadratic_form_value(mask, v):
    return (mask >> v) & 1


def base_quadratic_mask(m, sign):
    """Value bitmask of the standard plus/minus form on F2^{2m}."""
    dim = 2 * m
    lo = (1 << m) - 1
    mask = 0
    for v in range(1 << dim):
        q = bin((v & lo) & (v >> m)).count("1") & 1
        if sign == "-":
            q ^= ((v >> (m - 1)) & 1) ^ ((v >> (dim - 1)) & 1)
        mask |= q << v
    return mask


def _apply_to_form(vec_map, mask, dim):
    # (x . Q)(v) = Q(x^{-1} v); vec_map must be the map of x^{-1}
    out = 0
    for v in range(1 << dim):
        out |= quadratic_form_value(mask, vec_map[v]) << v
    return out


# Transvection directions used as generators.  For m=2 every nonzero vector
# is cheap enough; for m=3 this fixed 8-vector set (basis plus e1+e5, e2+e6)
# closes to the full group, which the build re-verifies against the derived
# order on every run.
_SP_TRANSVECTION_DIRS = {2: range(1, 16), 3: (1, 2, 4, 8, 16, 32, 17, 34)}


def symplectic_quadratic_action(m, sign):
    """Point set (forms of the chosen type) and generator permutations for
    the symplectic group acting on quadratic forms polarizing to psi."""
    dim = 2 * m
    vec_maps = [_transvection_map(u, m) for u in _SP_TRANSVECTION_DIRS[m]]
    basis = [1 << k for k in range(dim)]
    for t in vec_maps:  # linear, so psi on basis pairs is psi everywhere
        if any(t[t[v]] != v for v in range(1 << dim)):
            raise BuildVerificationError("transvection generator not an involution")
        if any(_psi_f2(t[a], t[b], m) != _psi_f2(a, b, m)
               for a in basis for b in basis):
            raise BuildVerificationError("generator is not symplectic")

    base = base_quadratic_mask(m, sign)
    points = [base]
    index = {base: 0}
    frontier = [base]
    while frontier:
        frontier = sorted({_apply_to_form(vm, mask, dim) for vm in vec_maps
                           for mask in frontier} - index.keys())
        for mask in frontier:
            index[mask] = len(points)
            points.append(mask)
    expected = (1 << (dim - 1)) + (1 << (m - 1)) * (1 if sign == "+" else -1)
    if len(points) != expected:
        raise BuildVerificationError(
            f"expected {expected} forms of type {sign}, found {len(points)}")
    perms = [tuple(index[_apply_to_form(vm, mask, dim)] for mask in points)
             for vm in vec_maps]
    return points, perms


def symplectic_group_order(m):
    order = 1 << (m * m)
    for i in range(1, m + 1):
        order *= (1 << (2 * i)) - 1
    return order


# ---------------------------------------------------------------------------
# unitary groups acting on isotropic points

def _frobenius_table(F, q):
    """x -> x^q on every element of F, as a uint8 table."""
    x = np.arange(F.q, dtype=np.uint8)
    out = np.ones_like(x)
    for _ in range(q):
        out = F.mul[out, x]
    return out


def _hermitian_self(F, frob, vectors):
    """h(v, v) = v_1 v_3^q + v_2 v_2^q + v_3 v_1^q of each vector."""
    terms = F.mul[vectors, frob[vectors[..., ::-1]]]
    return functools.reduce(lambda x, y: F.add[x, y], np.moveaxis(terms, -1, 0))


def isotropic_points(F, frob):
    """(count, 3) normalized isotropic lines, the span of (1,0,0) first,
    then lex."""
    pts = projective_points(F, 3)
    pts = pts[_hermitian_self(F, frob, pts) == 0]
    e1 = (pts == (1, 0, 0)).all(axis=1)
    if not e1.any():
        raise BuildVerificationError("span of e1 is not isotropic")
    return np.concatenate([pts[e1], pts[~e1]])


def _unitary_root_elements(F, frob, q):
    """Upper unitriangular form-preserving matrices [[1,a,b],[0,1,-a^q],[0,0,1]]
    with b + b^q + a^{q+1} = 0, a outer and b inner; there are q^3 of them."""
    x = np.arange(F.q)
    a, b = np.nonzero(F.add[F.mul[x, frob][:, None], F.add[x, frob][None, :]] == 0)
    if len(a) != q ** 3:
        raise BuildVerificationError("root subgroup has wrong size")
    out = _diagonal([np.ones(len(a), dtype=np.uint8)] * 3)
    out[:, 0, 1], out[:, 0, 2], out[:, 1, 2] = a, b, F.neg[frob[a]]
    return out


def _unitary_generators(F, frob, q, flavor):
    """(k, 3, 3) generator matrices: the root elements, the diagonal ones
    diag(lambda, mu, lambda^-q) (every unit mu of norm 1 for pgu, mu =
    lambda^(q-1) for psu, lambda outer) and the antidiagonal w.  Each must
    satisfy A^T J frob(A) = J, J the antidiagonal Gram matrix of the form,
    and for psu have determinant 1."""
    units = np.arange(1, F.q)
    if flavor == "pgu":
        norm_one = units[F.mul[units, frob[units]] == 1]
        lam = np.repeat(units, len(norm_one))
        mu = np.tile(norm_one, len(units))
    else:
        lam = units
        mu = F.mul[frob[units], F.inv[units]]  # lambda^{q-1}
    w = np.array([[[0, 0, 1], [0, F.neg[1], 0], [1, 0, 0]]], dtype=np.uint8)
    gens = np.concatenate([_unitary_root_elements(F, frob, q),
                           _diagonal([lam, mu, F.inv[frob[lam]]]), w])
    J = np.eye(3, dtype=np.uint8)[::-1]
    # J frob(A) is frob(A) with its rows reversed
    gram = _mat_mul(F, np.swapaxes(gens, 1, 2), frob[gens][:, ::-1])
    if not (gram == J).all():
        raise BuildVerificationError("generator does not preserve the form")
    if flavor == "psu" and not (_mat_det(F, gens) == 1).all():
        raise BuildVerificationError("special generator has determinant != 1")
    return gens


def unitary_group_order(q, flavor):
    gu = q ** 3 * (q + 1) * (q * q - 1) * (q ** 3 + 1)
    if flavor == "pgu":
        return gu // (q + 1)
    su = gu // (q + 1)
    return su // math.gcd(3, q + 1)


def unitary_isotropic_action(q, flavor):
    """Points (isotropic lines) and generator permutations for the projective
    (special) unitary group of degree 3."""
    F = small_field(q * q)
    frob = _frobenius_table(F, q)
    points = isotropic_points(F, frob)
    if len(points) != q ** 3 + 1:
        raise BuildVerificationError(
            f"expected {q ** 3 + 1} isotropic points, found {len(points)}")
    gens = _unitary_generators(F, frob, q, flavor)
    return points, matrix_point_perms(F, gens, points).tolist()


# ---------------------------------------------------------------------------
# the zoo

# family -> accepted parameters, in listing order
_PARAMS = {
    "sym": range(1, 10), "alt": range(1, 11),
    "cyclic": range(1, 65), "dihedral": range(3, 65),
    "psl2": SMALL_FIELD_ORDERS, "pgl2": SMALL_FIELD_ORDERS, "psl3": (2,),
    "sp4f2": ("+", "-"), "sp6f2": ("+", "-"), "psu3": (2, 3), "pgu3": (2, 3),
}


@dataclass(frozen=True)
class ZooSpec:
    family: str
    param: str

    def __str__(self):
        return f"{self.family}:{self.param}"


def parse_zoo_spec(text: str) -> ZooSpec:
    if ":" not in text:
        raise UnsupportedParameter(
            f"zoo spec must look like family:parameter, got {text!r}")
    family, param = text.split(":", 1)
    if family not in _PARAMS:
        raise UnsupportedParameter(f"unknown family {family!r}")
    accepted = _PARAMS[family]
    if "+" in accepted:
        if param not in accepted:
            raise UnsupportedParameter(
                f"{family} takes parameter '+' or '-', got {param!r}")
        return ZooSpec(family, param)
    try:
        n = int(param)
    except ValueError:
        raise UnsupportedParameter(f"{family} takes an integer parameter, got {param!r}")
    if n not in accepted:
        raise UnsupportedParameter(f"{family}:{n} outside the supported range")
    return ZooSpec(family, str(n))


def _shown(family):
    """A family's accepted parameters as the listing writes them."""
    params = _PARAMS[family]
    if isinstance(params, range):
        return f"{params.start}..{params.stop - 1}"
    return "{" + ",".join(map(str, params)) + "}"


def zoo_list():
    """Specs with display metadata for the CLI listing."""
    return [
        ("sym:n", f"symmetric group, n in {_shown('sym')}, natural action"),
        ("alt:n", f"alternating group, n in {_shown('alt')}, natural action; "
                  "alt:10 gated"),
        ("cyclic:n", f"cyclic rotation group, n in {_shown('cyclic')}, "
                     "regular action"),
        ("dihedral:n", f"dihedral group, n in {_shown('dihedral')}, "
                       "polygon action"),
        ("psl2:q", "projective special linear group on the projective line, "
                   f"q in {_shown('psl2')}"),
        ("pgl2:q", "projective general linear group on the projective line, "
                   f"q in {_shown('pgl2')}"),
        ("psl3:2", "projective special linear group on the 7 points of the "
                   "projective plane over F2"),
        ("sp4f2:+|-", "symplectic group Sp4(F2) on quadratic forms of the "
                      "given type (10 or 6 points)"),
        ("sp6f2:+|-", "symplectic group Sp6(F2) on quadratic forms of the "
                      "given type (36 or 28 points); large, gated"),
        ("psu3:q", "projective special unitary group on isotropic points, "
                   f"q in {_shown('psu3')}"),
        ("pgu3:q", "projective general unitary group on isotropic points, "
                   f"q in {_shown('pgu3')}"),
    ]


def _alternating_gens(n):
    """Consecutive 3-cycles (t t+1 t+2): a provably generating set for the
    alternating group on n points."""
    gens = []
    for t in range(n - 2):
        img = list(range(n))
        img[t], img[t + 1], img[t + 2] = t + 1, t + 2, t
        gens.append(tuple(img))
    return gens


def zoo_order(spec) -> int:
    """|G| of a zoo spec, from the order formula of its family; the trivial
    sym:1, alt:1, alt:2 and cyclic:1 have order 1."""
    if isinstance(spec, str):
        spec = parse_zoo_spec(spec)
    family, param = spec.family, spec.param
    if family in ("sp4f2", "sp6f2"):
        return symplectic_group_order(2 if family == "sp4f2" else 3)
    n = int(param)
    if family == "sym":
        return math.factorial(n)
    if family == "alt":
        return max(1, math.factorial(n) // 2)
    if family == "cyclic":
        return n
    if family == "dihedral":
        return 2 * n
    if family == "psl2":
        return n * (n * n - 1) // math.gcd(2, n - 1)
    if family == "pgl2":
        return n * (n * n - 1)
    if family == "psl3":
        return 168
    if family in ("psu3", "pgu3"):
        return unitary_group_order(n, family[:3])
    raise UnsupportedParameter(f"unknown family {family!r}")


def _zoo_action(spec) -> tuple[int, list]:
    """Degree and generator permutations of a zoo spec's stated action."""
    family, param = spec.family, spec.param
    if family in ("sp4f2", "sp6f2"):
        points, perms = symplectic_quadratic_action(
            2 if family == "sp4f2" else 3, param)
        return len(points), perms
    n = int(param)
    rot = tuple((i + 1) % n for i in range(n))
    if family == "sym":
        swap = tuple([1, 0] + list(range(2, n)))
        return n, [] if n == 1 else [swap] if n == 2 else [swap, rot]
    if family == "alt":
        return max(n, 1), _alternating_gens(n)
    if family == "cyclic":
        return n, [] if n == 1 else [rot]
    if family == "dihedral":
        return n, [rot, tuple((n - i) % n for i in range(n))]
    if family in ("psl2", "pgl2"):
        _, perms = projective_space_action(
            small_field(n), 2, linear="general" if family == "pgl2" else "special")
        return n + 1, perms
    if family == "psl3":
        _, perms = projective_space_action(small_field(2), 3)
        return 7, perms
    if family in ("psu3", "pgu3"):
        points, perms = unitary_isotropic_action(n, family[:3])
        return len(points), perms
    raise UnsupportedParameter(f"unknown family {family!r}")


def build(spec) -> tuple[FiniteGroup, list]:
    """Permutation group and stabilizer generators for a zoo spec.

    The subgroup is the stabilizer of point 0 of the stated action; every
    build checks the stabilizer chain's order against ``zoo_order`` before
    the closure starts, and the derived point counts.
    """
    if isinstance(spec, str):
        spec = parse_zoo_spec(spec)
    G = close_generators(*_zoo_action(spec), order=zoo_order(spec))
    return G, stabilizer_generators(G)
