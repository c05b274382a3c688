"""From-scratch constructors for the example groups, as permutation groups
with the correct point stabilizers.

The linear and unitary families act by fixed generator matrices on their
natural point sets (projective points, isotropic lines), the symplectic
families by transvection maps of the vectors of F2^2m on quadratic forms,
and the group is closed from those permutations; no matrix group is
enumerated.  Correctness never leans on the generator choices: every build
re-derives the group order, the point count, and form preservation, and
raises BuildVerificationError on any mismatch.
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
    base p.  Field axioms are verified exhaustively at construction.
    """

    def __init__(self, q: int):
        if q not in SMALL_FIELD_ORDERS:
            raise UnsupportedParameter(f"unsupported field order {q}")
        self.q = q
        if q in _IRREDUCIBLE_TAILS:
            p, tail = _IRREDUCIBLE_TAILS[q]
            deg = len(tail)
        else:
            p, tail, deg = q, (), 1
        self.p = p
        self.deg = deg

        def to_poly(e):
            return tuple((e // p ** k) % p for k in range(deg))

        def from_poly(cs):
            return sum(c * p ** k for k, c in enumerate(cs))

        def poly_mul(a, b):
            prod = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for k in range(2 * deg - 2, deg - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for j, t in enumerate(tail):
                        prod[k - deg + j] = (prod[k - deg + j] + c * t) % p
            return tuple(prod[:deg])

        self.add_table = [[0] * q for _ in range(q)]
        self.mul_table = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = to_poly(a)
            for b in range(q):
                pb = to_poly(b)
                self.add_table[a][b] = from_poly(
                    tuple((x + y) % p for x, y in zip(pa, pb)))
                self.mul_table[a][b] = from_poly(poly_mul(pa, pb))
        self.neg_table = [0] * q
        self.inv_table = [None] * q
        for a in range(q):
            for b in range(q):
                if self.add_table[a][b] == 0:
                    self.neg_table[a] = b
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
        self._verify_axioms()

    def _verify_axioms(self):
        q, add, mul = self.q, self.add_table, self.mul_table
        for a in range(q):
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise BuildVerificationError(f"identity axiom fails in F{q}")
            if a and self.inv_table[a] is None:
                raise BuildVerificationError(f"no inverse for {a} in F{q}")
            for b in range(q):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise BuildVerificationError(f"commutativity fails in F{q}")
                for c in range(q):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise BuildVerificationError(f"additive assoc fails in F{q}")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise BuildVerificationError(f"mult assoc fails in F{q}")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise BuildVerificationError(f"distributivity fails in F{q}")

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inv_table[a]

    def pow(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul_table[out][a]
        return out

    def units(self):
        return range(1, self.q)


@functools.lru_cache(maxsize=None)
def small_field(q: int) -> SmallField:
    return SmallField(q)


# ---------------------------------------------------------------------------
# matrices over a SmallField (row-major tuples of tuples)

def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(F, A, v):
    n = len(A)
    return tuple(
        functools.reduce(F.add, (F.mul(A[i][k], v[k]) for k in range(n)))
        for i in range(n))


def mat_det(F, A):
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return F.sub(F.mul(A[0][0], A[1][1]), F.mul(A[0][1], A[1][0]))
    if n == 3:
        total = 0
        for j in range(3):
            minor = F.sub(F.mul(A[1][(j + 1) % 3], A[2][(j + 2) % 3]),
                          F.mul(A[1][(j + 2) % 3], A[2][(j + 1) % 3]))
            total = F.add(total, F.mul(A[0][j], minor))
        return total
    raise ValueError("determinant implemented for n <= 3")


# ---------------------------------------------------------------------------
# projective actions for PSL / PGL

def projective_points(F, dim):
    """Normalized representatives (first nonzero coordinate 1), lex order."""
    pts = []
    for v in itertools.product(range(F.q), repeat=dim):
        if any(v):
            k = next(i for i, x in enumerate(v) if x)
            if v[k] == 1:
                pts.append(v)
    return pts


def normalize_point(F, v):
    k = next(i for i, x in enumerate(v) if x)
    s = F.inv(v[k])
    return tuple(F.mul(s, x) for x in v)


def matrix_point_perm(F, A, points, index):
    return tuple(index[normalize_point(F, mat_vec(F, A, p))] for p in points)


def _special_linear_gens(F, dim):
    """Elementary transvections I + lambda E_ij over all units; these
    generate the special linear group for every field."""
    gens = []
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            for lam in F.units():
                m = [list(r) for r in mat_identity(dim)]
                m[i][j] = lam
                gens.append(tuple(tuple(r) for r in m))
    return gens


def projective_space_action(F, dim, linear="special"):
    """Point permutations generating the projective (special) linear group
    on the normalized points of the projective space."""
    points = projective_points(F, dim)
    index = {p: i for i, p in enumerate(points)}
    gens = _special_linear_gens(F, dim)
    if linear == "general":
        for lam in F.units():
            if lam != 1:
                m = [list(r) for r in mat_identity(dim)]
                m[0][0] = lam
                gens.append(tuple(tuple(r) for r in m))
    perms = []
    for A in gens:
        perms.append(matrix_point_perm(F, A, points, index))
    return points, perms


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

def hermitian_form(F, frob, u, v):
    """u_1 v_3^q + u_2 v_2^q + u_3 v_1^q over the quadratic extension."""
    total = 0
    for a, b in ((u[0], v[2]), (u[1], v[1]), (u[2], v[0])):
        total = F.add(total, F.mul(a, frob[b]))
    return total


def _frobenius_table(F, q):
    return [F.pow(a, q) for a in range(F.q)]


def isotropic_points(F, frob):
    """Normalized isotropic lines, the span of (1,0,0) first, then lex."""
    pts = [p for p in projective_points(F, 3)
           if hermitian_form(F, frob, p, p) == 0]
    e1 = (1, 0, 0)
    if e1 not in pts:
        raise BuildVerificationError("span of e1 is not isotropic")
    return [e1] + sorted(p for p in pts if p != e1)


def _unitary_root_elements(F, frob, q):
    """Upper unitriangular form-preserving matrices [[1,a,b],[0,1,-a^q],[0,0,1]]
    with b + b^q + a^{q+1} = 0; there are q^3 of them."""
    out = []
    for a in range(F.q):
        aq1 = F.mul(a, frob[a])
        for b in range(F.q):
            if F.add(F.add(b, frob[b]), aq1) == 0:
                out.append(((1, a, b), (0, 1, F.neg(frob[a])), (0, 0, 1)))
    if len(out) != q ** 3:
        raise BuildVerificationError("root subgroup has wrong size")
    return out


def _unitary_generators(F, frob, q, flavor):
    gens = list(_unitary_root_elements(F, frob, q))
    norm_one = [lam for lam in F.units() if F.mul(lam, frob[lam]) == 1]
    if flavor == "pgu":
        for lam in F.units():
            for mu in norm_one:
                gens.append(((lam, 0, 0), (0, mu, 0), (0, 0, F.inv(frob[lam]))))
    else:
        for lam in F.units():
            mu = F.mul(frob[lam], F.inv(lam))  # lambda^{q-1}
            gens.append(((lam, 0, 0), (0, mu, 0), (0, 0, F.inv(frob[lam]))))
    w = ((0, 0, 1), (0, F.neg(1), 0), (1, 0, 0))
    gens.append(w)
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for A in gens:
        for u in basis:
            for v in basis:
                if hermitian_form(F, frob, mat_vec(F, A, u), mat_vec(F, A, v)) \
                        != hermitian_form(F, frob, u, v):
                    raise BuildVerificationError("generator does not preserve the form")
        if flavor == "psu" and mat_det(F, A) != 1:
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
    index = {p: i for i, p in enumerate(points)}
    perms = [matrix_point_perm(F, A, points, index)
             for A in _unitary_generators(F, frob, q, flavor)]
    return points, perms


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


def _alternating_gens(points):
    """Consecutive 3-cycles: a provably generating set for the alternating
    group on the listed points."""
    k = len(points)
    if k < 3:
        return []
    gens = []
    for t in range(k - 2):
        a, b, c = points[t], points[t + 1], points[t + 2]
        n = max(points) + 1
        img = list(range(n))
        img[a], img[b], img[c] = b, c, a
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
        return max(n, 1), _alternating_gens(list(range(n)))
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
