import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from cmred.errors import BuildVerificationError, UnsupportedParameter
from cmred.group_zoo import (
    SMALL_FIELD_ORDERS,
    SmallField,
    ZooSpec,
    _IRREDUCIBLE_TAILS,
    _frobenius_table,
    _linear_generators,
    matrix_point_perms,
    projective_space_action,
    unitary_isotropic_action,
    base_quadratic_mask,
    build,
    isotropic_points,
    parse_zoo_spec,
    projective_points,
    quadratic_form_value,
    small_field,
    symplectic_group_order,
    unitary_group_order,
    zoo_list,
    zoo_order,
    _psi_f2,
    _unitary_generators,
    _zoo_action,
)
from cmred import permgroup
from cmred.permgroup import (
    _take,
    close_generators,
    conjugacy_classes,
    left_cosets,
)
from matrix_oracle import (
    as_tuples,
    close_matrices,
    enumerate_symplectic_maps,
    field_tables,
    hermitian_form,
    mat_det,
    mat_vec,
    matrix_point_perm,
    polarizing_form_masks,
    psi,
)
from perm_oracle import build_zoo_model, inv, mul, perm, zoo_specs


def test_small_fields_construct_and_verify():
    # construction runs the exhaustive axiom check; spot arithmetic on top
    for q in SMALL_FIELD_ORDERS:
        F = small_field(q)
        assert F.add[1, F.neg[1]] == 0
        for a in range(1, q):
            assert F.mul[a, F.inv[a]] == 1
        # Frobenius x -> x^p is additive
        frob = _frobenius_table(F, F.p)
        for a in range(q):
            for b in range(q):
                assert frob[F.add[a, b]] == F.add[frob[a], frob[b]]


def test_field_tables_match_polynomial_arithmetic():
    for q in SMALL_FIELD_ORDERS:
        F = small_field(q)
        p, tail = _IRREDUCIBLE_TAILS.get(q, (q, ()))
        add, mul = field_tables(q, p, tail)
        assert F.p == p and F.add.tolist() == add and F.mul.tolist() == mul, q


@pytest.mark.parametrize("table, entries, message", [
    ("mul", [(2, 1)], "identity"), ("neg", [(3,)], "no negative"),
    ("inv", [(3,)], "no inverse"), ("mul", [(4, 5)], "commutativity"),
    ("add", [(2, 3), (3, 2)], "additive assoc"),
    ("mul", [(2, 3), (3, 2)], "mult assoc")])
def test_a_wrong_field_table_fails_the_axioms(table, entries, message):
    F = SmallField(7)
    for at in entries:
        getattr(F, table)[at] = (getattr(F, table)[at] + 1) % 7
    with pytest.raises(BuildVerificationError, match=message):
        F._verify_axioms()


def test_a_relabelled_multiplication_fails_only_distributivity():
    # exchanging 2 and 3 in mul and inv alone gives an isomorphic
    # multiplicative monoid, so only the check that mixes add and mul fails
    F = SmallField(7)
    swap = np.array([0, 1, 3, 2, 4, 5, 6])
    F.mul = swap[F.mul[swap][:, swap]].astype(np.uint8)
    F.inv = swap[F.inv[swap]].astype(np.uint8)
    with pytest.raises(BuildVerificationError, match="distributivity"):
        F._verify_axioms()


def test_small_field_unsupported():
    with pytest.raises(UnsupportedParameter):
        small_field(6)


def test_parse_zoo_spec():
    assert parse_zoo_spec("sym:4") == ZooSpec("sym", "4")
    assert parse_zoo_spec("sp4f2:+") == ZooSpec("sp4f2", "+")
    for bad in ("sym", "nope:3", "sym:x", "sym:99", "psl2:6", "sp4f2:2", "psu3:4"):
        with pytest.raises(UnsupportedParameter):
            parse_zoo_spec(bad)


# sha256 of every accepted spec's (spec, degree, generator permutations,
# zoo_order), then of zoo_list(); only a change meant to alter an action or
# the listing records a new one
ZOO_DIGEST = "b48de8fc511b4aa5d2f98bd490fff5f5f64ed769cfd37caeb460a2bd372ca653"


def test_every_zoo_action_is_pinned():
    families = [name.split(":")[0] for name, _ in zoo_list()]
    specs = []
    for family in families:
        for param in [*map(str, range(66)), "+", "-"]:
            try:
                specs.append(parse_zoo_spec(f"{family}:{param}"))
            except UnsupportedParameter:
                pass
    assert [str(spec) for spec in specs] == zoo_specs() and len(specs) == 172
    digest = hashlib.sha256()
    for spec in specs:
        degree, perms = _zoo_action(spec)
        digest.update(json.dumps(
            [str(spec), degree, [list(p) for p in perms], zoo_order(spec)]).encode())
    digest.update(json.dumps(zoo_list()).encode())
    assert digest.hexdigest() == ZOO_DIGEST


# sha256 of every spec of order at most 10^6: its name and element-list
# shape, then the bytes of its built group's element list and rank index, in
# listing order; only a change meant to alter an enumeration records a new one
ELEMENTS_DIGEST = "bcaf2e0a72892869ace0bfb271f17c1225cd63b7d01335a73c7af3a42afc7483"


def test_every_zoo_enumeration_is_pinned():
    digest = hashlib.sha256()
    specs = [spec for spec in zoo_specs() if zoo_order(spec) <= 10 ** 6]
    assert len(specs) == 169
    for spec in specs:
        G, _ = build(spec)
        digest.update(f"{spec} {G.images.shape}".encode())
        for array in (G.images, G._index_of_rank):
            digest.update(array.tobytes())
    assert digest.hexdigest() == ELEMENTS_DIGEST


def test_sym9_has_a_level_wider_than_a_closure_chunk():
    # one generator slot's products of sym:9's widest level pass a batch's
    # 128 KiB (14,563 rows at degree 9), and the slot takes that level
    # TAKE_ENTRIES rows at a time: the pinned enumeration above covers a
    # level mapped in frontier chunks
    G, _ = build("sym:9")
    products = [G.index_elements(_take(G.images[g], G.images), "g o x")
                for g in G.generators]
    level = np.full(G.order, -1)
    level[0] = 0
    frontier, widths = np.zeros(1, dtype=np.intp), [1]
    while True:
        reached = np.unique(np.concatenate([p[frontier] for p in products]))
        frontier = reached[level[reached] < 0]
        if not len(frontier):
            break
        level[frontier] = len(widths)
        widths.append(len(frontier))
    assert (np.diff(level) >= 0).all()  # the elements are in level order
    budget = permgroup.TAKE_ENTRIES * np.intp(0).itemsize // G.degree
    assert (max(widths), budget, permgroup.TAKE_ENTRIES) == \
        (27_766, 14_563, 16_384)


def test_orders_match_derived_formulas():
    cases = {
        "sym:4": math.factorial(4),
        "sym:5": math.factorial(5),
        "alt:4": 12,
        "alt:5": 60,
        "cyclic:6": 6,
        "dihedral:6": 12,
        "psl2:2": 6,
        "psl2:3": 12,
        "psl2:4": 60,
        "psl2:5": 60,
        "psl2:7": 168,
        "psl2:9": 360,
        "pgl2:3": 24,
        "pgl2:5": 120,
        "psl3:2": 168,
        "sp4f2:+": symplectic_group_order(2),
        "sp4f2:-": symplectic_group_order(2),
        "psu3:2": unitary_group_order(2, "psu"),
        "pgu3:2": unitary_group_order(2, "pgu"),
        "psu3:3": unitary_group_order(3, "psu"),
        "sym:1": 1,
        "alt:1": 1,
        "alt:2": 1,
        "cyclic:1": 1,
    }
    for spec, expected in cases.items():
        G, _ = build(spec)
        assert G.order == zoo_order(spec) == expected, spec
    # the formula alone, for the groups the CLI gates on it
    for spec, expected in (("sym:9", 362_880), ("alt:10", 1_814_400),
                           ("sp6f2:+", 1_451_520), ("sp6f2:-", 1_451_520),
                           ("pgl2:13", 2184), ("pgu3:3", 6048)):
        assert zoo_order(spec) == expected, spec


def test_build_checks_the_chain_order_before_the_closure(monkeypatch):
    # a wrong order formula is caught from the stabilizer chain alone
    monkeypatch.setattr("cmred.group_zoo.zoo_order", lambda spec: 721)
    with pytest.raises(BuildVerificationError,
                       match="expected order 721, the stabilizer chain gives 720"):
        build("sp4f2:+")


def test_stabilizer_is_exactly_point_zero_fixers():
    for spec in ("sym:5", "alt:5", "dihedral:6", "psl2:5", "psl3:2",
                 "sp4f2:-", "psu3:2"):
        G, H_gens = build(spec)
        H = close_generators(G.degree, H_gens) if H_gens else close_generators(G.degree, [])
        fixed = sum(1 for i in range(G.order) if G.images[i][0] == 0)
        assert H.order == fixed, spec
        for i in range(H.order):
            assert perm(H, i)[0] == 0


def test_sp4_model_matches_expected_shape():
    m = build_zoo_model("sp4f2:+")
    assert (m.n, m.h, m.gamma_order) == (10, 72, 1440)
    G, H_gens = build("sp4f2:-")
    C = left_cosets(G, H_gens)
    assert C.n == 6 and C.h == 120


def test_sp4_class_count_against_conjugation_orbit_oracle():
    G, _ = build("sp4f2:+")
    P = conjugacy_classes(G)
    seen = set()
    count = 0
    for r in range(G.order):
        if r in seen:
            continue
        count += 1
        orbit = {r}
        queue = [r]
        while queue:
            x = queue.pop()
            for g in G.generators:
                y = mul(G, mul(G, g, x), inv(G, g))
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
    assert P.count == count


def test_sixteen_polarizing_forms_split_into_orbits():
    masks = polarizing_form_masks(2)
    assert len(masks) == 16
    # polarization of every candidate equals the alternating form
    for mask in masks:
        for u in range(16):
            for v in range(16):
                f = (quadratic_form_value(mask, u ^ v)
                     ^ quadratic_form_value(mask, u)
                     ^ quadratic_form_value(mask, v))
                assert f == _psi_f2(u, v, 2)
    from cmred.group_zoo import symplectic_quadratic_action
    plus_points, _ = symplectic_quadratic_action(2, "+")
    minus_points, _ = symplectic_quadratic_action(2, "-")
    assert len(plus_points) == 10 and len(minus_points) == 6
    assert sorted(plus_points + minus_points) == sorted(masks)


def test_every_sp4_matrix_is_symplectic():
    # the oracle's form, coordinate by coordinate, is the zoo's
    assert all(psi(u, v, 2) == _psi_f2(u, v, 2)
               for u in range(16) for v in range(16))
    maps = enumerate_symplectic_maps(2)
    assert len(set(maps)) == len(maps) == symplectic_group_order(2) == 720
    for t in maps:
        assert all(_psi_f2(t[u], t[v], 2) == _psi_f2(u, v, 2)
                   for u in range(16) for v in range(16))


def test_orthogonal_stabilizers_preserve_their_form():
    # maps whose form-action fixes the base point are exactly the
    # pointwise preservers of the corresponding quadratic form
    maps = enumerate_symplectic_maps(2)
    for sign, expected_order in (("+", 72), ("-", 120)):
        base = base_quadratic_mask(2, sign)
        preservers = [t for t in maps
                      if all(quadratic_form_value(base, t[v])
                             == quadratic_form_value(base, v) for v in range(16))]
        assert len(preservers) == expected_order
        # and they are exactly the stabilizer of point 0 of the built action
        G, H_gens = build(f"sp4f2:{sign}")
        H = close_generators(G.degree, H_gens)
        assert H.order == expected_order


def test_identity_fixes_every_form():
    from cmred.group_zoo import symplectic_quadratic_action
    _, perms = symplectic_quadratic_action(2, "+")
    G = close_generators(10, perms)
    assert perm(G, 0) == tuple(range(10))


def test_projective_points_counts():
    assert len(projective_points(small_field(3), 2)) == 4
    assert len(projective_points(small_field(2), 3)) == 7
    assert len(projective_points(small_field(5), 2)) == 6


def test_psl_stabilizer_of_e1_is_column_triangular():
    # matrices of SL3(F2) stabilizing the span of e1 have first column
    # (a, 0, 0); matches the displayed shape of the subgroup
    F = small_field(2)
    mats = close_matrices(F, _linear_generators(F, 3))
    assert len(mats) == 168
    for A in mats:
        col_fixes = mat_vec(F, A, (1, 0, 0))[1:] == (0, 0)
        triangular = A[1][0] == 0 and A[2][0] == 0
        assert col_fixes == triangular


def test_isotropic_points_counts_and_base_point():
    for q in (2, 3):
        F = small_field(q * q)
        frob = _frobenius_table(F, q)
        pts = [tuple(p) for p in isotropic_points(F, frob).tolist()]
        assert len(pts) == q ** 3 + 1
        assert pts[0] == (1, 0, 0)
        for p in pts:
            assert hermitian_form(F, frob, p, p) == 0


MATRIX_SPECS = [spec for spec in zoo_specs()
                if spec.split(":")[0] in ("psl2", "pgl2", "psl3", "psu3", "pgu3")]


def normalized_vectors(q, dim):
    """Every vector whose first nonzero coordinate is 1, in lex order."""
    return [v for v in itertools.product(range(q), repeat=dim)
            if any(v) and next(x for x in v if x) == 1]


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_matrix_action_matches_the_point_by_point_oracle(spec):
    # the oracle maps one point at a time through tuple arithmetic; the
    # points are re-derived from their definition too
    family, q = spec.split(":")[0], int(spec.split(":")[1])
    if family in ("psu3", "pgu3"):
        F = small_field(q * q)
        frob = _frobenius_table(F, q)
        points, perms = unitary_isotropic_action(q, family[:3])
        mats = _unitary_generators(F, frob, q, family[:3])
        lines = [v for v in normalized_vectors(F.q, 3)
                 if hermitian_form(F, frob, v, v) == 0]
        expected = [(1, 0, 0)] + [v for v in lines if v != (1, 0, 0)]
    else:
        dim = 3 if family == "psl3" else 2
        F = small_field(q)
        linear = "general" if family == "pgl2" else "special"
        points, perms = projective_space_action(F, dim, linear)
        mats = _linear_generators(F, dim, linear)
        expected = normalized_vectors(q, dim)
    points = [tuple(p) for p in points.tolist()]
    assert points == expected
    index = {p: i for i, p in enumerate(points)}
    assert [tuple(p) for p in perms] == [matrix_point_perm(F, A, points, index)
                                         for A in as_tuples(mats)]
    assert _zoo_action(parse_zoo_spec(spec)) == (len(points), perms)


def test_a_generator_off_the_form_or_determinant_raises(monkeypatch):
    import cmred.group_zoo as zoo
    roots = zoo._unitary_root_elements
    F = small_field(4)
    frob = _frobenius_table(F, 2)
    bent = roots(F, frob, 2).copy()
    bent[3, 1, 0] = 1  # no longer upper triangular, and off the form
    monkeypatch.setattr(zoo, "_unitary_root_elements", lambda *args: bent)
    with pytest.raises(BuildVerificationError, match="does not preserve the form"):
        build("psu3:2")
    # diag(t, 1, t^-2) preserves the form but has determinant t^-1 != 1
    scaled = np.array([[[2, 0, 0], [0, 1, 0], [0, 0, F.inv[frob[2]]]]],
                      dtype=np.uint8)
    monkeypatch.setattr(zoo, "_unitary_root_elements",
                        lambda *args: np.concatenate([roots(*args), scaled]))
    with pytest.raises(BuildVerificationError, match="determinant"):
        build("psu3:2")
    build("pgu3:2")  # the general group takes it


def test_a_singular_matrix_maps_a_point_off_the_point_set():
    F = small_field(5)
    with pytest.raises(BuildVerificationError, match="off the point set"):
        matrix_point_perms(F, np.zeros((1, 2, 2), dtype=np.uint8),
                           projective_points(F, 2))


def test_gu3_2_every_element_preserves_form():
    q = 2
    F = small_field(4)
    frob = _frobenius_table(F, q)
    gens = _unitary_generators(F, frob, q, "pgu")
    mats = close_matrices(F, gens)
    assert len(mats) == q ** 3 * (q + 1) * (q * q - 1) * (q ** 3 + 1)  # 648
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for A in mats:
        for u in basis:
            for v in basis:
                assert hermitian_form(F, frob, mat_vec(F, A, u), mat_vec(F, A, v)) \
                    == hermitian_form(F, frob, u, v)


def test_gu3_2_stabilizer_of_e1_is_upper_triangular():
    q = 2
    F = small_field(4)
    frob = _frobenius_table(F, q)
    mats = close_matrices(F, _unitary_generators(F, frob, q, "pgu"))
    for A in mats:
        w = mat_vec(F, A, (1, 0, 0))
        stabilizes = w[1] == 0 and w[2] == 0
        upper = A[1][0] == 0 and A[2][0] == 0 and A[2][1] == 0
        assert stabilizes == upper


def test_su3_generators_have_determinant_one():
    for q in (2, 3):
        F = small_field(q * q)
        frob = _frobenius_table(F, q)
        for A in as_tuples(_unitary_generators(F, frob, q, "psu")):
            assert mat_det(F, A) == 1


def test_unitary_build_shapes():
    m = build_zoo_model("psu3:2")
    assert (m.group.order, m.n, m.h) == (72, 9, 8)
    m = build_zoo_model("pgu3:2")
    assert (m.group.order, m.n, m.h) == (216, 9, 24)


def test_psl2_actions_are_two_transitive():
    from cmred.certifier import certify, orbit_table
    for q in (2, 3, 4, 5, 7):
        m = build_zoo_model(f"psl2:{q}")
        cert = certify(m, orbit_table(m, 2))
        assert cert.two_transitive, q


def test_psl2_5_pair_orbit_size_thirty():
    # oracle: the orbit of the pair (0, 1) is its image under every element
    m = build_zoo_model("psl2:5")
    assert m.n == 6 and m.group.order == 60
    from cmred.permgroup import coset_action, is_k_transitive
    table = coset_action(m.group, m.cosets, range(m.group.order))
    orbit = {(int(row[0]), int(row[1])) for row in table}
    assert len(orbit) == 30
    ok, orbits = is_k_transitive(m.generator_action_rows, m.n, 2)
    assert ok and orbits == 1


def test_coset_action_homomorphism_sampled_on_larger_groups():
    import random
    from cmred.permgroup import coset_action
    rng = random.Random(6)
    for spec in ("psl3:2", "sp4f2:+"):
        m = build_zoo_model(spec)
        act = coset_action(m.group, m.cosets, range(m.group.order))
        for _ in range(300):
            a = rng.randrange(m.group.order)
            b = rng.randrange(m.group.order)
            ab = mul(m.group, a, b)
            assert list(act[ab]) == [act[a][j] for j in act[b]]


def test_unsupported_build_parameters():
    for bad in ("sp4f2:*", "psl3:3", "pgu3:5", "dihedral:2"):
        with pytest.raises(UnsupportedParameter):
            build(bad)
