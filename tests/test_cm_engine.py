import itertools
import math
import random
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmred.cm_engine as cm_engine
import cmred.group_algebra as group_algebra
from class_oracle import class_members, class_values, evaluate
from galois_oracle import act, sampled_pairs, unequal_pairs
from pair_oracle import pair_tensor_by_lookup
from cmred.cm_engine import (
    INT64_MAX,
    _closed_numerators,
    _fraction_text,
    _pair_weight,
    check_closed_bound,
    check_closed_form,
    check_cm0_suite,
    check_galois_invariance,
    check_induced_character,
    check_pair_reduction_suite,
    closed_block,
    closed_denominators,
    cm_class_function_brute,
    cm_class_function_closed,
    conjugate_subgroup_sum,
    pair_residuals,
    pair_tensor,
    permutation_character,
    subset_sweep,
)
from cmred.cli import parse_spec
from cmred.errors import (
    BruteCapExceeded,
    IntegerBoundExceeded,
)
from cmred.galois_model import UnitaryGaloisModel
from cmred.group_algebra import BRUTE_CAP, class_project, convolve, reflex
from cmred.group_zoo import build, zoo_order
from cmred.permgroup import (
    ELEMENT_CAP,
    SUBSET_CAP,
    TABLE_CAP,
    close_generators,
    coset_action,
    is_k_transitive,
)
from perm_oracle import build_zoo_model, index_of, inv, mul, zoo_specs

S3_GENS = [(1, 0, 2), (1, 2, 0)]
S9_OVER_S6 = Path(__file__).parent / "fixtures" / "s9_over_s6.json"
S5_OVER_C2 = Path(__file__).parent / "fixtures" / "s5_over_c2.json"
S7_OVER_C2 = Path(__file__).parent / "fixtures" / "s7_over_c2.json"


def s3_model():
    return UnitaryGaloisModel(close_generators(3, S3_GENS), [(0, 2, 1)])


def z4_model():
    return UnitaryGaloisModel(close_generators(4, [(1, 2, 3, 0)]), [])


def z6_model_h2():
    G = close_generators(6, [(1, 2, 3, 4, 5, 0)])
    return UnitaryGaloisModel(G, [(3, 4, 5, 0, 1, 2)])


def s4_model():
    G = close_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    return UnitaryGaloisModel(G, [(0, 2, 1, 3), (0, 2, 3, 1)])


def cm_types(m, eps):
    """Every CM type of signature (n - eps, eps), in lexicographic order."""
    return list(itertools.combinations(range(m.n), eps))


# Test-local exact group-algebra elements: {(g, bit): Fraction} dicts.

def add(*terms):
    """Sum of (coefficient, element) pairs."""
    out = {}
    for c, elt in terms:
        for x, v in elt.items():
            out[x] = out.get(x, Fraction(0)) + c * v
    return {x: v for x, v in out.items() if v}


def one_minus_rho(elt):
    flip = {(g, 1 - b): v for (g, b), v in elt.items()}
    return add((1, elt), (-1, flip))


def project(elt, classes):
    """Class means per (class, bit), as a list of [bit-0, bit-1] values."""
    sums = [[Fraction(0), Fraction(0)] for _ in range(classes.count)]
    for (g, b), v in elt.items():
        sums[classes.class_of[g]][b] += v
    return [[s / size for s in row] for row, size in zip(sums, classes.sizes)]


def closed_form_via_algebra(phi, model):
    """Independent oracle: assemble the four closed-form terms literally as a
    group-algebra element (conjugating by every group element), then project
    to class values."""
    G, n, h = model.group, model.n, model.h
    eps = len(phi)
    tr = {(g, 0): Fraction(1) for g in range(G.order)}
    chi = permutation_character(model)
    chi_elt = {(g, 0): Fraction(int(chi[model.classes.class_of[g]]))
               for g in range(G.order)}
    acc = add((Fraction(1, 2), tr),
              (-Fraction(eps, n), one_minus_rho(tr)),
              (Fraction(eps, n * n), one_minus_rho(chi_elt)))
    dcounts = {}
    reps = model.cosets.reps
    for i in phi:
        for j in phi:
            if i == j:
                continue
            for eta in model.cosets.subgroup_elements:
                m = mul(G, mul(G, reps[i], eta), inv(G, reps[j]))
                for x in range(G.order):
                    c = mul(G, mul(G, x, m), inv(G, x))
                    dcounts[c] = dcounts.get(c, 0) + 1
    dterm = {(g, 0): Fraction(v) for g, v in dcounts.items()}
    acc = add((1, acc), (Fraction(1, h * n * n), one_minus_rho(dterm)))
    return project(acc, model.classes)


def conjugate_subgroup_oracle(model):
    """The literal (x, eta) double loop: count x eta x^-1 over G x H, read
    per class representative (groups of order <= 720)."""
    G = model.group
    assert G.order <= 720
    counts = [0] * G.order
    for x in range(G.order):
        xinv = inv(G, x)
        for eta in model.cosets.subgroup_elements:
            counts[mul(G, mul(G, x, eta), xinv)] += 1
    for members in class_members(model.classes):
        assert len({counts[m] for m in members}) == 1
    return [counts[rep] for rep in model.classes.class_reps]


def s6_model(H_gens):
    G = close_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    return UnitaryGaloisModel(G, H_gens)


def trace(m):
    """Formal sum of all (g, 0): the trace of the big field over the
    imaginary quadratic subfield, as a group-algebra element."""
    return np.stack([np.ones(m.group.order, dtype=np.int64),
                     np.zeros(m.group.order, dtype=np.int64)])


def cm_type_element(phi, m):
    """Indicator of the CM type on Gamma: bit 1 on the cosets in the subset,
    bit 0 elsewhere; total mass hn."""
    in_phi = np.zeros(m.n, dtype=bool)
    in_phi[list(phi)] = True
    flipped = in_phi[m.cosets.coset_of]
    return np.stack([~flipped, flipped]).astype(np.int64)


def raw_convolution(phi, m):
    """The brute path before class projection and the 1/|Gamma|
    normalization: the CM type convolved with its reflex."""
    elt = cm_type_element(phi, m)
    return convolve(elt, reflex(elt, m.group), m.group)


def brute_by_convolution(phi, m):
    """The brute class function from the whole product, projected to
    classes: class sums over |c| |Gamma|, that is n times them over
    ``closed_denominators`` = n |Gamma| |c|.  The reference for the
    kernel's support count."""
    return m.n * class_project(raw_convolution(phi, m), m.classes)


def values_of(f, m):
    """The Fraction values of numerators over the model's denominators."""
    return class_values(f, closed_denominators(m), m.classes)


def assert_same_brute(f, g, context):
    assert f.shape == g.shape and np.array_equal(f, g), context


def test_trace_element():
    # the CM type of the empty subset is the trace
    m = s3_model()
    tr = cm_type_element((), m)
    assert tr.shape == (2, 6)
    assert tr[0].tolist() == [1] * 6 and not tr[1].any()
    assert tr.sum() == m.h * m.n
    assert np.array_equal(reflex(tr, m.group), tr)


def test_cm_type_element_empty_is_trace():
    m = s3_model()
    assert np.array_equal(cm_type_element((), m), trace(m))


def test_cm_type_element_one_coset_flipped():
    m = s3_model()
    elt = cm_type_element((0,), m)
    flipped = np.flatnonzero(elt[1]).tolist()
    assert len(flipped) == m.h == 2
    assert flipped == np.flatnonzero(m.cosets.coset_of == 0).tolist()
    assert elt.sum() == m.h * m.n


def test_cm_type_element_mass():
    rng = random.Random(2)
    m = z4_model()
    for _ in range(5):
        s = tuple(sorted(rng.sample(range(4), rng.randrange(5))))
        elt = cm_type_element(s, m)
        assert elt.sum() == m.h * m.n
        assert np.array_equal(elt[0] + elt[1], np.ones(m.group.order))


def test_reflex_support_matches_inverted_cosets():
    # support of the reflex: bit 1 exactly on the sets H sigma_j^-1
    m = s3_model()
    phi = (1,)
    G = m.group
    r = reflex(cm_type_element(phi, m), G)
    expected_bit1 = {mul(G, eta, inv(G, m.cosets.reps[1]))
                     for eta in m.cosets.subgroup_elements}
    got_bit1 = set(np.flatnonzero(r[1]).tolist())
    assert got_bit1 == expected_bit1
    assert set(np.unique(r).tolist()) == {0, 1}


def test_reflex_convolution_identity_value():
    # normalized by 1/|Gamma|, the value at the identity is 1/2
    for m in (s3_model(), z4_model(), z6_model_h2()):
        for eps in range(m.n + 1):
            for phi in cm_types(m, eps):
                a = raw_convolution(phi, m)
                assert Fraction(int(a[0, 0]), m.gamma_order) == Fraction(1, 2)
                # the brute class function is its class projection, the
                # class sums over |c| |Gamma| = D_c / n
                assert np.array_equal(cm_class_function_brute(phi, m),
                                      m.n * class_project(a, m.classes))


def test_reflex_convolution_rho_balance():
    m = s3_model()
    for phi in cm_types(m, 2):
        a = raw_convolution(phi, m)
        assert np.array_equal(2 * (a[0] + a[1]),
                              np.full(m.group.order, m.gamma_order))


def test_reflex_convolution_empty_set_is_half_trace():
    m = s3_model()
    a = raw_convolution((), m)
    assert np.array_equal(2 * a, m.gamma_order * trace(m))


def test_raw_convolution_mass_at_identity():
    # unnormalized value at the identity is hn: sum of the squared indicator
    m = s3_model()
    elt = cm_type_element((), m)
    raw = convolve(elt, reflex(elt, m.group), m.group)
    assert raw[0, 0] == m.h * m.n


def test_brute_cap_guard():
    m = s3_model()
    with pytest.raises(BruteCapExceeded, match="12 exceeds brute cap 4"):
        cm_class_function_brute((), m, brute_cap=4)
    # past the cap the sweep holds the reason and closed-form is skipped
    sweep = subset_sweep(m, None, 0, brute_cap=4)
    assert sweep.brute is None
    assert check_closed_form(sweep).to_dict() == {
        "name": "closed-form", "status": "skipped",
        "reason": "cap: |Gamma| = 12 exceeds brute cap 4"}
    # a cap above BRUTE_CAP cannot reach a group without a multiplication
    # table: the guard fires before the model is touched
    past_table = types.SimpleNamespace(gamma_order=2 * (TABLE_CAP + 1))
    with pytest.raises(BruteCapExceeded):
        cm_class_function_brute((), past_table,
                                brute_cap=10 * BRUTE_CAP)


def test_brute_class_function_basics():
    m = s3_model()
    assert values_of(cm_class_function_brute((), m), m) == \
        [[Fraction(1, 2), 0]] * m.classes.count
    den = closed_denominators(m)
    for eps in range(4):
        for phi in cm_types(m, eps):
            f = cm_class_function_brute(phi, m)
            assert f.shape == (2, m.classes.count)
            assert evaluate(f, den, m.classes, (0, 0)) == Fraction(1, 2)


def test_brute_invariant_under_action():
    m = s3_model()
    rng = random.Random(8)
    gammas, phis = [], []
    for _ in range(20):
        gammas.append((rng.randrange(m.group.order), rng.randrange(2)))
        phis.append(tuple(sorted(rng.sample(range(3), rng.randrange(4)))))
    for moved, phi in zip(act(m, gammas, phis), phis):
        assert np.array_equal(cm_class_function_brute(moved, m),
                              cm_class_function_brute(phi, m))


def test_permutation_character_values():
    m = s3_model()
    chi = permutation_character(m)
    assert chi.shape == (m.classes.count,)
    class_of = m.classes.class_of
    assert chi[class_of[0]] == m.n
    assert chi[class_of[index_of(m.group, (0, 2, 1))]] == 1
    assert chi[class_of[index_of(m.group, (1, 2, 0))]] == 0
    z3 = UnitaryGaloisModel(close_generators(3, [(1, 2, 0)]), [])
    assert permutation_character(z3).tolist() == [3, 0, 0]


def test_conjugate_subgroup_sum_values():
    m = s3_model()
    f = conjugate_subgroup_sum(m)
    assert f.shape == (m.classes.count,) and f.dtype == np.int64
    class_of = m.classes.class_of
    assert f[class_of[0]] == m.group.order
    assert f[class_of[index_of(m.group, (0, 2, 1))]] == 2
    assert f[class_of[index_of(m.group, (1, 2, 0))]] == 0


def test_conjugate_subgroup_sum_paths_agree():
    # the class tally equals the literal double loop
    models = [s3_model(), z6_model_h2(), s4_model(), z4_model(),
              s6_model([(0, 2, 1, 3, 4, 5), (0, 2, 3, 4, 5, 1)]), s6_model([])]
    for m in models:
        assert conjugate_subgroup_sum(m).tolist() == \
            conjugate_subgroup_oracle(m)


def test_induced_character_identity():
    for m in (s3_model(), z6_model_h2(), s4_model(), z4_model()):
        rep = check_induced_character(subset_sweep(m, 0, 0))
        assert rep.passed, rep.witness


def test_induced_character_past_255_cosets():
    # S6 over the trivial subgroup has 720 cosets, more than uint8 indexes
    m = s6_model([])
    assert m.n == 720
    assert coset_action(m.group, m.cosets, range(m.group.order)).max() == 719
    sweep = subset_sweep(m, 0, 0)
    rep = check_induced_character(sweep)
    assert rep.passed, rep.witness
    assert sweep.chi[0] == 720


def test_compare_reports_perturbed_fixture():
    # a permutation character off by one on the transposition class: the
    # witness names that class at bit 0 with both whole counts
    m = s3_model()
    sweep = subset_sweep(m, 0, 0)
    t = int(m.classes.class_of[index_of(m.group, (0, 2, 1))])
    sweep.chi[t] += 1
    assert check_induced_character(sweep).to_dict() == {
        "name": "induced-character", "status": "fail",
        "witness": {"class_index": t, "bit": 0, "lhs": "2", "rhs": "4"},
        "detail": {"classes": 3}}


def test_closed_form_empty_and_singleton():
    m = s3_model()
    f = cm_class_function_closed((), m)
    assert all(v == [Fraction(1, 2), Fraction(0)] for v in values_of(f, m))
    for i in range(3):
        got = cm_class_function_closed((i,), m)
        assert values_of(got, m) == closed_form_via_algebra((i,), m)


def test_closed_form_matches_literal_assembly():
    for m in (s3_model(), z4_model(), s4_model()):
        for eps in range(m.n + 1):
            for phi in cm_types(m, eps):
                assert values_of(cm_class_function_closed(phi, m), m) == \
                    closed_form_via_algebra(phi, m)


def test_closed_form_equals_brute():
    for m in (s3_model(), z4_model(), z6_model_h2(), s4_model()):
        for eps in range(m.n + 1):
            for phi in cm_types(m, eps):
                assert np.array_equal(cm_class_function_closed(phi, m),
                                      cm_class_function_brute(phi, m))


def test_check_closed_form_suites():
    assert check_closed_form(subset_sweep(s3_model(), None, 0)).passed
    rep = check_closed_form(subset_sweep(z4_model(), None, 0))
    assert rep.passed and rep.detail["subsets_checked"] == 16


def test_pair_reduction_degenerate_cases():
    m = s4_model()
    subsets = [phi for eps in (0, 1, 2) for phi in cm_types(m, eps)]
    assert not pair_residuals(subsets, m, *pair_tensor(m),
                              permutation_character(m)).any()
    rep = check_pair_reduction_suite(subset_sweep(m, 2, 0))
    assert rep.passed, rep.witness
    assert rep.detail == {"subsets_checked": len(subsets)}


def test_pair_reduction_s4_triple():
    m = s4_model()
    assert not pair_residuals([(0, 1, 2)], m, *pair_tensor(m),
                              permutation_character(m)).any()
    # cross-check the residual through the brute path, whose functions all
    # share the model's denominators
    phi = (0, 1, 2)

    def brute(s):
        return cm_class_function_brute(s, m)

    residual = brute(phi)
    for pair in itertools.combinations(phi, 2):
        residual = residual - brute(pair)
    for i in phi:
        residual = residual + brute((i,))
    residual = residual - brute(())  # (eps-1)(eps-2)/2 = 1
    assert not residual.any()


def test_pair_reduction_all_sizes_including_full():
    for m in (s3_model(), z4_model(), s4_model()):
        (L, W), chi = pair_tensor(m), permutation_character(m)
        for eps in range(m.n + 1):
            for phi in cm_types(m, eps):
                assert not pair_residuals([phi], m, L, W, chi).any()


def test_cm0_membership():
    # S3 over <(1 2)>: classes {id}, the transpositions, the 3-cycles, of
    # sizes 1, 3, 2; D_c = 2 h n^2 |c| = 36, 108, 72
    m = s3_model()
    den = closed_denominators(m)
    assert den.tolist() == [36, 108, 72]
    sweep = subset_sweep(m, None, 0)
    assert check_cm0_suite(sweep).to_dict() == {
        "name": "cm0-membership", "status": "pass",
        "detail": {"functions_checked": 16}}
    # the half trace, in place of a closed function, is rho-balanced at 1/2
    sizes = np.asarray(m.classes.sizes)
    scale = den // sizes  # class sums over |c| -> numerators over D_c
    row = sweep.subsets.index((0, 1))
    sweep.closed[row] = class_project(trace(m), m.classes) * scale // 2
    assert check_cm0_suite(sweep).passed
    # the class projection of the delta at a transposition is 1/3 on the
    # transposition class and 0 on the identity class: the "sum" branch
    t = index_of(m.group, (0, 2, 1))
    assert m.classes.class_of[t] == 1
    delta_t = np.zeros((2, m.group.order), dtype=np.int64)
    delta_t[0, t] = 1
    sweep.closed[row] = class_project(delta_t, m.classes) * scale
    assert check_cm0_suite(sweep).to_dict() == {
        "name": "cm0-membership", "status": "fail",
        "witness": {"class_index": 1, "sum": "1/3", "expected": "0",
                    "subset": [1, 2]}}


def test_cm0_reports_a_constant_other_than_one_half():
    # 1 / D_0 = 1/36 added on every class (|c| / D_c): f(g) + f(rho g) is
    # the same on every class, 19/36
    m = s3_model()
    sweep = subset_sweep(m, None, 0)
    row = sweep.subsets.index((1, 2))
    sweep.closed[row, 0] += np.asarray(m.classes.sizes)
    assert check_cm0_suite(sweep).to_dict() == {
        "name": "cm0-membership", "status": "fail",
        "witness": {"constant": "19/36", "expected": "1/2",
                    "subset": [2, 3]}}


def test_cm0_fails_on_a_brute_row():
    # a brute class sum one too high on the transposition class: the
    # brute numerators are the sums times n, so the value moves by
    # n / D_c = 1 / (|Gamma| |c|) = 1/36, the closed rows all pass, and
    # the witness is that of the brute row
    m = s3_model()
    sweep = subset_sweep(m, None, 0)
    row = sweep.subsets.index((0, 2))
    sweep.brute[row, 1, 1] += m.n
    assert check_closed_form(sweep).to_dict() == {
        "name": "closed-form", "status": "fail",
        "witness": {"class_index": 1, "bit": 1, "lhs": "1/4", "rhs": "2/9",
                    "subset": [1, 3]},
        "detail": {"subsets_checked": 6}}
    assert check_cm0_suite(sweep).to_dict() == {
        "name": "cm0-membership", "status": "fail",
        "witness": {"class_index": 1, "sum": "19/36", "expected": "1/2",
                    "subset": [1, 3]}}


def test_cm0_suite_and_invariance():
    for m in (s3_model(), z4_model()):
        sweep = subset_sweep(m, None, 3)
        assert check_cm0_suite(sweep).passed
        assert check_galois_invariance(sweep).passed


def test_linear_functional_skeleton():
    # any fixed linear functional inherits the pair-reduction relation
    m = s4_model()
    rng = random.Random(44)
    k = m.classes.count
    for _ in range(3):
        lam = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in (0, 1)]
               for _ in range(k)]

        def L(f):
            values = values_of(f, m)
            return sum(lam[c][b] * values[c][b] for c in range(k) for b in (0, 1))

        for eps in range(m.n + 1):
            for phi in cm_types(m, eps):
                lhs = L(cm_class_function_closed(phi, m))
                rhs = Fraction(0)
                eps = len(phi)
                for pair in itertools.combinations(phi, 2):
                    rhs += L(cm_class_function_closed(pair, m))
                rhs -= (eps - 2) * sum(
                    L(cm_class_function_closed((i,), m)) for i in phi)
                rhs += Fraction((eps - 1) * (eps - 2), 2) * \
                    L(cm_class_function_closed((), m))
                assert lhs == rhs


def test_closed_block_matches_one_at_a_time():
    for make in (s3_model, z6_model_h2, s4_model):
        m = make()
        subsets = [s for eps in range(m.n + 1)
                   for s in itertools.combinations(range(m.n), eps)]
        (L, W), chi = pair_tensor(m), permutation_character(m)
        block = closed_block(subsets, m, L, W, chi)
        assert block.shape == (len(subsets), 2, m.classes.count)
        for s, num in zip(subsets, block):
            assert np.array_equal(num, cm_class_function_closed(s, m))
        assert not pair_residuals(subsets, m, L, W, chi).any()
        # sizes mixed and members reversed: each row lands where its
        # subset is, whatever the order of the block and of its members
        order = list(range(len(subsets)))
        random.Random(m.n).shuffle(order)
        shuffled = [subsets[i][::-1] for i in order]
        assert np.array_equal(closed_block(shuffled, m, L, W, chi),
                              block[order])
        assert not pair_residuals(shuffled, m, L, W, chi).any()


def test_brute_count_matches_the_convolution_on_the_zoo():
    # eps = n/2 is the tie 2|U| = |G|; either side of it the kernel counts
    # on the support or on its complement
    rng = random.Random(15)
    specs = [s for s in zoo_specs() if zoo_order(s) <= TABLE_CAP]
    assert "pgl2:13" in specs and "sym:7" not in specs
    sides = set()
    for spec in specs:
        m = build_zoo_model(spec)
        n = m.n
        for eps in sorted({0, 1, n // 2, (n + 1) // 2, n - 1, n}):
            phi = tuple(sorted(rng.sample(range(n), eps)))
            assert_same_brute(cm_class_function_brute(phi, m),
                              brute_by_convolution(phi, m), (spec, eps))
            sides.add(int(np.sign(2 * eps * m.h - m.group.order)))
    assert sides == {-1, 0, 1}


def test_brute_count_one_row_at_a_time(monkeypatch):
    for spec in ("sp4f2:-", "psu3:2", "dihedral:7"):
        m = build_zoo_model(spec)
        phis = [s for eps in range(m.n + 1)
                for s in itertools.islice(
                    itertools.combinations(range(m.n), eps), 3)]
        expected = [brute_by_convolution(phi, m) for phi in phis]
        monkeypatch.setattr(group_algebra, "CHUNK_ROWS", 1)
        for phi, g in zip(phis, expected):
            assert_same_brute(cm_class_function_brute(phi, m), g,
                              (spec, phi))
        monkeypatch.undo()


def test_pair_tensor_matches_lookup_on_the_zoo():
    small = [s for s in zoo_specs() if zoo_order(s) <= 20_160]
    assert len(small) > 150 and "alt:8" in small and "sym:8" not in small
    for spec in small:
        m = build_zoo_model(spec)
        L, W = pair_tensor(m)
        assert np.array_equal(W[L], pair_tensor_by_lookup(m)), spec
        assert L.dtype == np.min_scalar_type(len(W) - 1), spec
        if m.n == 1:  # H = G: the diagonal alone
            assert len(W) == 1, spec
            continue
        # one row per suborbit at most, and the zero row of the diagonal
        two_transitive, pair_orbits = is_k_transitive(
            m.generator_action_rows, m.n, 2)
        assert len(W) <= pair_orbits + 1, spec
        assert len(W) == 2 or not two_transitive, spec


def test_pair_tensor_past_the_action_dtype():
    # tally keys past 255 (S5 over trivial H: n k = 120 * 7 = 840) and
    # coset indices past 255 (A6 over trivial H, n = 360)
    for spec in ("sym:5", "alt:6"):
        m = UnitaryGaloisModel(build(spec)[0], [])
        assert m.n == m.group.order
        L, W = pair_tensor(m)
        assert np.array_equal(W[L], pair_tensor_by_lookup(m))
        # over trivial H each ordered pair i != j is one element
        assert (W.sum(axis=1)[L] == 1 - np.eye(m.n, dtype=np.int64)).all()


def file_model(path):
    _, degree, group_gens, subgroup_gens = parse_spec(f"file:{path}")
    return UnitaryGaloisModel(close_generators(degree, group_gens),
                              subgroup_gens)


def marginal_failures(P, m):
    """Which marginals of a pair tensor P of m are wrong: each row and each
    column should sum to |c| - |H cap c|, the whole tensor to
    (n - chi(c)) |c|."""
    classes = m.classes
    size = np.asarray(classes.sizes, dtype=np.int64)
    in_H = np.bincount(classes.class_of[m.cosets.subgroup_elements],
                       minlength=classes.count)
    chi = permutation_character(m)
    return [name for name, holds in (
        ("rows", (P.sum(axis=1) == size - in_H).all()),
        ("columns", (P.sum(axis=0) == size - in_H).all()),
        ("total", (P.sum(axis=(0, 1)) == (m.n - chi) * size).all()))
        if not holds]


@pytest.mark.parametrize("spec", ["sym:4", "sp4f2:-", "psu3:3", "cyclic:6",
                                  "psl2:7", "file:s5_over_c2"])
def test_pair_tensor_marginals(spec):
    # (eta, j) -> eta sigma_j^-1 runs once over G, so row i counts each g
    # with sigma_i g in c once, less the j = i terms: the conjugates of c's
    # members by sigma_i that lie in H.  Columns likewise, and the n rows
    # sum to n (|c| - |H cap c|) = (n - chi(c)) |c|.
    m = file_model(S5_OVER_C2) if spec.startswith("file:") \
        else build_zoo_model(spec)
    L, W = pair_tensor(m)
    assert marginal_failures(W[L], m) == []
    # the tripled double-coset term breaks all three
    assert marginal_failures(3 * W[L], m) == ["rows", "columns", "total"]


@pytest.mark.parametrize("spec", ["sym:4", "sp4f2:-", "cyclic:6", "psl2:7"])
def test_brute_functions_agree_on_inverse_classes(spec):
    # swapping y and u in the support count maps y u^-1 in c to u y^-1 in
    # c^-1, and |c^-1| = |c|, so the numerators agree
    m = build_zoo_model(spec)
    classes = m.classes
    inverse_class = classes.class_of[m.group.inverses[classes.class_reps]]
    sweep = subset_sweep(m, None, 7)
    assert np.array_equal(sweep.brute[:, :, inverse_class], sweep.brute)
    # cyclic:6 and psl2:7 have classes other than their inverses
    real = (inverse_class == np.arange(classes.count)).all()
    assert real == (spec in ("sym:4", "sp4f2:-"))


def test_galois_invariance_across_row_blocks(monkeypatch):
    # S5 over <(0 1)(2 3)>, n = 60: blocks of one, two and seven rows (the
    # last block of four) give the label sums and the first failing entry,
    # (28, 29) in the middle of L, of one block of all 60 rows
    m = file_model(S5_OVER_C2)
    L, W = pair_tensor(m)
    bad = L.copy()
    bad[40, 41] = bad[40, 40]  # the diagonal's label: P[40, 41] = 0
    sweeps = [types.SimpleNamespace(model=m, L=M, W=W,
                                    chi=permutation_character(m))
              for M in (L, bad)]

    def outputs():
        return (cm_engine._label_sums(L, W),
                [check_galois_invariance(s).to_dict() for s in sweeps])

    sums, reports = outputs()
    assert reports[0]["status"] == "pass"
    assert reports[1]["witness"]["entry"] == [28, 29]
    for entries in (1, 2 * 60 + 1, 7 * 60):
        monkeypatch.setattr(cm_engine, "TAKE_ENTRIES", entries)
        got_sums, got_reports = outputs()
        assert np.array_equal(got_sums, sums) and got_reports == reports


def test_s9_over_s6_model_and_pair_tensor_stay_small():
    # |G| = 362,880 and n = 504: an action row for every element would be
    # 349 MiB on its own, and the (n, n, k) int64 pair tensor 58 MiB
    _, degree, group_gens, subgroup_gens = parse_spec(f"file:{S9_OVER_S6}")
    G = close_generators(degree, group_gens)
    tracemalloc.start()
    try:
        m = UnitaryGaloisModel(G, subgroup_gens)
        L, W = pair_tensor(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.order, m.n, m.h) == (362_880, 504, 720)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20
    assert len(W) == 10 and L.dtype == np.uint8 and L.shape == (m.n, m.n)
    # each ordered pair i != j collects all of H
    assert (W.sum(axis=1)[L] == m.h * (1 - np.eye(m.n, dtype=np.int64))).all()
    # galois-invariance gathers labels only, and multiplies per-row label
    # counts by the (10, 30) table
    sweep = types.SimpleNamespace(model=m, L=L, W=W,
                                  chi=permutation_character(m))
    tracemalloc.start()
    try:
        rep = check_galois_invariance(sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.to_dict() == {"name": "galois-invariance", "status": "pass",
                             "detail": {"generators": 2, "classes": 30}}
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_pair_tensor_and_galois_invariance_of_s7_over_c2_stay_small():
    # n = 2,520: the uint16 coset-action map J and the uint8 labels L,
    # 18.2 MiB together, then row blocks of L.  Every coset product at once
    # and an intp copy of J peaked pair_tensor at 164 MiB, and (n, n) int64
    # keys the check at 103 MiB
    m = file_model(S7_OVER_C2)
    peaks = []

    def traced(call):
        tracemalloc.start()
        try:
            return call()
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()

    L, W = traced(lambda: pair_tensor(m))
    assert (m.n, len(W), L.dtype) == (2520, 28, np.uint8)
    sweep = types.SimpleNamespace(model=m, L=L, W=W,
                                  chi=permutation_character(m))
    rep = traced(lambda: check_galois_invariance(sweep))
    assert rep.to_dict() == {"name": "galois-invariance", "status": "pass",
                             "detail": {"generators": 2, "classes": 15}}
    assert peaks[0] <= 24 and peaks[1] <= 4, peaks


def test_pair_reduction_of_every_size_stays_small():
    # S5 over <(0 1)(2 3)>, n = 60: 5,822 subsets of every size 0..60, whose
    # (subset, pair) incidences number 3,355,330
    m = file_model(S5_OVER_C2)
    sweep = subset_sweep(m, None, 0, brute_cap=0)
    assert (m.n, len(sweep.subsets)) == (60, 5822)
    tracemalloc.start()
    try:
        rep = check_pair_reduction_suite(sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.to_dict()
    assert rep.detail == {"subsets_checked": 5822}
    assert peak < 64 * 2 ** 20, peak / 2 ** 20


def test_pair_residual_sees_a_changed_triple():
    m = s4_model()
    subsets = list(itertools.combinations(range(4), 3))
    (L, W), chi = pair_tensor(m), permutation_character(m)
    closed = closed_block(subsets, m, L, W, chi)
    closed[2, 1, 0] += 1
    bad = pair_residuals(subsets, m, L, W, chi, closed).any(axis=(1, 2))
    assert bad.tolist() == [False, False, True, False]
    # the same change in a sweep: both checks name the subset, 1-based
    sweep = subset_sweep(m, 3, 0)
    row = sweep.subsets.index((0, 2, 3))
    sweep.closed[row, 1, 0] += 1
    rep = check_pair_reduction_suite(sweep)
    assert rep.to_dict() == {
        "name": "pair-reduction", "status": "fail",
        "detail": {"subsets_checked": row + 1},
        "witness": {"class_index": 0, "bit": 1, "lhs": "1/192", "rhs": "0",
                    "subset": [1, 3, 4]}}
    rep = check_cm0_suite(sweep)
    assert not rep.passed and rep.witness["subset"] == [1, 3, 4]


def test_sweep_is_shared_and_brute_runs_once_per_subset(monkeypatch):
    calls = {"brute": 0, "block": 0, "pairs": 0, "chi": 0}
    brute, block = cm_engine.cm_class_function_brute, cm_engine.closed_block

    def counted_brute(phi, model, brute_cap=BRUTE_CAP):
        calls["brute"] += 1
        return brute(phi, model, brute_cap)

    def counted_block(subsets, model, L, W, chi):
        calls["block"] += 1
        return block(subsets, model, L, W, chi)

    def counted_pairs(model):
        calls["pairs"] += 1
        return pair_tensor(model)

    def counted_chi(model):
        calls["chi"] += 1
        return permutation_character(model)

    monkeypatch.setattr(cm_engine, "cm_class_function_brute", counted_brute)
    monkeypatch.setattr(cm_engine, "closed_block", counted_block)
    monkeypatch.setattr(cm_engine, "pair_tensor", counted_pairs)
    monkeypatch.setattr(cm_engine, "permutation_character", counted_chi)
    m = s4_model()
    sweep = subset_sweep(m, 9, 3)  # eps_max is clipped to n
    assert calls == {"brute": 16, "block": 1, "pairs": 1, "chi": 1}
    assert len(sweep.subsets) == 16 and sweep.brute.shape == sweep.closed.shape
    assert check_closed_form(sweep).detail == {"subsets_checked": 16,
                                               "sampled_eps": []}
    assert check_pair_reduction_suite(sweep).detail == {"subsets_checked": 16}
    assert check_cm0_suite(sweep).detail == {"functions_checked": 32}
    assert check_galois_invariance(sweep).detail == {"generators": 2,
                                                     "classes": 5}
    assert check_induced_character(sweep).passed
    # the sweep and the pair parts, galois-invariance none; one pair tensor
    # and one permutation character for all
    assert calls == {"brute": 16, "block": 2, "pairs": 1, "chi": 1}
    # past the brute cap the closed functions alone are checked
    sweep = subset_sweep(m, None, 3, brute_cap=4)
    assert calls["brute"] == 16
    assert sweep.brute is None and "exceeds brute cap 4" in sweep.brute_skipped
    assert check_cm0_suite(sweep).detail == {"functions_checked": 16}


def test_tripled_double_coset_term_is_caught(monkeypatch):
    # the witness and count are those of the Fraction-based closed form
    def tripled(model):
        L, W = pair_tensor(model)
        return L, 3 * W

    monkeypatch.setattr(cm_engine, "pair_tensor", tripled)
    m = build_zoo_model("sym:4")
    sweep = subset_sweep(m, None, 7)
    rep = check_closed_form(sweep)
    assert not rep.passed
    assert rep.witness == {"class_index": 1, "bit": 0, "lhs": "1/3",
                           "rhs": "1/2", "subset": [1, 2]}
    assert rep.detail == {"subsets_checked": 6}
    rep = check_galois_invariance(sweep)
    assert not rep.passed and rep.witness["identity"] == "rows"


def test_int64_bound_at_the_caps():
    # |G| = ELEMENT_CAP, the largest n dividing it with C(n, 2) <= SUBSET_CAP,
    # and a class of |G| / 2 elements (a non-identity element has a
    # centralizer of order >= 2)
    order = ELEMENT_CAP
    n = max(d for d in range(2, 5000)
            if order % d == 0 and math.comb(d, 2) <= SUBSET_CAP)
    h, size = order // n, order // 2
    fake = types.SimpleNamespace(group=types.SimpleNamespace(order=order),
                                 n=n, h=h,
                                 classes=types.SimpleNamespace(sizes=[1, size]))

    def accepted(eps):
        try:
            check_closed_bound(fake, eps)
        except IntegerBoundExceeded:
            return False
        return True

    assert accepted(2)  # the verify default past the brute cap
    assert not accepted(64)  # the largest --eps-max
    top = max(e for e in range(65) if accepted(e))
    assert all(accepted(e) for e in range(top + 1))
    # the extreme numerators at the largest accepted size, in int64 and in
    # Python integers, and the pair residual's sum of them
    for T_c, chi in ((0, 0), (top * (top - 1) * h, 0), (0, n)):
        got = _closed_numerators(np.array([top]), np.array([[T_c]]),
                                 np.array([chi]), np.array([size]), n, h)
        bit1 = 2 * (top * h * size * (n - chi) - order * T_c)
        exact = [h * n * n * size - bit1, bit1]
        assert got[0, :, 0].tolist() == exact
        assert _pair_weight(top) * max(abs(v) for v in exact) <= INT64_MAX
    # a closed block alone fits at every size up to eps = n, with no check:
    # |bit 1| <= 2 n |G|^2 and |bit 0| <= 3 n |G|^2
    for T_c, chi in ((0, 0), (n * (n - 1) * h, 0), (0, n), (n * (n - 1) * h, n)):
        got = _closed_numerators(np.array([n]), np.array([[T_c]]),
                                 np.array([chi]), np.array([size]), n, h)
        bit1 = 2 * (n * h * size * (n - chi) - order * T_c)
        exact = [h * n * n * size - bit1, bit1]
        assert got[0, :, 0].tolist() == exact
        assert abs(bit1) <= 2 * n * order ** 2 < 2.6e16
        assert abs(exact[0]) <= 3 * n * order ** 2 < 3.8e16 < INT64_MAX


@st.composite
def model_and_subsets(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    perm = st.permutations(list(range(degree)))
    G = close_generators(degree, draw(st.lists(perm, min_size=1, max_size=2)))
    assume(G.order <= 120)  # keeps the literal oracle fast
    element = st.integers(min_value=0, max_value=G.order - 1)
    H_gens = [tuple(int(x) for x in G.images[g])
              for g in draw(st.lists(element, max_size=2))]
    m = UnitaryGaloisModel(G, H_gens)
    subset = st.sets(st.integers(min_value=0, max_value=m.n - 1),
                     max_size=min(3, m.n))
    subsets = [tuple(sorted(s))
               for s in draw(st.lists(subset, min_size=1, max_size=4))]
    return m, subsets


@settings(max_examples=60, deadline=None)
@given(model_and_subsets())
def test_integer_closed_form_on_random_groups(case):
    m, subsets = case
    (L, W), chi = pair_tensor(m), permutation_character(m)
    block = closed_block(subsets, m, L, W, chi)
    for s, num in zip(subsets, block):
        closed = cm_class_function_closed(s, m)
        assert np.array_equal(closed, num)
        assert values_of(closed, m) == closed_form_via_algebra(s, m)
        assert np.array_equal(closed, cm_class_function_brute(s, m))
    assert not pair_residuals(subsets, m, L, W, chi, block).any()


@st.composite
def model_and_sweep_args(draw):
    # the group is drawn through a seeded Random: permutations drawn one by
    # one shrink to the identity, and two random permutations of all 6
    # points nearly always generate A6 or S6, so each generator permutes
    # the first k points only
    rng = draw(st.randoms(use_true_random=False))
    degree = rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(2, degree)
        gens.append(tuple(rng.sample(range(k), k)) + tuple(range(k, degree)))
    G = close_generators(degree, gens)
    assume(G.order <= 120)
    H_gens = [tuple(int(x) for x in G.images[rng.randrange(G.order)])
              for _ in range(rng.randint(0, 2))]
    return (UnitaryGaloisModel(G, H_gens), rng.randint(0, 3),
            rng.randrange(100))


@settings(max_examples=100, deadline=None)
@given(model_and_sweep_args())
def test_whole_suite_on_random_groups(case):
    m, eps_max, seed = case
    sweep = subset_sweep(m, eps_max, seed)
    for rep in (check_closed_form(sweep), check_induced_character(sweep),
                check_pair_reduction_suite(sweep), check_cm0_suite(sweep),
                check_galois_invariance(sweep)):
        assert rep.to_dict()["status"] == "pass", rep.to_dict()
    # pair reduction on the brute path, whose functions all share the
    # model's denominators; parts the sweep did not draw are computed
    brute = dict(zip(sweep.subsets, sweep.brute))
    for s, num in brute.items():
        assert np.array_equal(num, brute_by_convolution(s, m)), s

    def f(s):
        if s not in brute:
            brute[s] = cm_class_function_brute(s, m)
        return brute[s]

    for s in sweep.subsets:
        eps = len(s)
        residual = (f(s) - sum(f(p) for p in itertools.combinations(s, 2))
                    + (eps - 2) * sum(f((i,)) for i in s)
                    - (eps - 1) * (eps - 2) // 2 * f(()))
        assert not np.any(residual), s
    assert np.array_equal(sweep.W[sweep.L], pair_tensor_by_lookup(m))
    # the coset action is a homomorphism: act[ab] = act[a] o act[b]
    act_rows = coset_action(m.group, m.cosets, range(m.group.order))
    everything = np.arange(m.group.order)[:, None, None]
    assert np.array_equal(act_rows[m.group.mult_table],
                          act_rows[everything, act_rows[None]])


@settings(max_examples=100, deadline=None)
@given(model_and_sweep_args())
def test_galois_invariance_proof_agrees_with_the_sampled_action(case):
    m, eps_max, seed = case
    sweep = subset_sweep(m, eps_max, seed, brute_cap=0)
    gammas, phis = sampled_pairs(m, random.Random(seed))
    assert check_galois_invariance(sweep).passed
    assert unequal_pairs(sweep, gammas, phis) == []
    # tripled, P stays G-invariant but its rows sum to 3 R_c: the closed
    # functions of phi and rho g phi then differ by a multiple of
    # (n - 2 eps) h (n - chi(c)) |c|, nonzero on a class that moves a coset
    assume(m.n >= 2)
    sweep.W = 3 * sweep.W
    rep = check_galois_invariance(sweep)
    assert not rep.passed and rep.witness["identity"] == "rows"
    moved = [p for p, ((_, bit), phi) in enumerate(zip(gammas, phis))
             if bit and 2 * len(phi) != m.n]
    assert moved and unequal_pairs(sweep, gammas, phis) == moved


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.integers(min_value=-10 ** 30, max_value=10 ** 30).filter(bool))
def test_fraction_text_matches_fractions(numerator, denominator):
    assert _fraction_text(numerator, denominator) == \
        str(Fraction(numerator, denominator))


def test_fraction_text_edges():
    rng = random.Random(0)
    pairs = [(0, 1), (0, -7), (6, 3), (-6, 3), (6, -3), (-6, -4), (1, -1),
             (2 ** 63 - 1, 2 ** 62), (-(2 ** 63), 3)]
    pairs += [(rng.randint(-500, 500),
               rng.choice([-1, 1]) * rng.randint(1, 60)) for _ in range(2_000)]
    for a, b in pairs:
        assert _fraction_text(a, b) == str(Fraction(a, b)), (a, b)
    with pytest.raises(ZeroDivisionError):
        _fraction_text(1, 0)


def test_cmred_imports_no_fractions():
    # the witness strings are formatted by _fraction_text; fractions (and
    # the decimal module it pulls in) stays off the import path
    import subprocess
    import sys
    src = str(Path(cm_engine.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cmred.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
