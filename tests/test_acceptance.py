"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v`` to see the per-criterion
pass/fail lines.  The large symplectic pair (about 1.5M elements each) is
built once per session and shared between the criteria that need it.
"""

import json
import math

import pytest

from cmred.cli import main
from cmred.cm_engine import (
    check_closed_form,
    check_cm0_suite,
    check_galois_invariance,
    check_induced_character,
    check_pair_reduction_suite,
    subset_sweep,
)
from cmred.certifier import certify, orbit_table
from cmred.group_zoo import (
    _frobenius_table,
    _psi_f2,
    _unitary_generators,
    base_quadratic_mask,
    quadratic_form_value,
    small_field,
    symplectic_group_order,
    unitary_group_order,
)
from matrix_oracle import (
    close_matrices,
    enumerate_symplectic_maps,
    hermitian_form,
    mat_vec,
)
from perm_oracle import build_zoo_model

SEED = 7

# the models of the cross-check criterion (all within the brute cap)
BRUTE_MODELS = (
    "sym:3", "sym:4", "alt:4",
    "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "dihedral:4", "dihedral:5", "dihedral:6",
    "psl2:3", "psl2:5", "pgl2:3", "psl3:2",
    "sp4f2:+", "sp4f2:-", "psu3:2",
)

EXPECT_TWO_TRANSITIVE = {
    "sym:3": True, "sym:4": True, "sym:5": True, "sym:6": True,
    "alt:4": True,
    "psl2:3": True, "psl2:5": True, "psl2:7": True, "psl2:11": True,
    "pgl2:3": True, "pgl2:5": True, "pgl2:7": True, "pgl2:11": True,
    "psl3:2": True,
    "sp4f2:+": True, "sp4f2:-": True,
    "sp6f2:+": True, "sp6f2:-": True,
    "psu3:2": True, "pgu3:2": True,
    "cyclic:3": False, "cyclic:4": False, "cyclic:5": False, "cyclic:6": False,
    "dihedral:4": False, "dihedral:5": False, "dihedral:6": False,
}


@pytest.fixture(scope="session")
def models():
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = build_zoo_model(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def sweeps(models):
    """One seeded sweep of every size per model, shared by the criteria."""
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = subset_sweep(models(spec), None, SEED)
        return cache[spec]

    return get


def _announce(number, label, passed):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def test_criterion_1_closed_form_cross_check(sweeps):
    results = {}
    for spec in BRUTE_MODELS:
        rep = check_closed_form(sweeps(spec))
        results[spec] = rep
        assert rep.passed, (spec, rep.witness)
        assert rep.detail["subsets_checked"] > 0
    _announce(1, "closed form equals brute force on every sampled subset",
              all(r.passed for r in results.values()))


def test_criterion_2_induced_character_identity(models):
    specs = BRUTE_MODELS + ("sp6f2:+", "sp6f2:-")
    for spec in specs:
        rep = check_induced_character(subset_sweep(models(spec), 0, SEED))
        assert rep.passed, (spec, rep.witness)
    _announce(2, "conjugate-subgroup sum equals h times the permutation "
                 "character on every class", True)


def test_criterion_3_pair_reduction(sweeps):
    for spec in BRUTE_MODELS:
        rep = check_pair_reduction_suite(sweeps(spec))
        assert rep.passed, (spec, rep.witness)
    _announce(3, "pair-reduction residual is identically zero for every "
                 "sampled subset of every size", True)


def test_criterion_4_cm0_membership(sweeps):
    for spec in BRUTE_MODELS:
        rep = check_cm0_suite(sweeps(spec))
        assert rep.passed, (spec, rep.witness)
    _announce(4, "every computed class function is rho-balanced at 1/2 and "
                 "class-constant", True)


def test_criterion_5_galois_invariance(sweeps):
    for spec in BRUTE_MODELS:
        rep = check_galois_invariance(sweeps(spec))
        assert rep.passed, (spec, rep.witness)
    _announce(5, "equivalent CM types share one class function "
                 "(proved from the pair tensor for every pair)", True)


def test_criterion_6_transitivity_certificates(models):
    for spec, expected in EXPECT_TWO_TRANSITIVE.items():
        cert = certify(models(spec), orbit_table(models(spec), 2))
        assert cert.two_transitive is expected, (spec, cert.pair_orbit_count)
        assert cert.criterion_met is expected
        if expected:
            assert cert.orbit_counts == {0: 1, 1: 1, 2: 1}, spec
    _announce(6, "2-transitivity matches the expectation table and every "
                 "certified row has single CM-type orbits for eps <= 2", True)


def test_criterion_7_byte_determinism(capsys):
    payloads = []
    for _ in range(2):
        code = main(["verify", "sym:4", "--format", "json", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timing")
        payloads.append(json.dumps(report, sort_keys=True).encode())
    _announce(7, "verify sym:4 --seed 7 is byte-identical excluding timing",
              payloads[0] == payloads[1])


def test_criterion_8_form_preservation():
    # every enumerated Sp4(F2) map preserves the alternating form
    maps = enumerate_symplectic_maps(2)
    assert len(maps) == symplectic_group_order(2)
    assert all(_psi_f2(t[u], t[v], 2) == _psi_f2(u, v, 2)
               for t in maps for u in range(16) for v in range(16))
    # orthogonal stabilizers preserve their quadratic form on all 16 vectors
    for sign, expected in (("+", 72), ("-", 120)):
        base = base_quadratic_mask(2, sign)
        preservers = [
            t for t in maps
            if all(quadratic_form_value(base, t[v])
                   == quadratic_form_value(base, v) for v in range(16))]
        assert len(preservers) == expected
    # every unitary matrix preserves the Hermitian form on a spanning set
    F = small_field(4)
    frob = _frobenius_table(F, 2)
    gu = close_matrices(F, _unitary_generators(F, frob, 2, "pgu"))
    assert len(gu) == unitary_group_order(2, "pgu") * (2 + 1)  # 648 matrices
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for A in gu:
        for u in basis:
            for v in basis:
                assert hermitian_form(F, frob, mat_vec(F, A, u),
                                      mat_vec(F, A, v)) \
                    == hermitian_form(F, frob, u, v)
    _announce(8, "symplectic, orthogonal-stabilizer, and unitary form "
                 "preservation verified exhaustively", True)
