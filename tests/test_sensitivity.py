"""Named mutations of the data ``galois-invariance`` reads, each pinned to the
identity its witness names (``generator <g>``, ``rows``, ``columns`` or
``total``), on a small fixed set of models, and a mutation of the
class-of-product table the brute count reads, pinned to the ``closed-form``
subset it fails on.  Every mutation is applied with ``monkeypatch`` to one
sweep, to ``pair_tensor`` when the closed functions must see it too, or to
the model's ``product_class`` before the sweep; no file is edited.
"""

import functools
from pathlib import Path

import pytest

import cmred.cm_engine as cm_engine
from cmred.cli import parse_spec
from cmred.cm_engine import (
    check_closed_form,
    check_galois_invariance,
    subset_sweep,
)
from cmred.galois_model import UnitaryGaloisModel
from cmred.permgroup import close_generators
from perm_oracle import build_zoo_model

S5_OVER_C2 = "file:" + str(Path(__file__).parent / "fixtures"
                           / "s5_over_c2.json")


@functools.lru_cache(maxsize=None)
def model(spec):
    if spec.startswith("file:"):
        _, degree, group_gens, subgroup_gens = parse_spec(spec)
        return UnitaryGaloisModel(close_generators(degree, group_gens),
                                  subgroup_gens)
    return build_zoo_model(spec)


def tripled_pair_tensor(monkeypatch, sweep):
    # P = W[L]: tripling the table triples every entry of P
    monkeypatch.setattr(sweep, "W", 3 * sweep.W)


def with_diagonal_label(L):
    # the ordered pair of cosets (1, 2) takes the label of the diagonal,
    # whose row of the table is zero: P[0, 1] = 0
    L = L.copy()
    L[0, 1] = L[0, 0]
    return L


def diagonal_label_off_the_diagonal(monkeypatch, sweep):
    monkeypatch.setattr(sweep, "L", with_diagonal_label(sweep.L))


def chi_plus_one(monkeypatch, sweep):
    chi = sweep.chi.copy()
    chi[-1] += 1
    monkeypatch.setattr(sweep, "chi", chi)


def swapped_generator_row(monkeypatch, sweep):
    # entries 0 and 1 of generator 0's action row trade places
    rows = sweep.model.generator_action_rows.copy()
    rows[0, [0, 1]] = rows[0, [1, 0]]
    monkeypatch.setattr(sweep.model, "generator_action_rows", rows)


MUTATIONS = {"tripled-pair-tensor": tripled_pair_tensor,
             "chi-plus-one": chi_plus_one,
             "swapped-generator-row": swapped_generator_row,
             "diagonal-label-off-the-diagonal":
                 diagonal_label_off_the_diagonal}

FIVE = ["sym:4", "sp4f2:-", "cyclic:6", "psu3:3", S5_OVER_C2]

# (mutation, spec, identity the witness names; None when the check passes)
CASES = (
    [("tripled-pair-tensor", spec, "rows") for spec in FIVE]
    + [("chi-plus-one", spec, "total") for spec in FIVE]
    + [("swapped-generator-row", spec, "generator 0")
       for spec in ("cyclic:6", "dihedral:7", "dihedral:12", S5_OVER_C2)]
    # the known limit: psu3:3 acts 2-transitively, so P is constant off its
    # diagonal and zero on it, and every permutation of the cosets keeps it;
    # no identity of P can see a wrong entry of an action row there
    + [("swapped-generator-row", "psu3:3", None)]
    # a wrong label is a wrong entry of P, seen there too
    + [("diagonal-label-off-the-diagonal", spec, "generator 0")
       for spec in ("sym:4", "sp4f2:-", "cyclic:6", "dihedral:7", "psu3:3",
                    S5_OVER_C2)])


def case_id(case):
    mutation, spec, _ = case
    name = Path(spec).stem if spec.startswith("file:") else spec
    return f"{mutation}-{name}"


@pytest.mark.parametrize("case", CASES, ids=map(case_id, CASES))
def test_mutation_names_its_identity(case, monkeypatch):
    mutation, spec, identity = case
    sweep = subset_sweep(model(spec), 0, 0, brute_cap=0)
    assert check_galois_invariance(sweep).passed
    MUTATIONS[mutation](monkeypatch, sweep)
    rep = check_galois_invariance(sweep)
    if identity is None:
        assert rep.passed, rep.to_dict()
        return
    assert not rep.passed
    assert rep.witness["identity"] == identity, rep.witness
    # whole-number strings, and an entry of as many cosets as the identity
    # indexes
    assert int(rep.witness["lhs"]) != int(rep.witness["rhs"])
    assert len(rep.witness["entry"]) == \
        {"rows": 1, "columns": 1, "total": 0}.get(identity, 2)


def test_witness_of_a_swapped_row_on_cyclic6(monkeypatch):
    sweep = subset_sweep(model("cyclic:6"), 0, 0, brute_cap=0)
    swapped_generator_row(monkeypatch, sweep)
    assert check_galois_invariance(sweep).to_dict() == {
        "name": "galois-invariance", "status": "fail",
        "witness": {"identity": "generator 0", "entry": [1, 2],
                    "class_index": 1, "lhs": "1", "rhs": "0"},
        "detail": {"generators": 1, "classes": 6}}


@pytest.mark.parametrize("spec", ["sym:4", "sp4f2:-", "cyclic:6"])
def test_a_pair_with_the_diagonal_label_fails_closed_form(spec, monkeypatch):
    # under the brute cap the closed functions built from the wrong label
    # differ from the brute ones first on the first pair, cosets 1 and 2
    pair_tensor = cm_engine.pair_tensor

    def mutated(m):
        L, W = pair_tensor(m)
        return with_diagonal_label(L), W

    monkeypatch.setattr(cm_engine, "pair_tensor", mutated)
    sweep = subset_sweep(model(spec), 2, 0)
    rep = check_closed_form(sweep)
    assert not rep.passed and rep.witness["subset"] == [1, 2], rep.to_dict()
    assert check_galois_invariance(sweep).witness["identity"] == "generator 0"


def swapped_product_classes(m, u0, u1):
    """``m.product_class`` with row 0 (the identity y) trading its entries at
    inverses[u0] and inverses[u1], the classes of y u0^-1 and y u1^-1, which
    must differ."""
    table = m.product_class.copy()
    a, b = m.group.inverses[[u0, u1]]
    assert table[0, a] != table[0, b]
    table[0, [a, b]] = table[0, [b, a]]
    return table


SIX = ["sym:4", "sp4f2:-", "cyclic:6", "dihedral:7", "psu3:2", "sp4f2:+"]


@pytest.mark.parametrize("spec", SIX)
def test_swapped_product_classes_across_cosets_fail_closed_form(
        spec, monkeypatch):
    # u0 = y, the identity, lies in H and u1, the rep of coset 1, does not:
    # the support H of the CM type on coset 0 alone holds y and u0, not u1,
    # so its brute count of row y reads the class of y u1^-1 for y u0^-1
    m = model(spec)
    monkeypatch.setattr(m, "product_class",
                        swapped_product_classes(m, 0, m.cosets.reps[1]))
    rep = check_closed_form(subset_sweep(m, 3, 0))
    assert not rep.passed and rep.witness["subset"] == [1], rep.to_dict()


@pytest.mark.parametrize("spec", [s for s in SIX if s != "cyclic:6"])
def test_swapped_product_classes_in_one_coset_pass(spec, monkeypatch):
    # the known limit: u0 = y and u1 both lie in H, and the support of every
    # CM type (or of its complement, which the count may take) is a union of
    # cosets, so it holds both or neither; row y's classes are read as the
    # same multiset and no brute count moves.  cyclic:6 has |H| = 1
    m = model(spec)
    monkeypatch.setattr(m, "product_class", swapped_product_classes(
        m, 0, m.cosets.subgroup_elements[1]))
    assert check_closed_form(subset_sweep(m, 3, 0)).passed
