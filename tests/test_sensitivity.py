"""Named mutations of the data ``galois-invariance`` reads, each pinned to the
identity its witness names (``generator <g>``, ``rows``, ``columns`` or
``total``), on a small fixed set of models, and a mutation of the
class-of-product table the brute count reads, pinned to the ``closed-form``
subset it fails on.  Every mutation is applied with ``monkeypatch`` to one
sweep, to ``pair_tensor`` when the closed functions must see it too, or to
the model's ``product_class`` before the sweep; no file is edited.

Mutations of the brute path's code (the count's terms, its normalization,
its complement switch, and the span of the class-of-product table) are
recompiled from the shipped source with one named text replaced
(``mutant``), and each names the set of checks that fail on it; an
equivalent mutant names none, with the reason it is equivalent.
"""

import functools
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cmred.cm_engine as cm_engine
import cmred.group_algebra as group_algebra
from cmred.cli import parse_spec
from cmred.cm_engine import (
    check_closed_form,
    check_cm0_suite,
    check_galois_invariance,
    check_induced_character,
    check_pair_reduction_suite,
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


def mutant(module, name, old, new):
    """``module.name`` recompiled from its own source with the text ``old``,
    which must occur there once, replaced by ``new``: a mutation of the
    shipped code that fails here, not silently, when that text changes.
    A decorated method gives its undecorated function."""
    function = getattr(module, name)
    function = getattr(function, "func", function)  # a cached_property's
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function),
                 "exec"), namespace)
    made = namespace[function.__name__]
    return getattr(made, "func", made)


def without_support_term(monkeypatch):
    # bit 1 = 2 |U| |c| - 2 Q[c] loses its 2 |U| |c|
    monkeypatch.setattr(cm_engine, "indicator_reflex_class_sums", mutant(
        group_algebra, "indicator_reflex_class_sums",
        "2 * (len(support) * size - pairs)", "2 * (0 * size - pairs)"))


def without_normalization(monkeypatch):
    # the class sums are not brought over D_c = n |Gamma| |c|
    monkeypatch.setattr(cm_engine, "cm_class_function_brute", mutant(
        cm_engine, "cm_class_function_brute", "return model.n * sums",
        "return sums"))


def larger_support(monkeypatch):
    # the count runs on the larger of U and its complement
    monkeypatch.setattr(cm_engine, "indicator_reflex_class_sums", mutant(
        group_algebra, "indicator_reflex_class_sums",
        "if 2 * len(support) > G.order:", "if 2 * len(support) < G.order:"))


def rows_through_left_maps(monkeypatch):
    # row g o e of the class-of-product table is row e read through
    # L_g: b -> g o b, not R_g: b -> b o g
    table = functools.cached_property(mutant(
        UnitaryGaloisModel, "product_class",
        "right = G.generator_maps(right=True)",
        "right = G.generator_maps(right=False)"))
    table.__set_name__(UnitaryGaloisModel, "product_class")
    monkeypatch.setattr(UnitaryGaloisModel, "product_class", table)


BRUTE_MUTATIONS = {"without-support-term": without_support_term,
                   "without-normalization": without_normalization,
                   "larger-support": larger_support,
                   "rows-through-left-maps": rows_through_left_maps}

CHECKS = {"closed-form": check_closed_form,
          "induced-character": check_induced_character,
          "pair-reduction": check_pair_reduction_suite,
          "cm0-membership": check_cm0_suite,
          "galois-invariance": check_galois_invariance}

# (mutation, spec, the checks that fail; none for an equivalent mutant)
BRUTE_CASES = (
    [("without-support-term", spec, {"closed-form"})
     for spec in ("sym:4", "sp4f2:-", "cyclic:6")]
    # the brute functions are no longer rho-balanced at 1/2 either
    + [("without-normalization", spec, {"closed-form", "cm0-membership"})
       for spec in ("sym:4", "sp4f2:-", "cyclic:6")]
    # equivalent: with V = G - U, each y in G has |c| partners u with
    # y u^-1 in c, so |V| |c| - Q_V[c] = |U| |c| - Q_U[c] and the count is
    # the same on either set; no check can see which one it ran on
    + [("larger-support", spec, set())
       for spec in ("sym:4", "sp4f2:-", "cyclic:6")]
    + [("rows-through-left-maps", spec, {"closed-form"})
       for spec in ("sym:4", "sp4f2:-", "psl3:2", "dihedral:12")]
    # equivalent on an abelian group: L_g = R_g
    + [("rows-through-left-maps", "cyclic:6", set())])


@pytest.mark.parametrize("case", BRUTE_CASES, ids=map(case_id, BRUTE_CASES))
def test_brute_mutation_names_its_checks(case, monkeypatch):
    mutation, spec, failing = case
    sweep = subset_sweep(model(spec), 3, 0)
    assert all(check(sweep).passed for check in CHECKS.values())
    BRUTE_MUTATIONS[mutation](monkeypatch)
    # a fresh model, whose class-of-product table the mutation may build
    mutated = subset_sweep(build_zoo_model(spec), 3, 0)
    assert mutated.brute is not None
    assert {name for name, check in CHECKS.items()
            if not check(mutated).passed} == failing
    if not failing:  # equivalent: every brute numerator is the same
        assert np.array_equal(mutated.brute, sweep.brute)
