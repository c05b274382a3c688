"""Both computation paths for the class function attached to a CM type, and
exact checkers for the structural identities relating them.

The brute path convolves the CM-type indicator with its reflex and projects
to classes; the closed-form path assembles the same class function from the
trace, the permutation character, and conjugated double-coset counts, for a
whole block of subsets at once.  Both give int64 numerators over fixed
per-class denominators (``ClassFunction``), compared by cross-multiplying
with zero tolerance.

``closed-form``, ``pair-reduction`` and ``cm0-membership`` read one seeded
subset sweep (``subset_sweep``): the subsets are drawn once, their closed
functions are computed as one block, and their brute functions once each,
when the brute cap allows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BruteCapExceeded, IntegerBoundExceeded
from .galois_model import CMType, UnitaryGaloisModel, act
from .group_algebra import (
    BRUTE_CAP,
    ClassFunction,
    class_project,
    convolve,
    reflex,
    unequal,
)

SAMPLE_EXHAUSTIVE_LIMIT = 500  # enumerate all size-eps subsets up to this count
SAMPLE_SIZE = 100  # seeded sample size above the limit
INT64_MAX = 2 ** 63 - 1
CONTRACT_ENTRIES = 1 << 16  # bound on the (rows, n, k) temporary of a block
LOOKUP_ROWS = 1 << 16  # group elements looked up at once for the pair tensor


@dataclass
class IdentityReport:
    """Outcome of one identity check; a witness pins the first failure."""

    name: str
    passed: bool
    witness: dict | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name,
               "status": "pass" if self.passed else "fail"}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


def trace_element(model: UnitaryGaloisModel) -> np.ndarray:
    """Formal sum of all (g, 0): the trace of the big field over the
    imaginary quadratic subfield, as a group-algebra element."""
    out = np.zeros((2, model.group.order), dtype=np.int64)
    out[0] = 1
    return out


def cm_type_element(phi: CMType, model: UnitaryGaloisModel) -> np.ndarray:
    """Indicator of the CM type on Gamma: bit 1 on the cosets in the subset,
    bit 0 elsewhere; total mass hn."""
    in_phi = np.zeros(model.n, dtype=bool)
    in_phi[list(phi.indices)] = True
    flipped = in_phi[model.cosets.coset_of]
    return np.stack([~flipped, flipped]).astype(np.int64)


def _brute_allowed(model: UnitaryGaloisModel, brute_cap: int) -> bool:
    return model.gamma_order <= min(brute_cap, BRUTE_CAP)


def _require_brute(model: UnitaryGaloisModel, brute_cap: int) -> None:
    if not _brute_allowed(model, brute_cap):
        raise BruteCapExceeded(f"|Gamma| = {model.gamma_order} exceeds brute "
                               f"cap {min(brute_cap, BRUTE_CAP)}")


def reflex_convolution(phi: CMType, model: UnitaryGaloisModel,
                       brute_cap: int = BRUTE_CAP) -> np.ndarray:
    """Convolution of the CM type with its reflex (brute path), before the
    1/|Gamma| normalization."""
    _require_brute(model, brute_cap)
    elt = cm_type_element(phi, model)
    return convolve(elt, reflex(elt, model.group), model.group)


def cm_class_function_brute(phi: CMType, model: UnitaryGaloisModel,
                            brute_cap: int = BRUTE_CAP) -> ClassFunction:
    """Class means of the normalized reflex convolution (definition-level
    path): class sums over |c| |Gamma|."""
    raw = reflex_convolution(phi, model, brute_cap)
    f = class_project(raw, model.classes)
    return ClassFunction(model.classes, f.numerators,
                         f.denominators * model.gamma_order)


def permutation_character(model: UnitaryGaloisModel) -> ClassFunction:
    """Fixed-coset counts of the coset action, on the bit-0 classes."""
    if model.perm_char is None:
        k = model.classes.count
        rows = model.action[model.classes.class_reps]
        fixed = (rows == np.arange(model.n)).sum(axis=1)
        model.perm_char = ClassFunction(
            model.classes, np.stack([fixed, np.zeros(k, dtype=np.int64)]),
            np.ones(k, dtype=np.int64))
    return model.perm_char


def conjugate_subgroup_sum(model: UnitaryGaloisModel) -> ClassFunction:
    """The function g -> #{x in G : g in x H x^-1} on the bit-0 classes,
    read from the class partition and H only (never from fixed points).

    For g in class c the count is |C_G(g)| |c cap H| = |G| #(H cap c) / |c|
    (orbit-stabilizer; Isaacs, Character Theory of Finite Groups, (5.2)).
    """
    classes = model.classes
    tally = np.bincount(classes.class_of[model.cosets.subgroup_elements],
                        minlength=classes.count)
    return ClassFunction(
        classes, np.stack([model.group.order * tally, np.zeros_like(tally)]),
        classes.sizes)


def _first_unequal(lnum, lden, rnum, rden):
    """Index of the first unequal value of two stacks of class functions
    ((..., 2, k) numerators), in (function, class, bit) order, or None."""
    bad = unequal(lnum, lden, rnum, rden).swapaxes(-1, -2)
    hits = np.argwhere(bad)
    return None if not len(hits) else tuple(int(i) for i in hits[0])


def compare_class_functions(name: str, lhs: ClassFunction, rhs: ClassFunction,
                            detail: dict | None = None,
                            context: dict | None = None) -> IdentityReport:
    """Exact classwise comparison; the witness is the lexicographically first
    offending (class, bit) with both values."""
    hit = _first_unequal(lhs.numerators, lhs.denominators,
                         rhs.numerators, rhs.denominators)
    if hit is None:
        return IdentityReport(name, True, None, detail or {})
    c, bit = hit
    witness = {"class_index": c, "bit": bit,
               "lhs": str(lhs.values[c][bit]), "rhs": str(rhs.values[c][bit])}
    if context:
        witness.update(context)
    return IdentityReport(name, False, witness, detail or {})


def check_induced_character(model: UnitaryGaloisModel) -> IdentityReport:
    """Conjugate-subgroup counts equal h times the permutation character."""
    lhs = conjugate_subgroup_sum(model)
    rhs = permutation_character(model).scale(model.h)
    return compare_class_functions("induced-character", lhs, rhs,
                                   detail={"classes": model.classes.count})


def _pair_weight(eps: int) -> int:
    """Number of closed functions the pair residual of a size-eps subset adds
    up, each counted with the absolute value of its coefficient."""
    return (1 + eps * (eps - 1) // 2 + eps * abs(eps - 2)
            + (eps - 1) * (eps - 2) // 2)


def check_closed_bound(model: UnitaryGaloisModel, eps: int) -> None:
    """Raise IntegerBoundExceeded unless every integer the closed path and
    the pair residual form for subsets of size <= eps fits in int64.

    The closed denominator of class c is D_c = 2 h n^2 |c| = 2 n |G| |c|
    (hn = |G|), and the bit-1 numerator is 2 (eps h |c| (n - chi(c)) -
    |G| T_c).  Both terms are >= 0: the first is at most eps |G| |c|
    (0 <= chi <= n), the second at most eps (eps - 1) h |G| (sum_c T_c =
    eps (eps - 1) h).  So |bit 1| <= 2 eps |G| max(|c|, (eps - 1) h), and
    bit 0 = D_c / 2 - bit 1 is at most B_c = n |G| |c| + that.  A pair
    residual adds W = 1 + C(eps, 2) + eps |eps - 2| + C(eps - 1, 2)
    numerators of subsets no larger, each at most B_c, so every partial sum
    is at most W B_c; D_c <= 2 B_c <= W B_c too.  The check is
    W max_c B_c <= 2^63 - 1.

    At the caps (|G| <= ELEMENT_CAP = 2 * 10^6, C(n, 2) <= SUBSET_CAP so
    n <= 3162, |c| <= |G|) eps <= 2 always passes (W = 2, W B_c < 2.6e16),
    and eps = 64 can fail (W = 7938).  The comparisons stay smaller: brute
    against closed runs only under the table cap (|G| <= 4096), and the other
    comparisons multiply a numerator by at most |c| or n.
    """
    order, n, h = model.group.order, model.n, model.h
    size = max(model.classes.sizes)
    one = n * order * size + 2 * eps * order * max(size, (eps - 1) * h)
    if _pair_weight(eps) * one > INT64_MAX:
        raise IntegerBoundExceeded(
            f"closed-form numerators for subsets of size {eps} could reach "
            f"{_pair_weight(eps) * one} (|G| = {order}, n = {n}, largest "
            f"class {size}), past int64")


def closed_denominators(model: UnitaryGaloisModel) -> np.ndarray:
    """D_c = 2 h n^2 |c|: one denominator per class for every closed
    function of the model."""
    return 2 * model.h * model.n ** 2 * np.asarray(model.classes.sizes,
                                                   dtype=np.int64)


def _indicator(subsets, n: int) -> np.ndarray:
    """(m, n) int64 0/1 rows, one per subset."""
    lens = [len(s) for s in subsets]
    X = np.zeros((len(subsets), n), dtype=np.int64)
    X[np.repeat(np.arange(len(subsets)), lens),
      np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.int64,
                  count=sum(lens))] = 1
    return X


def _pair_tensor(model: UnitaryGaloisModel, rows: np.ndarray) -> np.ndarray:
    """The (n, n, k) tensor P[i, j, c] = #{eta in H : sigma_i eta sigma_j^-1
    in class c} for i != j, with P[i, i] = 0, with at least ``rows`` filled.

    Rows are filled on first use, one i at a time: one ``index_rows`` lookup
    of the n h = |G| elements sigma_i eta sigma_j^-1, split over blocks of j
    when that is more than LOOKUP_ROWS rows.  A filled row is nonzero (it
    counts (n - 1) h pairs), so an all-zero row is an unfilled one; with
    n = 1 there is nothing to fill.
    """
    n, k = model.n, model.classes.count
    if model.pair_tensor is None:
        model.pair_tensor = np.zeros((n, n, k), dtype=np.int64)
    P = model.pair_tensor
    todo = rows[~P[rows].any(axis=(1, 2))]
    if n < 2 or not len(todo):
        return P
    G = model.group
    reps = model.cosets.reps
    h_rows = G.images[np.array(model.cosets.subgroup_elements, dtype=np.int64)]
    inv_reps = G.inverse_images[reps]
    step = max(1, LOOKUP_ROWS // model.h)
    for i in todo.tolist():
        for start in range(0, n, step):
            js = inv_reps[start:start + step]
            # [eta, j]: sigma_i o eta o sigma_j^-1
            block = G.images[reps[i]][h_rows[:, js]].reshape(-1, G.degree)
            cls = model.classes.class_of[G.index_rows(block)].reshape(-1, len(js))
            counts = np.bincount((np.arange(len(js)) * k + cls).ravel(),
                                 minlength=len(js) * k)
            P[i, start:start + step] = counts.reshape(-1, k)
        P[i, i] = 0
    return P


def closed_block(subsets, model: UnitaryGaloisModel) -> np.ndarray:
    """Closed-form numerators of a block of subsets, shape (m, 2, k), over
    ``closed_denominators``: the half-trace, trace and permutation-character
    terms scaled by the signature, plus the conjugation-averaged double-coset
    term T_c = sum over ordered pairs i != j of the subset of P[i, j, c].
    Valid beyond the brute cap.

    bit 1 = 2 (eps h |c| (n - chi(c)) - |G| T_c) and bit 0 = D_c / 2 - bit 1,
    i.e. eps / n - eps chi / n^2 - |G| T_c / (h n^2 |c|) and 1/2 minus it.
    """
    n, h, k = model.n, model.h, model.classes.count
    X = _indicator(subsets, n)
    eps = X.sum(axis=1)
    check_closed_bound(model, int(eps.max(initial=0)))
    P = _pair_tensor(model, np.flatnonzero(X[eps >= 2].any(axis=0)))
    flat = P.reshape(n, n * k)
    T = np.zeros((len(X), k), dtype=np.int64)
    step = max(1, CONTRACT_ENTRIES // (n * k))
    for start in range(0, len(X), step):
        x = X[start:start + step]
        T[start:start + step] = ((x @ flat).reshape(len(x), n, k)
                                 * x[..., None]).sum(axis=1)
    return _closed_numerators(eps, T, permutation_character(model).numerators[0],
                              np.asarray(model.classes.sizes, dtype=np.int64),
                              n, h)


def _closed_numerators(eps, T, chi, size, n: int, h: int) -> np.ndarray:
    """(m, 2, k) numerators over 2 h n^2 |c| from the subset sizes (m,), the
    double-coset counts T (m, k), the permutation character and the class
    sizes (k,)."""
    bit1 = 2 * (eps[:, None] * (h * (n - chi) * size) - n * h * T)
    return np.stack([h * n * n * size - bit1, bit1], axis=1)


def cm_class_function_closed(phi: CMType, model: UnitaryGaloisModel) -> ClassFunction:
    """Closed-form path for one CM type: a block of one."""
    return ClassFunction(model.classes, closed_block([phi.indices], model)[0],
                         closed_denominators(model))


def sample_subsets(n: int, eps: int, rng: random.Random):
    """All size-eps subsets when there are at most SAMPLE_EXHAUSTIVE_LIMIT,
    otherwise SAMPLE_SIZE distinct seeded samples.  Returns (subsets,
    exhaustive_flag)."""
    total = math.comb(n, eps)
    if total <= SAMPLE_EXHAUSTIVE_LIMIT:
        return list(itertools.combinations(range(n), eps)), True
    chosen = set()
    while len(chosen) < SAMPLE_SIZE:
        chosen.add(tuple(sorted(rng.sample(range(n), eps))))
    return sorted(chosen), False


@dataclass
class SubsetSweep:
    """The seeded subsets of sizes 0..eps_max, stratum by stratum, with the
    closed numerators of each ((m, 2, k) over ``closed_denominators``) and,
    once a check under the brute cap asks, the brute numerators (over the
    class sizes times |Gamma|)."""

    eps_max: int
    seed: int
    subsets: list
    sampled_eps: list
    closed: np.ndarray
    brute: np.ndarray | None = None


def subset_sweep(model: UnitaryGaloisModel, eps_max: int | None,
                 seed: int) -> SubsetSweep:
    """The model's sweep for (eps_max, seed), drawn and computed on first
    use and kept in ``model.sweep``."""
    eps_max = model.n if eps_max is None else min(eps_max, model.n)
    sweep = model.sweep
    if sweep is None or (sweep.eps_max, sweep.seed) != (eps_max, seed):
        rng = random.Random(seed)
        subsets, sampled = [], []
        for eps in range(eps_max + 1):
            block, exhaustive = sample_subsets(model.n, eps, rng)
            subsets += block
            if not exhaustive:
                sampled.append(eps)
        sweep = SubsetSweep(eps_max, seed, subsets, sampled,
                            closed_block(subsets, model))
        model.sweep = sweep
    return sweep


def _sweep_brute(model: UnitaryGaloisModel, sweep: SubsetSweep,
                 brute_cap: int) -> np.ndarray:
    """Brute numerators of the sweep, one ``cm_class_function_brute`` call
    per subset, made once."""
    if sweep.brute is None:
        sweep.brute = np.stack([
            cm_class_function_brute(CMType(s, model.n), model, brute_cap).numerators
            for s in sweep.subsets])
    return sweep.brute


def _brute_denominators(model: UnitaryGaloisModel) -> np.ndarray:
    return model.gamma_order * np.asarray(model.classes.sizes, dtype=np.int64)


def _subset_context(s) -> dict:
    return {"subset": [i + 1 for i in s]}


def check_closed_form(model: UnitaryGaloisModel, eps_max: int | None = None,
                      seed: int = 0,
                      brute_cap: int = BRUTE_CAP) -> IdentityReport:
    """Brute path equals closed-form path, exactly, for every sampled subset."""
    _require_brute(model, brute_cap)
    sweep = subset_sweep(model, eps_max, seed)
    brute = _sweep_brute(model, sweep, brute_cap)
    hit = _first_unequal(brute, _brute_denominators(model),
                         sweep.closed, closed_denominators(model))
    if hit is None:
        return IdentityReport("closed-form", True, None,
                              {"subsets_checked": len(sweep.subsets),
                               "sampled_eps": sweep.sampled_eps})
    s = hit[0]
    rep = compare_class_functions(
        "closed-form",
        ClassFunction(model.classes, brute[s], _brute_denominators(model)),
        ClassFunction(model.classes, sweep.closed[s], closed_denominators(model)),
        context=_subset_context(sweep.subsets[s]))
    rep.detail = {"subsets_checked": s + 1}
    return rep


def pair_residuals(subsets, model: UnitaryGaloisModel,
                   closed: np.ndarray | None = None) -> np.ndarray:
    """Numerators, over ``closed_denominators``, of each subset's closed
    function minus the pair/singleton/empty combination
    sum_{pairs} f - (eps - 2) sum_{singles} f + C(eps - 1, 2) f(empty),
    every term a closed function of its own subset."""
    if closed is None:
        closed = closed_block(subsets, model)
    n = model.n
    owner, pair_keys = [], []
    for s, members in enumerate(subsets):
        for i, j in itertools.combinations(members, 2):
            owner.append(s)
            pair_keys.append(i * n + j)
    keys, pair_row = np.unique(np.array(pair_keys, dtype=np.int64),
                               return_inverse=True)
    X = _indicator(subsets, n)
    singles = np.flatnonzero(X.any(axis=0))
    parts = closed_block([()] + [(i,) for i in singles.tolist()]
                         + [divmod(key, n) for key in keys.tolist()], model)
    empty, single_part = parts[0], parts[1:1 + len(singles)]
    pair_part = parts[1 + len(singles):]
    pair_sum = np.zeros_like(closed)
    np.add.at(pair_sum, np.array(owner, dtype=np.int64), pair_part[pair_row])
    on_singles = np.zeros((n,) + closed.shape[1:], dtype=np.int64)
    on_singles[singles] = single_part
    single_sum = (X @ on_singles.reshape(n, -1)).reshape(closed.shape)
    eps = X.sum(axis=1)[:, None, None]
    return (closed - pair_sum + (eps - 2) * single_sum
            - (eps - 1) * (eps - 2) // 2 * empty)


def pair_reduction_residual(phi: CMType, model: UnitaryGaloisModel) -> ClassFunction:
    """Left side minus the pair/singleton/empty combination, closed path."""
    return ClassFunction(model.classes, pair_residuals([phi.indices], model)[0],
                         closed_denominators(model))


def _residual_report(model: UnitaryGaloisModel, residual: np.ndarray,
                     s) -> IdentityReport:
    k = model.classes.count
    return compare_class_functions(
        "pair-reduction",
        ClassFunction(model.classes, residual, closed_denominators(model)),
        ClassFunction(model.classes, np.zeros((2, k), dtype=np.int64),
                      np.ones(k, dtype=np.int64)),
        context=_subset_context(s))


def check_pair_reduction(model: UnitaryGaloisModel, phi: CMType) -> IdentityReport:
    return _residual_report(model, pair_reduction_residual(phi, model).numerators,
                            phi.indices)


def check_pair_reduction_suite(model: UnitaryGaloisModel,
                               eps_max: int | None = None,
                               seed: int = 0) -> IdentityReport:
    sweep = subset_sweep(model, eps_max, seed)
    residuals = pair_residuals(sweep.subsets, model, sweep.closed)
    bad = np.flatnonzero(residuals.any(axis=(1, 2)))
    if not len(bad):
        return IdentityReport("pair-reduction", True, None,
                              {"subsets_checked": len(sweep.subsets)})
    s = int(bad[0])
    rep = _residual_report(model, residuals[s], sweep.subsets[s])
    rep.detail = {"subsets_checked": s + 1}
    return rep


def check_cm0_membership(f: ClassFunction):
    """Return the constant f(g) + f(rho g) if it exists, else a witness dict.

    The class functions attached to CM types must give exactly 1/2.
    """
    sums, den = f.numerators.sum(axis=0), f.denominators
    bad = np.flatnonzero(unequal(sums, den, sums[0], den[0]))
    if len(bad):
        c = int(bad[0])
        return None, {"class_index": c,
                      "sum": str(Fraction(int(sums[c]), int(den[c]))),
                      "expected": str(Fraction(int(sums[0]), int(den[0])))}
    return Fraction(int(sums[0]), int(den[0])), None


def _class_table_witness(model: UnitaryGaloisModel) -> dict | None:
    """First member g of a class c with class_of[g] != c, over every class."""
    classes = model.classes
    members = np.fromiter(itertools.chain.from_iterable(classes.classes),
                          dtype=np.int64, count=model.group.order)
    expected = np.repeat(np.arange(classes.count), classes.sizes)
    bad = np.flatnonzero(classes.class_of[members] != expected)
    if not len(bad):
        return None
    return {"class_index": int(expected[bad[0]]), "element": int(members[bad[0]])}


def check_cm0_suite(model: UnitaryGaloisModel, eps_max: int | None = None,
                    seed: int = 0,
                    brute_cap: int = BRUTE_CAP) -> IdentityReport:
    """Every computed class function (closed, and brute under the cap) is
    rho-balanced at exactly 1/2, and the class table the values are read
    through puts every member of every class in that class."""
    witness = _class_table_witness(model)
    if witness is not None:
        return IdentityReport("cm0-membership", False, witness)
    sweep = subset_sweep(model, eps_max, seed)
    kinds = [(sweep.closed, closed_denominators(model))]
    if _brute_allowed(model, brute_cap):
        kinds.append((_sweep_brute(model, sweep, brute_cap),
                      _brute_denominators(model)))
    # [subset, kind]: some class sum differs from 1/2
    bad = np.stack([(2 * num.sum(axis=1) != den).any(axis=1)
                    for num, den in kinds], axis=1)
    hits = np.argwhere(bad)
    if not len(hits):
        return IdentityReport("cm0-membership", True, None,
                              {"functions_checked": bad.size})
    s, kind = (int(i) for i in hits[0])
    num, den = kinds[kind]
    constant, witness = check_cm0_membership(
        ClassFunction(model.classes, num[s], den))
    witness = witness or {"constant": str(constant), "expected": "1/2"}
    witness.update(_subset_context(sweep.subsets[s]))
    return IdentityReport("cm0-membership", False, witness)


def check_galois_invariance(model: UnitaryGaloisModel, pairs: int = 50,
                            seed: int = 0,
                            eps_max: int | None = None) -> IdentityReport:
    """Equivalent CM types have equal class functions (closed path)."""
    if eps_max is None:
        eps_max = model.n
    rng = random.Random(seed)
    for _ in range(pairs):
        x = (rng.randrange(model.group.order), rng.randrange(2))
        eps = rng.randrange(min(eps_max, model.n) + 1)
        phi = CMType(tuple(rng.sample(range(model.n), eps)), model.n)
        moved = act(x, phi, model)
        rep = compare_class_functions(
            "galois-invariance",
            cm_class_function_closed(moved, model),
            cm_class_function_closed(phi, model),
            context={"subset": [i + 1 for i in phi.indices],
                     "gamma": [x[0], x[1]]})
        if not rep.passed:
            return rep
    return IdentityReport("galois-invariance", True, None, {"pairs": pairs})
