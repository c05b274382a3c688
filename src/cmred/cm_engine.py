"""Both computation paths for the class function attached to a CM type, and
exact checkers for the structural identities relating them.

The brute path counts the class sums of the CM-type indicator times its
reflex on the indicator's support, through the class-of-product table of G
(``group_algebra.indicator_reflex_class_sums``); the closed-form path
assembles the same class function from the trace, the permutation
character, and double-coset counts gathered by subset size from the pair
tensor, an (n, n) label matrix over its distinct rows (``pair_tensor``).
Both give (2, k) int64 numerators over one denominator per class for the
whole model, D_c = 2 h n^2 |c| (``closed_denominators``), so every
comparison is integer equality, with zero tolerance; witness strings write
a numerator over its denominator in lowest terms (``_fraction_text``).

A CM type is a sorted tuple of coset indices (see ``galois_model``).  Every
check takes one seeded subset sweep (``subset_sweep``), built once per run:
the subsets are drawn once, the pair tensor and the permutation character of
the closed form are computed once, the closed functions as one block, and
the brute functions once each, when the brute cap allows.  Galois
invariance is proved for every CM type from the pair tensor alone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BruteCapExceeded, IntegerBoundExceeded
from .galois_model import UnitaryGaloisModel
from .group_algebra import BRUTE_CAP, indicator_reflex_class_sums
from .permgroup import TAKE_ENTRIES, _take, coset_action

SAMPLE_EXHAUSTIVE_LIMIT = 500  # enumerate all size-eps subsets up to this count
SAMPLE_SIZE = 100  # seeded sample size above the limit
INT64_MAX = 2 ** 63 - 1


@dataclass
class IdentityReport:
    """Outcome of one identity check; a witness pins the first failure, a
    reason marks a check that was skipped."""

    name: str
    passed: bool
    witness: dict | None = None
    detail: dict = field(default_factory=dict)
    reason: str | None = None

    def to_dict(self) -> dict:
        status = "pass" if self.passed else "fail"
        out = {"name": self.name,
               "status": status if self.reason is None else "skipped"}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def brute_skip_reason(model: UnitaryGaloisModel, brute_cap: int) -> str | None:
    """Why the brute path cannot run on this model, or None when it can."""
    if model.gamma_order <= min(brute_cap, BRUTE_CAP):
        return None
    return (f"|Gamma| = {model.gamma_order} exceeds brute cap "
            f"{min(brute_cap, BRUTE_CAP)}")


def cm_class_function_brute(phi, model: UnitaryGaloisModel,
                            brute_cap: int = BRUTE_CAP) -> np.ndarray:
    """Class means of the convolution of the CM type ``phi`` (a subset of
    coset indices) with its reflex, normalized by 1/|Gamma| (definition-level
    path): (2, k) numerators over ``closed_denominators``, that is the class
    sums over |c| |Gamma| times n (D_c = 2 h n^2 |c| = n |Gamma| |c|).  The
    CM type's indicator on Gamma has bit 1 on the elements of the cosets in
    ``phi``, bit 0 elsewhere.

    The class sums are counted, not read off the whole product: the bit-1
    sum over a class c is the number of pairs (y, z) of G x G with
    y z^-1 in c whose indicator bits differ, which is exactly the sum of the
    convolution's coefficients over c.  The count reads only the
    class-of-product table, the inverses and the class partition of G; never
    the cosets' action or any closed-form quantity, so the cross-check
    stays independent.
    """
    reason = brute_skip_reason(model, brute_cap)
    if reason is not None:
        raise BruteCapExceeded(reason)
    in_phi = np.zeros(model.n, dtype=bool)
    in_phi[list(phi)] = True
    sums = indicator_reflex_class_sums(in_phi[model.cosets.coset_of], model)
    return model.n * sums


def permutation_character(model: UnitaryGaloisModel) -> np.ndarray:
    """Fixed-coset counts of the coset action per class of G, shape (k,):
    one action row per class representative."""
    rows = coset_action(model.group, model.cosets, model.classes.class_reps)
    return (rows == np.arange(model.n)).sum(axis=1)


def conjugate_subgroup_sum(model: UnitaryGaloisModel) -> np.ndarray:
    """The counts g -> #{x in G : g in x H x^-1} per class of G, shape (k,),
    read from the class partition and H only (never from fixed points).

    For g in class c the count is |C_G(g)| |c cap H| = |G| #(H cap c) / |c|
    (orbit-stabilizer; Isaacs, Character Theory of Finite Groups, (5.2)),
    a whole number since |G| / |c| = |C_G(g)|.
    """
    size = np.asarray(model.classes.sizes, dtype=np.int64)
    return model.group.order // size * _subgroup_class_tally(model)


def _subgroup_class_tally(model: UnitaryGaloisModel) -> np.ndarray:
    """#(H cap c) per class c of G, shape (k,)."""
    classes = model.classes
    return np.bincount(classes.class_of[model.cosets.subgroup_elements],
                       minlength=classes.count)


def _fraction_text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` without importing
    ``fractions``: lowest terms with the sign on the numerator, and no
    denominator when it is 1."""
    if denominator == 0:
        raise ZeroDivisionError(f"{numerator}/0")
    g = math.gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    numerator, denominator = numerator // g, denominator // g
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def _first_mismatch(lhs, rhs, den):
    """The first differing value of two stacks of class functions ((m, 2, k)
    numerators over the same (k,) denominators), in (row, class, bit)
    order, as the row and a witness with the class, the bit and both
    values; or None."""
    hits = np.argwhere((lhs != rhs).swapaxes(-1, -2))
    if not len(hits):
        return None
    s, c, bit = (int(i) for i in hits[0])
    return s, {"class_index": c, "bit": bit,
               "lhs": _fraction_text(int(lhs[s, bit, c]), int(den[c])),
               "rhs": _fraction_text(int(rhs[s, bit, c]), int(den[c]))}


def check_induced_character(sweep: SubsetSweep) -> IdentityReport:
    """Conjugate-subgroup counts equal h times the sweep's permutation
    character, class by class; both vanish on the bit-1 classes."""
    model = sweep.model
    lhs, rhs = conjugate_subgroup_sum(model), model.h * sweep.chi
    detail = {"classes": model.classes.count}
    bad = np.flatnonzero(lhs != rhs)
    if not len(bad):
        return IdentityReport("induced-character", True, None, detail)
    c = int(bad[0])
    return IdentityReport("induced-character", False,
                          {"class_index": c, "bit": 0,
                           "lhs": str(int(lhs[c])), "rhs": str(int(rhs[c]))},
                          detail)


def _pair_weight(eps: int) -> int:
    """Number of closed functions the pair residual of a size-eps subset adds
    up, each counted with the absolute value of its coefficient."""
    return (1 + eps * (eps - 1) // 2 + eps * abs(eps - 2)
            + (eps - 1) * (eps - 2) // 2)


def check_closed_bound(model: UnitaryGaloisModel, eps: int) -> None:
    """Raise IntegerBoundExceeded unless every integer the pair residual
    of a subset of size <= eps forms fits in int64.

    The closed denominator of class c is D_c = 2 h n^2 |c| = 2 n |G| |c|
    (hn = |G|), and the bit-1 numerator is 2 (A - B) with A = eps h |c|
    (n - chi(c)) and B = |G| T_c.  Both terms are >= 0: A <= eps |G| |c|
    (0 <= chi <= n), and B <= eps (eps - 1) h |G| (sum_c T_c =
    eps (eps - 1) h).  So |bit 1| <= 2 eps |G| max(|c|, (eps - 1) h), and
    bit 0 = D_c / 2 - bit 1 is at most B_c = n |G| |c| + that.

    A closed block alone always fits, whatever its subset sizes.  With
    eps <= n, (eps - 1) h < |G| and |c| <= |G|, each of A, B and D_c / 2 is
    at most n |G|^2, so |bit 1| <= 2 n |G|^2 and |bit 0| <= 3 n |G|^2.  At
    the caps (|G| <= ELEMENT_CAP = 2 * 10^6, C(n, 2) <= SUBSET_CAP so
    n <= 3162) that is below 2.6e16 and 3.8e16, so ``closed_block`` needs
    no check.

    A pair residual adds W = 1 + C(eps, 2) + eps |eps - 2| + C(eps - 1, 2)
    numerators of subsets no larger, each at most B_c, so every partial sum
    is at most W B_c; D_c <= 2 B_c <= W B_c too.  The check is
    W max_c B_c <= 2^63 - 1.  At the caps eps <= 2 always passes (W = 2,
    W B_c < 2.6e16), and eps = 64 can fail (W = 7938).  The comparisons stay
    smaller: every function of a model shares the denominators D_c, so
    the checks compare numerators as they are and multiply no two of them.
    The brute numerators are class sums times n, at most n |G| |c| <=
    4096^3 < 7e10 under the table cap.  The cm0 witness reads sums[0] |c|,
    which is D_c / 2 for every function either path builds.
    """
    order, n, h = model.group.order, model.n, model.h
    size = max(model.classes.sizes)
    one = n * order * size + 2 * eps * order * max(size, (eps - 1) * h)
    if _pair_weight(eps) * one > INT64_MAX:
        raise IntegerBoundExceeded(
            f"pair-reduction residuals for subsets of size {eps} could reach "
            f"{_pair_weight(eps) * one} (|G| = {order}, n = {n}, largest "
            f"class {size}), past int64")


def closed_denominators(model: UnitaryGaloisModel) -> np.ndarray:
    """D_c = 2 h n^2 |c|: one denominator per class for every closed
    function of the model."""
    return 2 * model.h * model.n ** 2 * np.asarray(model.classes.sizes,
                                                   dtype=np.int64)


def _by_size(subsets):
    """(rows, S) per subset size e present, smallest first: the positions of
    the size-e subsets in ``subsets`` and their (m, e) int64 members."""
    lens = np.fromiter(map(len, subsets), dtype=np.int64, count=len(subsets))
    for e in np.flatnonzero(np.bincount(lens)).tolist():
        rows = np.flatnonzero(lens == e)
        yield rows, np.array([subsets[r] for r in rows.tolist()],
                             dtype=np.int64)


def pair_tensor(model: UnitaryGaloisModel) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n, k) tensor P[i, j, c] = #{eta in H : sigma_i eta sigma_j^-1
    in class c} for i != j, with P[i, i] = 0, as (L, W) with P = W[L]: an
    (n, n) label matrix L (uint8 up to 256 labels) over the (d, k) int64
    table W of P's distinct rows.  L is the transposed view of label[J],
    gathered a chunk at a time, so besides J and L no (n, n) array is made.

    eta -> g = sigma_i eta sigma_j^-1 is a bijection from H onto the g with
    g sigma_j H = sigma_i H.  Conjugation by sigma_j keeps every class and
    maps those g onto the g' = sigma_j^-1 g sigma_j with g' H =
    sigma_j^-1 sigma_i H.  So P[i, j, c] = P0[J[j, i], c], where
    P0[m, c] = #{g in c : g in sigma_m H} is one tally over G and J[j] is
    the coset-action row of sigma_j^-1, n^2 lookups in all.  Neither the
    inverses nor the multiplication table of G are read.

    Conjugation by H keeps every class, so P0's rows are constant on the
    H-orbits of cosets: W has at most rank <pi, pi> rows.  Only the coset H
    holds the identity, and J[j, i] is H exactly when i = j, so zeroing
    H's row of W zeroes the diagonal of P and nothing else.
    """
    G, C = model.group, model.cosets
    n, k = model.n, model.classes.count
    # int64 before the arithmetic: coset indices are uint8 or uint16 and
    # class indices int32
    P0 = np.bincount(C.coset_of.astype(np.int64) * k + model.classes.class_of,
                     minlength=n * k).reshape(n, k)
    W, label = np.unique(P0, axis=0, return_inverse=True)
    W[label[0]] = 0
    rep_rows = G.images[np.asarray(C.reps, dtype=np.int64)]
    J = coset_action(G, C, G.index_elements(
        np.argsort(rep_rows, axis=1), "inverses of the coset representatives"))
    return _take(label.astype(np.min_scalar_type(len(W) - 1)), J).T, W


def closed_block(subsets, model: UnitaryGaloisModel, L: np.ndarray,
                 W: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Closed-form numerators of a block of subsets, shape (m, 2, k), over
    ``closed_denominators``: the half-trace, trace and permutation-character
    terms scaled by the signature, plus the conjugation-averaged double-coset
    term T_c = sum over ordered pairs i != j of the subset of P[i, j, c]
    (P = W[L] with (L, W) = ``pair_tensor(model)``, chi =
    ``permutation_character(model)``, both computed once by the caller).
    Valid beyond the brute cap.

    T is gathered one size e at a time: for the subsets (of distinct
    cosets) with members S (m, e), it sums W[L[S[:, a], S]] over a and
    members.

    bit 1 = 2 (eps h |c| (n - chi(c)) - |G| T_c) and bit 0 = D_c / 2 - bit 1,
    i.e. eps / n - eps chi / n^2 - |G| T_c / (h n^2 |c|) and 1/2 minus it.
    """
    n, h, k = model.n, model.h, model.classes.count
    eps = np.zeros(len(subsets), dtype=np.int64)
    T = np.zeros((len(subsets), k), dtype=np.int64)
    for rows, S in _by_size(subsets):
        eps[rows] = S.shape[1]
        for a in range(S.shape[1]):
            T[rows] += W[L[S[:, a, None], S]].sum(axis=1)
    return _closed_numerators(eps, T, chi,
                              np.asarray(model.classes.sizes, dtype=np.int64),
                              n, h)


def _closed_numerators(eps, T, chi, size, n: int, h: int) -> np.ndarray:
    """(m, 2, k) numerators over 2 h n^2 |c| from the subset sizes (m,), the
    double-coset counts T (m, k), the permutation character and the class
    sizes (k,)."""
    bit1 = 2 * (eps[:, None] * (h * (n - chi) * size) - n * h * T)
    return np.stack([h * n * n * size - bit1, bit1], axis=1)


def cm_class_function_closed(phi, model: UnitaryGaloisModel) -> np.ndarray:
    """Closed-form path for one CM type (a subset of coset indices): a block
    of one, with its own pair tensor and permutation character; (2, k)
    numerators over ``closed_denominators``."""
    return closed_block([phi], model, *pair_tensor(model),
                        permutation_character(model))[0]


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
    """The seeded subsets of sizes 0..eps_max of one model, stratum by
    stratum (sorted tuples of coset indices), its pair tensor (L, W) and
    permutation character chi (k,), each computed once per run, the closed
    numerators of each subset ((m, 2, k) over ``closed_denominators``) and
    either their brute numerators (the same shape, over the same
    denominators) or the reason the brute cap rules them out."""

    model: UnitaryGaloisModel
    subsets: list
    sampled_eps: list
    L: np.ndarray
    W: np.ndarray
    chi: np.ndarray
    closed: np.ndarray
    brute: np.ndarray | None
    brute_skipped: str | None


def subset_sweep(model: UnitaryGaloisModel, eps_max: int | None, seed: int,
                 brute_cap: int = BRUTE_CAP) -> SubsetSweep:
    """Draw the seeded subsets of sizes 0..eps_max (every size when None),
    build the pair tensor and the permutation character, and compute the
    closed functions as one block and, under the brute cap, the brute
    functions, one ``cm_class_function_brute`` call each."""
    eps_max = model.n if eps_max is None else min(eps_max, model.n)
    rng = random.Random(seed)
    subsets, sampled = [], []
    for eps in range(eps_max + 1):
        block, exhaustive = sample_subsets(model.n, eps, rng)
        subsets += block
        if not exhaustive:
            sampled.append(eps)
    (L, W), chi = pair_tensor(model), permutation_character(model)
    closed = closed_block(subsets, model, L, W, chi)
    reason = brute_skip_reason(model, brute_cap)
    brute = None if reason is not None else np.stack([
        cm_class_function_brute(s, model, brute_cap) for s in subsets])
    return SubsetSweep(model, subsets, sampled, L, W, chi, closed, brute,
                       reason)


def _subset_failure(name: str, sweep: SubsetSweep, s: int,
                    witness: dict) -> IdentityReport:
    """The report of a check that failed first on the sweep's subset s."""
    witness["subset"] = [i + 1 for i in sweep.subsets[s]]
    return IdentityReport(name, False, witness, {"subsets_checked": s + 1})


def check_closed_form(sweep: SubsetSweep) -> IdentityReport:
    """Brute path equals closed-form path, exactly, for every sampled subset;
    skipped when the sweep has no brute functions."""
    if sweep.brute is None:
        return IdentityReport("closed-form", True,
                              reason=f"cap: {sweep.brute_skipped}")
    hit = _first_mismatch(sweep.brute, sweep.closed,
                          closed_denominators(sweep.model))
    if hit is None:
        return IdentityReport("closed-form", True, None,
                              {"subsets_checked": len(sweep.subsets),
                               "sampled_eps": sweep.sampled_eps})
    return _subset_failure("closed-form", sweep, *hit)


def pair_residuals(subsets, model: UnitaryGaloisModel, L: np.ndarray,
                   W: np.ndarray, chi: np.ndarray,
                   closed: np.ndarray | None = None) -> np.ndarray:
    """Numerators, over ``closed_denominators``, of each subset's closed
    function minus the pair/singleton/empty combination
    sum_{pairs} f - (eps - 2) sum_{singles} f + C(eps - 1, 2) f(empty),
    every term a closed function of its own subset.  Raises
    IntegerBoundExceeded first when the sums could leave int64.

    The pairs {i, j} (key i n + j) and singletons (diagonal key i n + i) are
    marked, computed as one closed block and gathered by key, size by size."""
    n = model.n
    groups = list(_by_size(subsets))
    check_closed_bound(model, max((S.shape[1] for _, S in groups), default=0))
    if closed is None:
        closed = closed_block(subsets, model, L, W, chi)
    marked = np.zeros(n * n, dtype=bool)
    for _, S in groups:
        a, b = np.triu_indices(S.shape[1], 1)
        marked[S[:, a] * n + S[:, b]] = marked[S * (n + 1)] = True
    keys = np.flatnonzero(marked)
    parts = closed_block([()] + [tuple({*divmod(key, n)}) for key in
                                 keys.tolist()], model, L, W, chi)
    empty, parts = parts[0], parts[1:]
    out = np.empty_like(closed)
    for rows, S in groups:
        e = S.shape[1]
        a, b = np.triu_indices(e, 1)
        pairs = np.searchsorted(keys, S[:, a] * n + S[:, b])
        singles = np.searchsorted(keys, S * (n + 1))
        out[rows] = (closed[rows] - parts[pairs].sum(axis=1)
                     + (e - 2) * parts[singles].sum(axis=1)
                     - (e - 1) * (e - 2) // 2 * empty)
    return out


def check_pair_reduction_suite(sweep: SubsetSweep) -> IdentityReport:
    """Every sampled subset's closed function is the pair/singleton/empty
    combination of closed functions, exactly."""
    residuals = pair_residuals(sweep.subsets, sweep.model, sweep.L, sweep.W,
                               sweep.chi, sweep.closed)
    hit = _first_mismatch(residuals, np.zeros_like(residuals),
                          closed_denominators(sweep.model))
    if hit is None:
        return IdentityReport("pair-reduction", True, None,
                              {"subsets_checked": len(sweep.subsets)})
    return _subset_failure("pair-reduction", sweep, *hit)


def check_cm0_suite(sweep: SubsetSweep) -> IdentityReport:
    """Every function of the sweep (closed, and brute when it has them) is
    rho-balanced at exactly 1/2."""
    model = sweep.model
    den = closed_denominators(model)
    kinds = [sweep.closed] if sweep.brute is None \
        else [sweep.closed, sweep.brute]
    # f(g) + f(rho g) per [subset, kind, class], over den
    sums = np.stack([num.sum(axis=1) for num in kinds], axis=1)
    bad = (2 * sums != den).any(axis=2)
    hits = np.argwhere(bad)
    if not len(hits):
        return IdentityReport("cm0-membership", True, None,
                              {"functions_checked": bad.size})
    s, kind = (int(i) for i in hits[0])
    row = sums[s, kind]
    # D_c = D_0 |c|, so the value on c equals the one on the identity class
    # exactly when row[c] = row[0] |c|
    off = np.flatnonzero(
        row != row[0] * np.asarray(model.classes.sizes, dtype=np.int64))
    if len(off):
        c = int(off[0])
        witness = {"class_index": c,
                   "sum": _fraction_text(int(row[c]), int(den[c])),
                   "expected": _fraction_text(int(row[0]), int(den[0]))}
    else:
        witness = {"constant": _fraction_text(int(row[0]), int(den[0])),
                   "expected": "1/2"}
    witness["subset"] = [i + 1 for i in sweep.subsets[s]]
    return IdentityReport("cm0-membership", False, witness)


def _label_sums(L: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The row sums and the column sums of P = W[L], stacked as (2, n, k)
    int64: the label counts of each row of L, and of L^T, times W.  The
    counts are taken over row blocks of about ``TAKE_ENTRIES`` entries, so
    no (n, n) key or count array is made."""
    n, d = len(L), len(W)
    step = max(1, TAKE_ENTRIES // n)
    sums = np.empty((2, n, W.shape[1]), dtype=np.int64)
    for M, out in zip((L, L.T), sums):
        for start in range(0, n, step):
            block = M[start:start + step]
            keys = np.arange(len(block))[:, None] * d + block  # int64
            out[start:start + step] = np.bincount(
                keys.ravel(), minlength=len(block) * d).reshape(-1, d) @ W
    return sums


def check_galois_invariance(sweep: SubsetSweep) -> IdentityReport:
    """Equivalent CM types have equal closed functions, for every (gamma,
    phi): ``closed_block`` reads S only through eps = |S| and T(S), the sum
    of P[i, j] over i, j in S, and three identities of P = W[L] prove it.
    1. ``generator g``: P[r[i], r[j]] = P[i, j] for the action row r of each
       of ``G.orbit_generators``, which generate G.  So T(gS) = T(S).
    2. ``rows``, ``columns``: each row and column of P[:, :, c] sums to R_c =
       |c| - |H cap c|.  The sum of P, n R_c, splits into T(S), T(S^c) and
       two cross blocks of eps R_c - T(S): T(S^c) = T(S) + (n - 2 eps) R_c.
    3. ``total``: the sum of P is (n - chi(c)) |c|.  The bit-1 numerators
       2 (eps h |c| (n - chi) - |G| T) of S^c and S then differ by
       2 (n - 2 eps) h ((n - chi) |c| - n R_c) = 0: closed(S^c) = closed(S).
    W's rows are distinct, so identity 1 compares labels, a block of about
    ``TAKE_ENTRIES`` entries of L at a time; the sums are ``_label_sums``.
    Besides L and the (n, k) sums only block-sized arrays are made.  Cosets
    are 1-based.
    """
    model, L, W = sweep.model, sweep.L, sweep.W
    n, k = model.n, model.classes.count
    size = np.asarray(model.classes.sizes, dtype=np.int64)
    R = np.broadcast_to(size - _subgroup_class_tally(model), (n, k))
    rows = model.generator_action_rows
    detail = {"generators": len(rows), "classes": k}

    def failure(identity, entry, lhs, rhs):
        c = int(np.flatnonzero(lhs != rhs)[0])
        witness = {"identity": identity, "class_index": c,
                   "entry": [int(i) + 1 for i in entry],
                   "lhs": str(lhs[c]), "rhs": str(rhs[c])}
        return IdentityReport("galois-invariance", False, witness, detail)

    step = max(1, TAKE_ENTRIES // n)  # rows of L per block
    for g, r in enumerate(rows):
        for start in range(0, n, step):
            block = L[start:start + step]
            moved = L[r[start:start + step, None], r]
            bad = np.argwhere(moved != block)
            if len(bad):
                i, j = bad[0]
                return failure(f"generator {g}", (start + i, j),
                               W[moved[i, j]], W[block[i, j]])
    row_sums, column_sums = _label_sums(L, W)
    for identity, lhs, rhs in (
            ("rows", row_sums, R), ("columns", column_sums, R),
            ("total", row_sums.sum(axis=0), (n - sweep.chi) * size)):
        bad = np.argwhere(lhs != rhs)
        if len(bad):
            entry = tuple(bad[0, :-1])
            return failure(identity, entry, lhs[entry], rhs[entry])
    return IdentityReport("galois-invariance", True, None, detail)
