"""Both computation paths for the class function attached to a CM type, and
exact checkers for the structural identities relating them.

The brute path convolves the CM-type indicator with its reflex and projects
to classes; the closed-form path assembles the same class function from the
trace, the permutation character, and conjugated double-coset counts.  The
two are compared coefficient-by-coefficient with zero tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BruteCapExceeded
from .galois_model import CMType, UnitaryGaloisModel, act
from .group_algebra import (
    BRUTE_CAP,
    ClassFunction,
    class_project,
    convolve,
    evaluate,
    reflex,
)

SAMPLE_EXHAUSTIVE_LIMIT = 500  # enumerate all size-eps subsets up to this count
SAMPLE_SIZE = 100  # seeded sample size above the limit
MEMBERS_PER_CLASS = 10  # cm0 re-evaluates a class at up to this many members


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
    path)."""
    raw = reflex_convolution(phi, model, brute_cap)
    return class_project(raw, model.classes).scale(Fraction(1, model.gamma_order))


def permutation_character(model: UnitaryGaloisModel) -> ClassFunction:
    """Fixed-coset counts of the coset action, on the bit-0 classes."""
    if model.perm_char is None:
        vals = []
        for rep in model.classes.class_reps:
            row = model.action[rep]
            fixed = int(sum(1 for i in range(model.n) if row[i] == i))
            vals.append([fixed, 0])
        model.perm_char = ClassFunction(model.classes, vals)
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
    order = model.group.order
    return ClassFunction(classes, [[Fraction(order * int(t), size), 0]
                                   for t, size in zip(tally, classes.sizes)])


def compare_class_functions(name: str, lhs: ClassFunction, rhs: ClassFunction,
                            detail: dict | None = None,
                            context: dict | None = None) -> IdentityReport:
    """Exact classwise comparison; the witness is the lexicographically first
    offending (class, bit) with both values."""
    for c in range(lhs.classes.count):
        for bit in (0, 1):
            if lhs.values[c][bit] != rhs.values[c][bit]:
                witness = {"class_index": c, "bit": bit,
                           "lhs": str(lhs.values[c][bit]),
                           "rhs": str(rhs.values[c][bit])}
                if context:
                    witness.update(context)
                return IdentityReport(name, False, witness, detail or {})
    return IdentityReport(name, True, None, detail or {})


def check_induced_character(model: UnitaryGaloisModel) -> IdentityReport:
    """Conjugate-subgroup counts equal h times the permutation character."""
    lhs = conjugate_subgroup_sum(model)
    rhs = permutation_character(model).scale(model.h)
    return compare_class_functions("induced-character", lhs, rhs,
                                   detail={"classes": model.classes.count})


def _pair_class_counts(model: UnitaryGaloisModel, i: int, j: int) -> list[int]:
    """Per-class counts of sigma_i eta sigma_j^-1 over eta in H (i != j)."""
    cache = model.pair_counts
    if (i, j) not in cache:
        G = model.group
        reps = model.cosets.reps
        h_rows = G.images[np.array(model.cosets.subgroup_elements, dtype=np.int64)]
        sj_inv = G.inverse_images[reps[j]]
        rows = G.images[reps[i]][h_rows[:, sj_inv]]  # sigma_i o eta o sigma_j^-1
        cache[(i, j)] = np.bincount(
            model.classes.class_of[G.index_rows(rows)],
            minlength=model.classes.count).tolist()
    return cache[(i, j)]


def cm_class_function_closed(phi: CMType, model: UnitaryGaloisModel) -> ClassFunction:
    """Closed-form path: half-trace, trace and permutation-character terms
    scaled by the signature, plus the conjugation-averaged double-coset term
    over ordered pairs of distinct subset members.  Valid beyond the brute
    cap."""
    small = len(phi.indices) <= 2
    cache = model.closed_small
    if small and phi.indices in cache:
        return cache[phi.indices]
    n, h = model.n, model.h
    eps = phi.eps
    order = model.group.order
    chi = permutation_character(model)
    classes = model.classes
    k = classes.count
    tcounts = [0] * k
    for i in phi.indices:
        for j in phi.indices:
            if i != j:
                pc = _pair_class_counts(model, i, j)
                for c in range(k):
                    tcounts[c] += pc[c]
    vals = []
    for c in range(k):
        base = Fraction(eps, n) - Fraction(eps, n * n) * chi.values[c][0]
        conj_avg = Fraction(order * tcounts[c], h * n * n * classes.sizes[c])
        bit1 = base - conj_avg
        vals.append([Fraction(1, 2) - bit1, bit1])
    out = ClassFunction(classes, vals)
    if small:
        cache[phi.indices] = out
    return out


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


def check_closed_form(model: UnitaryGaloisModel, eps_max: int | None = None,
                      seed: int = 0,
                      brute_cap: int = BRUTE_CAP) -> IdentityReport:
    """Brute path equals closed-form path, exactly, for every sampled subset."""
    _require_brute(model, brute_cap)
    if eps_max is None:
        eps_max = model.n
    rng = random.Random(seed)
    checked = 0
    sampled = []
    for eps in range(min(eps_max, model.n) + 1):
        subsets, exhaustive = sample_subsets(model.n, eps, rng)
        if not exhaustive:
            sampled.append(eps)
        for s in subsets:
            phi = CMType(s, model.n)
            brute = cm_class_function_brute(phi, model, brute_cap)
            closed = cm_class_function_closed(phi, model)
            checked += 1
            rep = compare_class_functions(
                "closed-form", brute, closed,
                context={"subset": [i + 1 for i in s]})
            if not rep.passed:
                rep.detail = {"subsets_checked": checked}
                return rep
    return IdentityReport("closed-form", True, None,
                          {"subsets_checked": checked, "sampled_eps": sampled})


def pair_reduction_residual(phi: CMType, model: UnitaryGaloisModel) -> ClassFunction:
    """Left side minus the pair/singleton/empty combination, closed path."""
    eps = phi.eps
    lhs = cm_class_function_closed(phi, model)
    rhs = ClassFunction.zero(model.classes)
    for pair in itertools.combinations(phi.indices, 2):
        rhs = rhs + cm_class_function_closed(CMType(pair, model.n), model)
    singles = ClassFunction.zero(model.classes)
    for i in phi.indices:
        singles = singles + cm_class_function_closed(CMType((i,), model.n), model)
    rhs = rhs - singles.scale(eps - 2)
    empty = cm_class_function_closed(CMType((), model.n), model)
    rhs = rhs + empty.scale(Fraction((eps - 1) * (eps - 2), 2))
    return lhs - rhs


def check_pair_reduction(model: UnitaryGaloisModel, phi: CMType) -> IdentityReport:
    residual = pair_reduction_residual(phi, model)
    zero = ClassFunction.zero(model.classes)
    return compare_class_functions(
        "pair-reduction", residual, zero,
        context={"subset": [i + 1 for i in phi.indices]})


def check_pair_reduction_suite(model: UnitaryGaloisModel,
                               eps_max: int | None = None,
                               seed: int = 0) -> IdentityReport:
    if eps_max is None:
        eps_max = model.n
    rng = random.Random(seed)
    checked = 0
    for eps in range(min(eps_max, model.n) + 1):
        subsets, _ = sample_subsets(model.n, eps, rng)
        for s in subsets:
            rep = check_pair_reduction(model, CMType(s, model.n))
            checked += 1
            if not rep.passed:
                rep.detail = {"subsets_checked": checked}
                return rep
    return IdentityReport("pair-reduction", True, None,
                          {"subsets_checked": checked})


def check_cm0_membership(f: ClassFunction):
    """Return the constant f(g) + f(rho g) if it exists, else a witness dict.

    The class functions attached to CM types must give exactly 1/2.
    """
    constant = f.values[0][0] + f.values[0][1]
    for c in range(f.classes.count):
        s = f.values[c][0] + f.values[c][1]
        if s != constant:
            return None, {"class_index": c, "sum": str(s),
                          "expected": str(constant)}
    return constant, None


def check_cm0_suite(model: UnitaryGaloisModel, eps_max: int | None = None,
                    seed: int = 0,
                    brute_cap: int = BRUTE_CAP) -> IdentityReport:
    """Every computed class function is rho-balanced at exactly 1/2 and is
    constant on classes under re-evaluation at random class members."""
    if eps_max is None:
        eps_max = model.n
    rng = random.Random(seed)
    checked = 0
    for eps in range(min(eps_max, model.n) + 1):
        subsets, _ = sample_subsets(model.n, eps, rng)
        for s in subsets:
            phi = CMType(s, model.n)
            fns = [cm_class_function_closed(phi, model)]
            if _brute_allowed(model, brute_cap):
                fns.append(cm_class_function_brute(phi, model, brute_cap))
            for f in fns:
                checked += 1
                constant, witness = check_cm0_membership(f)
                if witness is not None or constant != Fraction(1, 2):
                    w = witness or {"constant": str(constant), "expected": "1/2"}
                    w["subset"] = [i + 1 for i in s]
                    return IdentityReport("cm0-membership", False, w)
                for c, members in enumerate(model.classes.classes):
                    picks = members if len(members) <= MEMBERS_PER_CLASS else \
                        rng.sample(members, MEMBERS_PER_CLASS)
                    for g in picks:
                        for bit in (0, 1):
                            if evaluate(f, (g, bit)) != f.values[c][bit]:
                                return IdentityReport(
                                    "cm0-membership", False,
                                    {"class_index": c, "element": g, "bit": bit,
                                     "subset": [i + 1 for i in s]})
    return IdentityReport("cm0-membership", True, None,
                          {"functions_checked": checked})


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
