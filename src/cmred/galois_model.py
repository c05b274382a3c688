"""The unitary group model: (G, H, cosets, Gamma = G x Z/2, rho) plus CM types.

CM types are stored as subsets of the coset indices {0..n-1}; the bit
generator rho acts as complementation at the subset level, the bit-0 part of
Gamma acts through the coset action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .permgroup import (
    SUBSET_CAP,
    FiniteGroup,
    check_subset_cap,
    conjugacy_classes,
    coset_action,
    left_cosets,
)


class UnitaryGaloisModel:
    """Immutable bundle of the group data every computation path shares."""

    def __init__(self, G: FiniteGroup, H_gens):
        self.group = G
        self.cosets = left_cosets(G, H_gens)
        self.classes = conjugacy_classes(G)
        # action rows of G.orbit_generators, a short generating set of G
        # (enough to generate orbits); the identity row when G is trivial
        self.generator_action_rows = coset_action(
            G, self.cosets, G.orbit_generators or [0])
        self.n = self.cosets.n
        self.h = self.cosets.h
        self.gamma_order = 2 * G.order

    def __repr__(self):
        return (f"UnitaryGaloisModel(|G|={self.group.order}, "
                f"n={self.n}, h={self.h})")


@dataclass(frozen=True)
class CMType:
    """A CM type of signature (n - eps, eps), parametrized by a subset of
    the coset indices."""

    indices: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))
        if self.indices and not (0 <= self.indices[0] and self.indices[-1] < self.n):
            raise ValueError(f"subset {self.indices} out of range for n={self.n}")

    @property
    def eps(self) -> int:
        return len(self.indices)

    def complement(self) -> "CMType":
        members = set(self.indices)
        return CMType(tuple(i for i in range(self.n) if i not in members), self.n)

    def __contains__(self, i) -> bool:
        return i in set(self.indices)


def signature(phi: CMType, model: UnitaryGaloisModel) -> tuple[int, int]:
    return (model.n - phi.eps, phi.eps)


def act(x, phi: CMType, model: UnitaryGaloisModel) -> CMType:
    """Galois action on CM types: (g, 0) pushes the subset through the coset
    action; (g, 1) additionally complements (rho swaps the signature)."""
    g, bit = x
    row = coset_action(model.group, model.cosets, [g])[0]
    moved = CMType(tuple(int(row[i]) for i in phi.indices), model.n)
    return moved.complement() if bit else moved


def enumerate_cm_types(model: UnitaryGaloisModel, eps: int,
                       cap: int = SUBSET_CAP) -> list[CMType]:
    """All CM types of signature (n - eps, eps) in lexicographic order."""
    n = model.n
    check_subset_cap(n, eps, cap)
    return [CMType(s, n) for s in itertools.combinations(range(n), eps)]
