"""The unitary group model: (G, H, cosets, Gamma = G x Z/2, rho).

A CM type of signature (n - eps, eps) is a sorted tuple of eps coset indices
in {0..n-1}, everywhere in cmred.  The bit-0 part of Gamma acts through the
coset action, whose rows on a generating set of G the model holds; the bit
generator rho acts as complementation.
"""

from __future__ import annotations

import functools

import numpy as np

from .permgroup import (
    FiniteGroup,
    _take,
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

    @functools.cached_property
    def product_class(self) -> np.ndarray | None:
        """Class-of-product table: entry [a, b] is the class of a o b,
        ``class_of[mult_table]`` in the smallest dtype that holds k - 1
        (uint8 up to 256 classes); None above TABLE_CAP."""
        table = self.group.mult_table
        if table is None:
            return None
        class_of = self.classes.class_of.astype(
            np.min_scalar_type(self.classes.count - 1))
        return _take(class_of, table)

    def __repr__(self):
        return (f"UnitaryGaloisModel(|G|={self.group.order}, "
                f"n={self.n}, h={self.h})")
