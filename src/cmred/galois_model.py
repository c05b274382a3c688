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
    TABLE_CAP,
    FiniteGroup,
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
        """Class-of-product table: entry [a, b] is the class of a o b, in
        the smallest dtype that holds k - 1 (uint8 up to 256 classes); None
        above TABLE_CAP.

        The rows are filled over ``FiniteGroup.span`` from the identity's
        row, ``class_of``, without the multiplication table.  A class is
        closed under conjugation, so class(x o y) = class(y o x) (Isaacs,
        Character Theory of Finite Groups, ch. 2), and for a child g o e of
        a spanned e, class(g o e o b) = class(e o (b o g)): row g o e is row
        e read through the right map R_g: b -> b o g.  The table holds the
        same bytes as ``class_of[mult_table]``, so the brute count that
        reads it stays definitional; the closed form never reads it."""
        G = self.group
        if G.order > TABLE_CAP:
            return None
        class_of = self.classes.class_of.astype(
            np.min_scalar_type(self.classes.count - 1))
        table = np.empty((G.order, G.order), dtype=class_of.dtype)
        table[0] = class_of
        right = G.generator_maps(right=True)
        for slot, parent, child in G.span(G.generator_maps(right=False)):
            table[child] = table[parent].take(right[slot], axis=1)
        return table

    def __repr__(self):
        return (f"UnitaryGaloisModel(|G|={self.group.order}, "
                f"n={self.n}, h={self.h})")
