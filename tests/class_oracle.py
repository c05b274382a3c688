"""Test-side reads of class functions, each a (2, k) block of int64
numerators over (k,) denominators (or one denominator for every class):
the Fraction values per class, the value at one Gamma element, and the
member list of each class."""

from fractions import Fraction

import numpy as np


def class_values(numerators, den, classes):
    """[[bit-0 value, bit-1 value] per class] as Fractions."""
    den = np.broadcast_to(den, (classes.count,))
    return [[Fraction(int(numerators[b, c]), int(d)) for b in (0, 1)]
            for c, d in enumerate(den)]


def evaluate(numerators, den, classes, x):
    """Exact value of a class function at a Gamma element (g, bit)."""
    return class_values(numerators, den, classes)[classes.class_of[x[0]]][x[1]]


def class_members(classes) -> list[np.ndarray]:
    """Sorted int32 element-index array per class of a ``ConjugacyPartition``:
    a stable argsort of ``class_of``, split by the class sizes."""
    # a stable sort of at most 16-bit keys is a radix sort
    keys = classes.class_of.astype(np.min_scalar_type(classes.count - 1))
    members = np.argsort(keys, kind="stable").astype(np.int32)
    return np.split(members, np.cumsum(classes.sizes)[:-1])

