"""Test-side reads of class functions, each a (2, k) block of int64
numerators over (k,) denominators (or one denominator for every class):
the Fraction values per class, the value at one Gamma element, and a
re-read of sampled class members through the class table."""

from fractions import Fraction

import numpy as np

MEMBERS_PER_CLASS = 10  # a class is re-read at up to this many members


def class_values(numerators, den, classes):
    """[[bit-0 value, bit-1 value] per class] as Fractions."""
    den = np.broadcast_to(den, (classes.count,))
    return [[Fraction(int(numerators[b, c]), int(d)) for b in (0, 1)]
            for c, d in enumerate(den)]


def evaluate(numerators, den, classes, x):
    """Exact value of a class function at a Gamma element (g, bit)."""
    return class_values(numerators, den, classes)[classes.class_of[x[0]]][x[1]]


def reread_members(numerators, den, classes, rng):
    """First (class, element, bit) whose value read through the class table
    differs from the class value, over up to MEMBERS_PER_CLASS random
    members per class, or None."""
    values = class_values(numerators, den, classes)
    for c, members in enumerate(classes.classes):
        picks = members if len(members) <= MEMBERS_PER_CLASS else \
            rng.sample(list(members), MEMBERS_PER_CLASS)
        for g in picks:
            for bit in (0, 1):
                if values[classes.class_of[g]][bit] != values[c][bit]:
                    return c, g, bit
    return None
