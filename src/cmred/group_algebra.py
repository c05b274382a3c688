"""Exact integer convolution kernel on Gamma = G x Z/2.

A group-algebra element is an int64 array of shape (2, |G|): entry [b, g] is
the coefficient of (g, b), with g an element index of a FiniteGroup and b in
{0, 1}.  The bit generator rho = (identity, 1) is central and squares to the
identity, so the bit components convolve block-wise through the
multiplication table of G.  Class values come out as exact Fractions built
only for the k x 2 (class, bit) pairs.  No floating point anywhere; callers
keep the coefficients small enough that |G| max|a| max|b| fits in int64 (the
brute path convolves 0/1 indicators).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .permgroup import TABLE_CAP, ConjugacyPartition, FiniteGroup

BRUTE_CAP = 2 * TABLE_CAP  # |Gamma| = 2|G|: the kernel needs G's mult_table
CHUNK_ROWS = 64  # rows of the table gathered at once; bounds the temporaries

GammaElement = tuple  # (element index, bit)


def reflex(a: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """Coefficient of x becomes the coefficient of x^-1; an involution."""
    return a[:, G.inverses]


def convolve(a: np.ndarray, b: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """(a * b)(x) = sum_y a(y) b(y^-1 x), bits adding mod 2.

    Only the nonzero coefficients of ``a`` are visited, CHUNK_ROWS table rows
    at a time, so temporaries stay at O(CHUNK_ROWS |G|).
    """
    table, inv = G.mult_table, G.inverses
    out = np.zeros((2, G.order), dtype=np.int64)
    for i in (0, 1):
        ys = np.flatnonzero(a[i])
        for start in range(0, len(ys), CHUNK_ROWS):
            y = ys[start:start + CHUNK_ROWS]
            left = table[inv[y]]  # row k: y_k^-1 x for every x
            for j in (0, 1):
                out[i ^ j] += a[i, y] @ b[j][left]
    return out


class ClassFunction:
    """Exact rational function constant on the conjugacy classes of Gamma.

    Classes of Gamma are (class of G) x {0, 1} since rho is central; values
    are stored per (class index, bit), zeros included.
    """

    __slots__ = ("classes", "values")

    def __init__(self, classes: ConjugacyPartition, values):
        self.classes = classes
        self.values = [[Fraction(values[c][b]) for b in (0, 1)]
                       for c in range(classes.count)]

    @classmethod
    def zero(cls, classes) -> "ClassFunction":
        return cls(classes, [[0, 0]] * classes.count)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction)
                and self.classes is other.classes
                and self.values == other.values)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.classes,
                             [[a[0] + b[0], a[1] + b[1]]
                              for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + other.scale(-1)

    def scale(self, c) -> "ClassFunction":
        c = Fraction(c)
        return ClassFunction(self.classes,
                             [[v[0] * c, v[1] * c] for v in self.values])

    def is_zero(self) -> bool:
        return all(v[0] == 0 and v[1] == 0 for v in self.values)

    def __repr__(self):
        return f"ClassFunction({self.classes.count} classes x 2 bits)"


def class_project(a: np.ndarray, classes: ConjugacyPartition) -> ClassFunction:
    """Average of ``a`` over Gamma-conjugates: the value on a class is the
    mean of the coefficients over that class (rho is central, so conjugation
    never moves the bit).  Idempotent, linear, and mass-preserving."""
    sums = np.zeros((2, classes.count), dtype=np.int64)
    for bit in (0, 1):
        np.add.at(sums[bit], classes.class_of, a[bit])
    return ClassFunction(classes, [[Fraction(int(sums[b, c]), size)
                                    for b in (0, 1)]
                                   for c, size in enumerate(classes.sizes)])


def evaluate(f: ClassFunction, x: GammaElement) -> Fraction:
    """Exact value of a class function at a Gamma element."""
    return f.values[f.classes.class_of[x[0]]][x[1]]
