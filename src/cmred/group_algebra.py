"""Exact integer kernels on Gamma = G x Z/2.

A group-algebra element is an int64 array of shape (2, |G|): entry [b, g] is
the coefficient of (g, b), with g an element index of a FiniteGroup and b in
{0, 1}.  The bit generator rho = (identity, 1) is central and squares to the
identity, so the bit components convolve block-wise through the
multiplication table of G.  A class function is a plain (2, k) int64 array
of class sums, one column per class of G and one row per bit; its values
are the sums over the class sizes.  No floating point and no Fraction
anywhere; callers keep the coefficients small enough that
|G| max|a| max|b| fits in int64.

The brute path needs only the class sums of one product, the indicator e of
a CM type times its reflex: ``indicator_reflex_class_sums`` counts them on
the support of e (or of its complement) in min(|U|, |G| - |U|)^2 table
reads.  It reads the class of each product y u^-1 from the model's
class-of-product table (``UnitaryGaloisModel.product_class``), built once
per model, rather than looking up the product and then its class.  The
table is spanned from the class partition and G's generator products alone,
holds the bytes of ``class_of[mult_table]``, and is capped like the
multiplication table, so the count stays definitional: it never reads the
coset action or a closed-form quantity.  ``convolve``, ``reflex`` and
``class_project`` compute the whole product and its projection through the
multiplication table itself; they are the reference the count is tested
against.
"""

from __future__ import annotations

import numpy as np

from .galois_model import UnitaryGaloisModel
from .permgroup import TABLE_CAP, ConjugacyPartition, FiniteGroup

# |Gamma| = 2|G|: the count reads G's class-of-product table, which is
# capped with the multiplication table at TABLE_CAP
BRUTE_CAP = 2 * TABLE_CAP
CHUNK_ROWS = 64  # rows of the table gathered at once; bounds the temporaries


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


def indicator_reflex_class_sums(mask: np.ndarray,
                                model: UnitaryGaloisModel) -> np.ndarray:
    """Class sums, shape (2, k), of e * reflex(e) for the indicator e of a
    0/1 mask on G (bit 1 on the mask, bit 0 off it): the numerators of
    ``class_project(convolve(e, reflex(e, G), G), classes)``.

    The coefficient of (x, b) in e * reflex(e) counts the y in G for which
    mask(y) + mask(x^-1 y) = b mod 2.  With z = x^-1 y, the bit-1 sum over
    a class c counts the pairs (y, z) in G x G with y z^-1 in c and exactly
    one of y, z in the support U.  Each y has exactly |c| partners z with
    y z^-1 in c, and so has each z, so that is 2 |U| |c| - 2 Q[c], with
    Q[c] = #{(y, u) in U x U : y u^-1 in c}, read from the model's
    class-of-product table.
    The count is symmetric under swapping U with its complement, so Q is
    taken on the smaller of the two, CHUNK_ROWS rows of the table at a time.
    Every (x, y) carries exactly one bit, so bit 0 is |G| |c| minus bit 1.
    """
    G, classes = model.group, model.classes
    support = np.flatnonzero(mask)
    if 2 * len(support) > G.order:
        support = np.flatnonzero(np.asarray(mask) == 0)
    inverse = G.inverses[support]
    product_class, k = model.product_class, classes.count
    pairs = np.zeros(k, dtype=np.int64)
    for start in range(0, len(support), CHUNK_ROWS):
        y = support[start:start + CHUNK_ROWS]
        # row i, column j: the class of y_i u_j^-1
        rows = np.take(np.take(product_class, y, axis=0), inverse, axis=1)
        pairs += np.bincount(rows.ravel(), minlength=k)
    size = np.asarray(classes.sizes, dtype=np.int64)
    bit1 = 2 * (len(support) * size - pairs)
    return np.stack([G.order * size - bit1, bit1])


def class_project(a: np.ndarray, classes: ConjugacyPartition) -> np.ndarray:
    """Average of ``a`` over Gamma-conjugates, as the (2, k) int64 class
    sums: the value on a class is the mean of the coefficients over that
    class (rho is central, so conjugation never moves the bit), that is the
    class sum over the class size.  Idempotent, linear, and mass-preserving."""
    sums = np.zeros((2, classes.count), dtype=np.int64)
    for bit in (0, 1):
        np.add.at(sums[bit], classes.class_of, a[bit])
    return sums
