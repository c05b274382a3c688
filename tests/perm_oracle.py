"""Permutations as image tuples, element-at-a-time reads of a group, the
model of a zoo spec, and the list of zoo specs.

The tuple algebra (identity, composition, inverse) shares no code with
``cmred.permgroup``, which works on blocks of uint8 image rows.  ``lookup``
finds rows among ``G.images`` by a key of their own, with no use of the
group's chain or ranks; ``mult_table`` and ``inverses`` are read as they
are: the tests compare them with the tuple algebra and use them to build
literal oracles one product at a time.
"""

import weakref

import numpy as np

from cmred.galois_model import UnitaryGaloisModel
from cmred.group_zoo import _PARAMS, build


def identity_perm(degree):
    return tuple(range(degree))


def compose(p, q):
    """p after q: (p o q)[i] = p[q[i]]."""
    return tuple(p[j] for j in q)


def inverse_perm(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm(G, i):
    """Image tuple of element i."""
    return tuple(int(x) for x in G.images[i])


# odd weights of a row key, sum_j row[j] w_j mod 2^64, one per point
_WEIGHTS = np.random.default_rng(0).integers(
    2 ** 64, size=255, dtype=np.uint64) | np.uint64(1)
_SORTED = weakref.WeakKeyDictionary()  # group -> (sorted keys, elements)


def _keys(rows):
    key = np.zeros(len(rows), dtype=np.uint64)
    for column, weight in zip(rows.T, _WEIGHTS):
        key += column * weight
    return key


def lookup(G, rows):
    """Element index of each row of an (m, degree) uint8 block, -1 for a row
    outside G: the row's key is found among the sorted keys of G's elements,
    which are distinct, by binary search, and the element found is compared
    with the row in full."""
    if G not in _SORTED:
        keys = _keys(G.images)
        order = np.argsort(keys)
        assert (np.diff(keys[order]) > 0).all()  # distinct keys
        _SORTED[G] = keys[order], order
    keys, order = _SORTED[G]
    rows = np.asarray(rows, dtype=np.uint8).reshape(-1, G.degree)
    at = order[np.searchsorted(keys, _keys(rows)).clip(max=G.order - 1)]
    return np.where((G.images[at] == rows).all(axis=1), at, -1)


def index_of(G, p):
    """Element index of an image tuple; KeyError if not in the group."""
    row = np.asarray(p)
    if row.shape == (G.degree,) and ((0 <= row) & (row <= 255)).all():
        i = int(lookup(G, row[None])[0])
        if i >= 0:
            return i
    raise KeyError(p)


def contains(G, p):
    try:
        index_of(G, p)
    except (KeyError, TypeError, ValueError):
        return False
    return True


def mul(G, a, b):
    """Index of a o b: from the multiplication table when G has one, else
    by looking the composed row up."""
    t = G.mult_table
    if t is not None:
        return int(t[a, b])
    return int(lookup(G, G.images[a][G.images[b]][None])[0])


def inv(G, a):
    return int(G.inverses[a])


def build_zoo_model(spec):
    return UnitaryGaloisModel(*build(spec))


def zoo_specs():
    """Every spec the zoo accepts, in listing order."""
    return [f"{family}:{param}" for family, params in _PARAMS.items()
            for param in params]
