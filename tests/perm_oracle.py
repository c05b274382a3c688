"""Permutations as image tuples, element-at-a-time reads of a group, the
model of a zoo spec, and the list of zoo specs.

The tuple algebra (identity, composition, inverse) shares no code with
``cmred.permgroup``, which works on blocks of uint8 image rows.  The reads
look one element up through ``FiniteGroup.index_rows``, ``mult_table`` and
``inverses``: the tests compare them with the tuple algebra and use them to
build literal oracles one product at a time.
"""

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


def index_of(G, p):
    """Element index of an image tuple; KeyError if not in the group."""
    row = np.asarray(p)
    if row.shape == (G.degree,):
        i = int(G.index_rows(row[None])[0])
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
    return int(G.index_rows(G.images[a][G.images[b]][None])[0])


def inv(G, a):
    return int(G.inverses[a])


def build_zoo_model(spec):
    return UnitaryGaloisModel(*build(spec))


def zoo_specs():
    """Every spec the zoo accepts, in listing order."""
    return [f"{family}:{param}" for family, params in _PARAMS.items()
            for param in params]
