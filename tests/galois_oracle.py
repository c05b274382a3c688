"""The Galois action on CM types, one subset at a time, and the sampled
comparison it gives: the test against which ``cm_engine``'s proof of
``galois-invariance`` from the pair labels and table is checked.

Gamma = G x Z/2 acts on CM types (sorted tuples of coset indices): (g, 0)
pushes a subset through the coset action of g, and (g, 1) also complements
it (rho swaps the signature).
"""

import numpy as np

from cmred.cm_engine import closed_block
from cmred.permgroup import coset_action


def act(model, gammas, subsets) -> list[tuple]:
    """Galois action on a block of CM types: the i-th pair (g, bit) of
    ``gammas`` moves the i-th subset.  One ``coset_action`` call gives the
    rows of every g; each result is a sorted tuple."""
    rows = coset_action(model.group, model.cosets, [g for g, _ in gammas])
    moved = []
    for (_, bit), row, s in zip(gammas, rows, subsets):
        mask = np.zeros(model.n, dtype=bool)
        mask[row[list(s)]] = True
        # mask != 1 is the complement
        moved.append(tuple(np.flatnonzero(mask != bit).tolist()))
    return moved


def sampled_pairs(model, rng, pairs=50):
    """``pairs`` seeded (gamma, phi): gamma uniform in Gamma, phi a uniform
    subset of a size drawn uniformly from 0..n."""
    gammas, phis = [], []
    for _ in range(pairs):
        gammas.append((rng.randrange(model.group.order), rng.randrange(2)))
        eps = rng.randrange(model.n + 1)
        phis.append(tuple(sorted(rng.sample(range(model.n), eps))))
    return gammas, phis


def unequal_pairs(sweep, gammas, phis) -> list[int]:
    """Positions of the pairs (gamma, phi) whose gamma phi and phi have
    different closed functions, both built with the sweep's pair labels and
    table and permutation character in one block."""
    m = len(phis)
    block = closed_block(act(sweep.model, gammas, phis) + phis, sweep.model,
                         sweep.L, sweep.W, sweep.chi)
    return np.flatnonzero((block[:m] != block[m:]).any(axis=(1, 2))).tolist()
