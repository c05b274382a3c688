"""The pair tensor of the closed form, straight from its definition.

P[i, j, c] = #{eta in H : sigma_i eta sigma_j^-1 in class c} for i != j, and
0 on the diagonal.  Every product sigma_i o eta o sigma_j^-1 is formed as an
image row and looked up in the group, so this construction never reads the
coset action that ``cmred.cm_engine.pair_tensor`` tallies.
"""

import numpy as np

from perm_oracle import lookup


def pair_tensor_by_lookup(model):
    G = model.group
    n, k = model.n, model.classes.count
    reps = np.asarray(model.cosets.reps, dtype=np.int64)
    h_rows = G.images[np.asarray(model.cosets.subgroup_elements, dtype=np.int64)]
    inv_reps = np.argsort(G.images[reps], axis=1)  # image rows of sigma_j^-1
    P = np.zeros((n, n, k), dtype=np.int64)
    for i in range(n):
        # [eta, j]: sigma_i o eta o sigma_j^-1, one lookup per i
        block = G.images[reps[i]][h_rows[:, inv_reps]].reshape(-1, G.degree)
        index = lookup(G, block)
        assert (index >= 0).all()
        cls = model.classes.class_of[index].reshape(-1, n).astype(np.int64)
        P[i] = np.bincount((np.arange(n) * k + cls).ravel(),
                           minlength=n * k).reshape(n, k)
        P[i, i] = 0
    return P
