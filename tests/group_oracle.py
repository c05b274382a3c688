"""Reference group computations on a Python dict of row bytes.

These are the element-at-a-time versions of the group layer: a BFS closure
that looks every product up in a dict, left cosets and conjugacy classes
built one class at a time from full products, and the stabilizer generators
grown by a scalar closure.  They share no lookup, merge or label code with
``cmred.permgroup``, and they define the element order and the class and
coset numbering the vectorised versions must reproduce.
"""

import numpy as np

from perm_oracle import mul, perm


def bytes_index(G):
    """Element index of each row of ``G.images``, keyed by its bytes."""
    return {G.images[i].tobytes(): i for i in range(G.order)}


def dict_close(degree, gens, cap):
    """(images, generator indices) of the closure: BFS levels, new rows
    sorted by bytes within a level."""
    gen_list = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if t not in gen_list:
            gen_list.append(t)
    gen_rows = [np.array(g, dtype=np.uint8) for g in gen_list]
    ident = np.arange(degree, dtype=np.uint8)
    index = {ident.tobytes(): 0}
    rows = [ident]
    frontier = [0]
    while frontier:
        block = np.array([rows[i] for i in frontier], dtype=np.uint8)
        discovered = set()
        for grow in gen_rows:
            raw = grow[block].tobytes()
            for k in range(len(frontier)):
                key = raw[k * degree:(k + 1) * degree]
                if key not in index:
                    discovered.add(key)
        frontier = []
        for key in sorted(discovered):
            if len(rows) >= cap:
                raise OverflowError(f"closure exceeds {cap} elements")
            index[key] = len(rows)
            rows.append(np.frombuffer(key, dtype=np.uint8))
            frontier.append(index[key])
    return np.vstack(rows), [index[g.tobytes()] for g in gen_rows]


def dict_left_cosets(G, H_gens):
    """(sorted H indices, coset_of, reps, cosets): each coset is g o H for
    the smallest g not yet placed."""
    index = bytes_index(G)
    H = dict_close(G.degree, H_gens, cap=G.order + 1)[0]
    h_indices = sorted(index[H[i].tobytes()] for i in range(len(H)))
    h_block = G.images[h_indices]
    d = G.degree
    coset_of = np.full(G.order, -1, dtype=np.int32)
    reps, cosets = [], []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        raw = G.images[g][h_block].tobytes()  # rows: g o eta
        members = sorted(index[raw[k * d:(k + 1) * d]]
                         for k in range(len(h_indices)))
        coset_of[members] = len(reps)
        reps.append(g)
        cosets.append(members)
    return h_indices, coset_of, reps, cosets


def dict_conjugacy_classes(G):
    """(class_of, reps, classes): each class is every x o r o x^-1 for the
    smallest r not yet placed."""
    index = bytes_index(G)
    inv = np.argsort(G.images, axis=1).astype(np.uint8)
    class_of = np.full(G.order, -1, dtype=np.int32)
    reps, classes = [], []
    for r in range(G.order):
        if class_of[r] >= 0:
            continue
        conj = np.take_along_axis(G.images[:, G.images[r]], inv, axis=1)
        members = sorted({index[row.tobytes()] for row in conj})
        class_of[members] = len(reps)
        reps.append(r)
        classes.append(members)
    return class_of, reps, classes


def scalar_stabilizer_generators(G, point):
    """Stabilizer elements in element order, each kept when outside the
    closure of those kept so far (closed one product at a time)."""
    gens, closure = [], {0}
    target = int((G.images[:, point] == point).sum())
    for idx in np.flatnonzero(G.images[:, point] == point).tolist():
        if len(closure) == target:
            break
        if idx in closure:
            continue
        gens.append(idx)
        closure, frontier = {0}, [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(G, g, x)
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
    return [perm(G, i) for i in gens]
