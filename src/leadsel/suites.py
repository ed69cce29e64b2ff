"""Graph suites for identity verification.

``connected_graph_atlas(n)`` enumerates every connected simple graph on n
nodes, one canonical representative per isomorphism class. Enumeration
method: each graph is a bitmask over the C(n, 2) edge slots; the canonical
form of a mask is the minimum mask over all n! vertex relabelings, and a
graph is kept iff it is connected and equal to its own canonical form.
Class counts are 1, 1, 2, 6, 21, 112 for n = 1..6.

``random_connected_graphs`` draws a reproducible batch of connected
Erdos-Renyi graphs (optionally with random edge weights).
"""

import functools
import itertools

import numpy as np

from .graphs import DisconnectedGraphError, Graph, GraphError, _gnp_edges

_ATLAS_MAX_N = 6
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


@functools.lru_cache(maxsize=None)
def connected_graph_atlas(n: int) -> tuple:
    """All connected graphs on n nodes up to isomorphism (n <= 6)."""
    if not 1 <= n <= _ATLAS_MAX_N:
        raise ValueError(f"atlas supports 1 <= n <= {_ATLAS_MAX_N}, got {n}")
    if n == 1:
        return (Graph(1, ()),)
    slots = list(itertools.combinations(range(n), 2))
    n_slots = len(slots)
    slot_index = {e: i for i, e in enumerate(slots)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append([slot_index[tuple(sorted((perm[u], perm[v])))] for u, v in slots])
    masks = np.arange(1 << n_slots, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n_slots)) & 1).astype(np.int64)
    weights = (np.int64(1) << np.arange(n_slots, dtype=np.int64))
    canon = masks.copy()
    for pmap in perm_maps:
        np.minimum(canon, bits[:, pmap] @ weights, out=canon)
    out = []
    for mask in np.flatnonzero(canon == masks):
        edges = tuple(slots[i] for i in range(n_slots) if (int(mask) >> i) & 1)
        if len(edges) < n - 1:
            continue
        try:
            out.append(Graph(n, edges))
        except DisconnectedGraphError:
            continue
    out.sort(key=lambda g: (g.edge_count, g.edges))
    return tuple(out)


def random_connected_graphs(
    count: int, n_min: int, n_max: int, seed: int, weighted: bool = False
) -> list:
    """Reproducible batch of connected G(n, p) graphs, n uniform in [n_min, n_max]."""
    if n_min > n_max:
        raise GraphError(f"empty node-count range: n_min={n_min} > n_max={n_max}")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.25, 0.9))
        try:
            out.append(Graph(n, _gnp_edges(rng, n, p, weighted)))
        except DisconnectedGraphError:
            continue
    return out
