"""Random hierarchically separated tree embedding, used as baseline/fallback.

Classic construction: one global random vertex permutation plus a radius
scale beta = 2**U with U uniform in [0, 1). Working with distances rescaled
so the closest pair is at distance 2, clusters at level i are carved with
radius beta * 2**(i-1); by level 0 everything is a singleton. Tree edges
from a level-j node to its level-(j+1) parent have length 2**j * dmin in
the original scale, which makes the tree distance of any pair at least
their graph distance.
"""

from __future__ import annotations

import math
import random

from .errors import DisconnectedGraph
from .graphs import WeightedGraph, all_pairs
from .hosts import EmbeddingMeta, HostEmbedding


def frt_embed(g: WeightedGraph, seed: int) -> HostEmbedding:
    """Embed into a random 2-HST; host is a tree, leaves carry the vertices."""
    if g.n == 0:
        raise DisconnectedGraph("cannot embed the empty graph")
    if g.n == 1:
        return HostEmbedding(
            host=WeightedGraph(1, ()),
            eta=[0],
            forest=[None],
            meta=EmbeddingMeta(n=1, seed=seed, mode="frt", params=None, fallback_used=False),
        )
    dm = all_pairs(g)
    if any(math.isinf(x) for row in dm for x in row):
        raise DisconnectedGraph("FRT embedding requires a connected graph")
    n = g.n
    dmin = min(dm[u][v] for u in range(n) for v in range(u + 1, n))
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    beta = 2.0 ** rng.random()

    # Rescale in place to 2*d/dmin, so the closest pair sits at 2 and the
    # level-0 radius beta/2 < 1 forces singletons at the latest there.
    for u, row in enumerate(dm):
        dm[u] = [2.0 * x / dmin for x in row]
    diam_s = max(max(row) for row in dm)
    top = 1
    while diam_s > 2.0**top:
        top += 1

    parent: list[int | None] = [None] * n
    edges: list[tuple[int, int, float]] = []
    root = n
    parent.append(None)
    next_id = n + 1
    active = [(root, list(range(n)))]
    for level in range(top - 1, -1, -1):
        if not active:
            break
        radius = beta * 2.0 ** (level - 1)
        edge_len = 2.0**level * dmin
        refined = []
        for node, members in active:
            groups: dict[int, list[int]] = {}
            for v in members:
                for u in perm:
                    if dm[u][v] <= radius:
                        groups.setdefault(u, []).append(v)
                        break
            for center in perm:
                if center not in groups:
                    continue
                child = groups[center]
                if len(child) == 1:
                    leaf = child[0]
                    parent[leaf] = node
                    edges.append((node, leaf, edge_len))
                else:
                    cid = next_id
                    next_id += 1
                    parent.append(node)
                    edges.append((node, cid, edge_len))
                    refined.append((cid, child))
        active = refined
    host = WeightedGraph(next_id, tuple(edges))
    return HostEmbedding(
        host=host,
        eta=list(range(n)),
        forest=parent,
        meta=EmbeddingMeta(n=n, seed=seed, mode="frt", params=None, fallback_used=False),
    )
