"""Random hierarchically separated tree embedding, used as baseline/fallback.

Classic construction: one global random vertex permutation plus a radius
scale beta = 2**U with U uniform in [0, 1). Working with distances rescaled
so the closest pair is at distance 2, clusters at level i are carved with
radius beta * 2**(i-1); by level 0 everything is a singleton. Tree edges
from a level-j node to its level-(j+1) parent have length 2**j * dmin in
the original scale, which makes the tree distance of any pair at least
their graph distance.

A vertex's center at a radius is the first vertex of the permutation within
that radius. It is read off the vertex's least-element (LE) list: every u
that is strictly closer to v than all vertices before u in the permutation,
with its distance (Cohen, JCSS 1997; Blelloch, Gu & Sun, ICALP 2017). One
Dijkstra run per vertex, taken in permutation order, builds all lists; a
run expands only the vertices it reaches strictly closer than any earlier
run did. The lists hold O(log n) entries each in expectation, so the tree
takes O(n log n + m) expected memory and no distance matrix.
"""

from __future__ import annotations

import math
import random

from .errors import DisconnectedGraph, PreconditionViolation
from .graphs import INF, WeightedGraph, is_connected, search
from .hierarchy import diameter_level
from .hosts import EmbeddingMeta, HostEmbedding


def frt_embed(g: WeightedGraph, seed: int, *, top: int | None = None) -> HostEmbedding:
    """Embed into a random 2-HST; host is a tree, leaves carry the vertices.
    `top`, when given, is `top_level(g, dmin)`, which no seed changes; its
    caller has measured it on g and so vouches that g is connected. Only
    without it does g get a connectivity walk."""
    if g.n == 0:
        raise DisconnectedGraph("cannot embed the empty graph")
    if g.n == 1:
        return HostEmbedding(
            host=WeightedGraph(1, ()),
            eta=[0],
            forest=[None],
            meta=EmbeddingMeta(n=1, seed=seed, mode="frt", params=None, fallback_used=False),
        )
    if top is None and not is_connected(g):
        raise DisconnectedGraph("FRT embedding requires a connected graph")
    n = g.n
    # With positive lengths the closest pair is an edge (see `normalize`).
    dmin = g.min_edge_length()
    if top is None:
        top = top_level(g, dmin)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    beta = 2.0 ** rng.random()
    rank = [0] * n
    for i, u in enumerate(perm):
        rank[u] = i
    # Distances rescaled to 2*d/dmin, so the closest pair sits at 2 and the
    # level-0 radius beta/2 < 1 forces singletons at the latest there.
    le_lists = _least_element_lists(g, perm, dmin)
    # Radii only shrink, so each vertex's first entry within the radius
    # moves down its list.
    at = [0] * n

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
                entries = le_lists[v]
                i = at[v]
                while entries[i][1] > radius:
                    i += 1
                at[v] = i
                groups.setdefault(entries[i][0], []).append(v)
            for center in sorted(groups, key=rank.__getitem__):
                child = groups[center]
                if len(child) == 1:
                    leaf = child[0]
                    parent[leaf] = node
                    edges.append((leaf, node, edge_len))
                else:
                    cid = next_id
                    next_id += 1
                    parent.append(node)
                    edges.append((node, cid, edge_len))
                    refined.append((cid, child))
        active = refined
    host = WeightedGraph._derived(next_id, tuple(edges))
    return HostEmbedding(
        host=host,
        eta=list(range(n)),
        forest=parent,
        meta=EmbeddingMeta(n=n, seed=seed, mode="frt", params=None, fallback_used=False),
    )


def top_level(g: WeightedGraph, dmin: float) -> int:
    """The tree's top level on a connected graph of at least two vertices
    whose closest pair is `dmin` apart: the least top with 2 * diam / dmin
    <= 2**top, at least 1 as diam >= dmin. Refused when a distance or a
    tree distance overflows a float."""
    # The graph is connected, so a vertex that a Dijkstra run leaves at INF
    # has a distance whose float sum overflowed.
    try:
        top = diameter_level(g, dmin=dmin)
    except DisconnectedGraph as exc:
        raise PreconditionViolation("a shortest-path distance overflows a float") from exc
    # Two leaves that part at the top are 2 * (2**top - 1) * dmin apart.
    if not math.isfinite(2.0 * (2.0**top - 1.0) * dmin):
        raise PreconditionViolation(
            f"a tree distance of 2 * (2**{top} - 1) * {dmin} overflows a float"
        )
    return top


def _least_element_lists(
    g: WeightedGraph, perm: list[int], dmin: float
) -> list[list[tuple[int, float]]]:
    """Each vertex's LE list as (u, 2*d(u,v)/dmin), in `perm` order.

    The runs `search` one array that is never reset, so the run from u is
    pruned at every vertex that an earlier run reached at least as close.
    If an earlier run w reached some x on a shortest u-v path at least as
    close as u does, then d(w,v) <= d(u,v), in float sums too since
    rounding is monotone, and v gets no entry from u. So every entry equals
    the full Dijkstra distance from u. Every list ends with (v, 0.0).
    """
    best = [INF] * g.n
    lists: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for u in perm:
        for x in search(g, u, best):
            lists[x].append((u, 2.0 * best[x] / dmin))
    return lists
