"""Multi-level clustering chains.

A chain stacks partitions of one connected graph from singletons (level 0)
up to the whole vertex set (level L). Level i is produced by carving every
level-(i+1) cluster independently with radius parameter

    r_i = 2**(i-1) / (ln(2*L*n^2/delta) + 1).

A returned chain always satisfies the goodness conditions (induced cluster
diameter at most 2**i, quotient hop-diameter between consecutive levels at
most sigma); any violation is reported as a `ChainFailure` instead. Across
seeds, failures occur with frequency at most delta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedGraph, EdgeNotInGraph, PreconditionViolation
from .graphs import (
    WeightedGraph,
    diameter,
    dijkstra,
    induced_subgraph,
    is_connected,
    quotient,
)
from .partition import single_level_partition

DIAMETER_EXCEEDED = "DiameterExceeded"
QUOTIENT_DIAMETER_EXCEEDED = "QuotientDiameterExceeded"
NON_SINGLETON_LEVEL0 = "NonSingletonLevel0"


@dataclass(frozen=True)
class ChainFailure:
    """A goodness condition failed while building the chain."""

    level: int
    reason: str
    cluster_index: int


@dataclass(frozen=True)
class ClusteringChain:
    """Refinement-ordered partitions of one graph, levels 0..L.

    `levels[i]` lists the clusters of level i as frozensets; `centers[i][j]`
    is the carving center of cluster j (the vertex itself at level 0).
    `vertex_to_cluster[i][v]` locates v's cluster, `parents[i][j]` the index
    of the enclosing cluster one level up.
    """

    graph: WeightedGraph
    top_level: int
    delta: float
    sigma: float
    r_schedule: tuple[float, ...]
    levels: tuple[tuple[frozenset[int], ...], ...]
    centers: tuple[tuple[int, ...], ...]
    vertex_to_cluster: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, ...], ...]

    def cluster(self, level: int, index: int) -> frozenset[int]:
        return self.levels[level][index]


def level_count_for_diameter(diam: float) -> int:
    """Least L with diam <= 2**L (so 2**(L-1) < diam <= 2**L for diam > 1)."""
    level = 0
    while diam > 2.0**level:
        level += 1
    return level


def radius_schedule(top_level: int, n: int, delta: float) -> tuple[float, ...]:
    """r_i for i = 0..top_level-1 (index i holds the level-i parameter)."""
    lam = math.log(2.0 * top_level * n * n / delta) + 1.0
    return tuple(2.0 ** (i - 1) / lam for i in range(top_level))


def build_chain(
    g: WeightedGraph,
    delta: float,
    rng: random.Random,
    *,
    order: Sequence[int] | None = None,
    literal_level0: bool = False,
) -> ClusteringChain | ChainFailure:
    """Build a chain over a connected graph with all distances above 1.

    Carves levels top-down; each cluster gets an independent child stream
    drawn from `rng` in (level, cluster index) order, so results do not
    depend on scheduling. With `literal_level0` the carving also runs at
    level 0 and any non-singleton part there is a failure.
    """
    if not 0 < delta < 1:
        raise PreconditionViolation("delta must lie in (0,1)")
    n = g.n
    if n == 0:
        raise DisconnectedGraph("cannot build a chain over the empty graph")
    if not is_connected(g):
        raise DisconnectedGraph("chain requires a connected graph")
    if n == 1:
        return ClusteringChain(
            graph=g,
            top_level=0,
            delta=delta,
            sigma=0.0,
            r_schedule=(),
            levels=((frozenset({0}),),),
            centers=((0,),),
            vertex_to_cluster=((0,),),
            parents=(),
        )
    # The closest pair is always an edge, so this checks every distance.
    if g.min_edge_length() <= 1.0:
        raise PreconditionViolation("all pairwise distances must exceed 1")
    top = level_count_for_diameter(diameter(g))
    lam = math.log(2.0 * top * n * n / delta) + 1.0
    sigma = 480.0 * lam * lam
    r_sched = radius_schedule(top, n, delta)

    all_vertices = frozenset(range(n))
    levels: list[list[frozenset[int]]] = [[] for _ in range(top + 1)]
    centers: list[list[int]] = [[] for _ in range(top + 1)]
    parents: list[list[int]] = [[] for _ in range(top)]
    levels[top] = [all_vertices]
    centers[top] = [0]

    lowest_carved = 0 if literal_level0 else 1
    for i in range(top - 1, lowest_carved - 1, -1):
        for parent_idx, cluster in enumerate(levels[i + 1]):
            members = sorted(cluster)
            if len(members) == 1:
                levels[i].append(cluster)
                centers[i].append(members[0])
                parents[i].append(parent_idx)
                continue
            child_rng = random.Random(rng.getrandbits(64))
            sub, verts = induced_subgraph(g, members)
            sub_order = None
            if order is not None:
                pos = {v: p for p, v in enumerate(order)}
                sub_order = [verts.index(v) for v in sorted(verts, key=pos.get)]
            clustering = single_level_partition(sub, r_sched[i], child_rng, order=sub_order)
            for part, center in zip(clustering.clusters, clustering.centers):
                levels[i].append(frozenset(verts[p] for p in part))
                centers[i].append(verts[center])
                parents[i].append(parent_idx)

    if literal_level0:
        for idx, part in enumerate(levels[0]):
            if len(part) > 1:
                return ChainFailure(level=0, reason=NON_SINGLETON_LEVEL0, cluster_index=idx)
    else:
        # Distances exceed 1, so the only partition with parts of diameter
        # at most 1 is the discrete one; build it directly.
        index_at_1 = {}
        for j, cluster in enumerate(levels[1]):
            for v in cluster:
                index_at_1[v] = j
        levels[0] = [frozenset({v}) for v in range(n)]
        centers[0] = list(range(n))
        parents[0] = [index_at_1[v] for v in range(n)]

    failure = _check_goodness(g, levels, top, sigma)
    if failure is not None:
        return failure

    vtc = []
    for i in range(top + 1):
        row = [-1] * n
        for j, cluster in enumerate(levels[i]):
            for v in cluster:
                row[v] = j
        vtc.append(tuple(row))
    return ClusteringChain(
        graph=g,
        top_level=top,
        delta=delta,
        sigma=sigma,
        r_schedule=r_sched,
        levels=tuple(tuple(level) for level in levels),
        centers=tuple(tuple(c) for c in centers),
        vertex_to_cluster=tuple(vtc),
        parents=tuple(tuple(p) for p in parents),
    )


def _induced_diameter(g: WeightedGraph, members: Sequence[int]) -> float:
    allowed = [False] * g.n
    for u in members:
        allowed[u] = True
    worst = 0.0
    for u in members:
        dist = dijkstra(g, u, allowed=allowed)
        worst = max(worst, max(dist[w] for w in members))
    return worst


def _check_goodness(g, levels, top, sigma) -> ChainFailure | None:
    for i in range(1, top):
        bound = 2.0**i
        for idx, cluster in enumerate(levels[i]):
            if len(cluster) > 1 and _induced_diameter(g, sorted(cluster)) > bound:
                return ChainFailure(level=i, reason=DIAMETER_EXCEEDED, cluster_index=idx)
    for i in range(top):
        child_index = {}
        for j, cluster in enumerate(levels[i]):
            for v in cluster:
                child_index[v] = j
        for idx, cluster in enumerate(levels[i + 1]):
            members = sorted(cluster)
            if len(members) == 1:
                continue
            sub, verts = induced_subgraph(g, members)
            groups: dict[int, list[int]] = {}
            for local, v in enumerate(verts):
                groups.setdefault(child_index[v], []).append(local)
            parts = [groups[k] for k in sorted(groups)]
            if len(parts) == 1:
                continue
            if quotient(sub, parts).hop_diameter() > sigma:
                return ChainFailure(
                    level=i + 1, reason=QUOTIENT_DIAMETER_EXCEEDED, cluster_index=idx
                )
    return None


def edge_level(chain: ClusteringChain, u: int, v: int) -> int:
    """Largest level whose partition separates the edge's endpoints.

    The top level never separates anything, and distinct vertices are always
    separated at level 0, so the result lies in 0..L-1.
    """
    if not chain.graph.has_edge(u, v):
        raise EdgeNotInGraph(f"({u},{v}) is not an edge")
    for i in range(chain.top_level - 1, 0, -1):
        if chain.vertex_to_cluster[i][u] != chain.vertex_to_cluster[i][v]:
            return i
    return 0


def level_cut_counts(chain: ClusteringChain, path: Sequence[int]) -> list[int]:
    """Histogram of `edge_level` over the path's consecutive pairs."""
    counts = [0] * max(chain.top_level, 1)
    vtc = chain.vertex_to_cluster
    for u, v in zip(path, path[1:]):
        level = 0
        for i in range(chain.top_level - 1, 0, -1):
            if vtc[i][u] != vtc[i][v]:
                level = i
                break
        counts[level] += 1
    return counts
