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
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedGraph, PreconditionViolation
from .graphs import INF, WeightedGraph, dijkstra, quotient_adjacency
from .partition import carve

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
    if not math.isfinite(diam):
        raise PreconditionViolation(f"diameter {diam} overflows a float")
    level = 0
    while diam > 2.0**level:
        level += 1
    return level


# Relative margin by which an eccentricity bound must clear 2**L before it
# settles a vertex. Float Dijkstra sums are off by far less than this, so a
# settled vertex's computed eccentricity is within 2**L too.
BOUND_SLACK = 1e-9


def diameter_level(
    g: WeightedGraph,
    members: Sequence[int] | None = None,
    allowed: Sequence[bool] | None = None,
    *,
    floor: int = 0,
    first: int | None = None,
    dmin: float = 2.0,
) -> int:
    """Least L >= floor with every member's eccentricity at most 2**L.

    With the defaults this is `level_count_for_diameter(diameter(g))`.
    Eccentricities are taken over `members` inside the subgraph that
    `allowed` induces (over all of g when both are None), and are measured
    as 2 * ecc / dmin: the FRT tree passes its closest-pair distance, the
    default leaves them as they are. A run from v
    bounds every w by max(d(v,w), ecc(v) - d(v,w)) <= ecc(w) <= d(v,w) +
    ecc(v). A member is settled once its upper bound clears 2**L by
    BOUND_SLACK; every other member gets a run of its own. The second
    source is the member farthest from the first (the 2-sweep), and its
    row with the first one may certify every pair at once (see
    `_no_pair_exceeds`); after that, sources alternate between the largest
    upper and the smallest lower bound (Takes & Kosters, CIKM 2011).
    Raises DisconnectedGraph when some member cannot reach another.
    """
    ids = range(g.n) if members is None else members
    live = list(ids)
    if not live:
        raise PreconditionViolation("diameter_level needs at least one member")
    upper = [INF] * len(live)
    lower = [0.0] * len(live)
    level = floor
    source = live[0] if first is None else first
    first_row: list[float] = []
    runs = 0
    widest = False
    while True:
        dist = dijkstra(g, source, allowed=allowed)
        row = dist if members is None else [dist[w] for w in members]
        ecc = max(row)
        if ecc == INF:
            raise DisconnectedGraph("eccentricity undefined on a disconnected graph")
        if 2.0 * ecc / dmin > 2.0**level:
            level = level_count_for_diameter(2.0 * ecc / dmin)
        settled = 2.0**level / (1.0 + BOUND_SLACK) * dmin / 2.0
        kept, kept_upper, kept_lower = [], [], []
        for w, up, low in zip(live, upper, lower):
            d = dist[w]
            if d + ecc < up:
                up = d + ecc
            if up <= settled or w == source:
                continue
            kept.append(w)
            kept_upper.append(up)
            kept_lower.append(max(low, d, ecc - d))
        live, upper, lower = kept, kept_upper, kept_lower
        if not live:
            return level
        runs += 1
        if runs == 1:
            first_row = row
            source = min(w for w, d in zip(ids, row) if d == ecc)
            continue
        if runs == 2:
            # Exact sums decide what the full sweep decides; inexact ones
            # must clear the limit by BOUND_SLACK, as a settled bound does.
            limit = 2.0**level if g.exact_path_sums else 2.0**level / (1.0 + BOUND_SLACK)
            if _no_pair_exceeds(first_row, row, limit, dmin):
                return level
        if widest:
            source = live[upper.index(max(upper))]
        else:
            source = live[lower.index(min(lower))]
        widest = not widest


def _no_pair_exceeds(a: list[float], b: list[float], limit: float, dmin: float) -> bool:
    """True when no members w, x have both a_w + a_x and b_w + b_x over
    `limit`, each sum measured as 2 * sum / dmin.

    a and b are two sources' rows over the members, so d(w, x) is at most
    both sums and no pair is farther apart than the limit allows. Taking
    x in increasing a, the partners w whose a-sum is over the limit form a
    growing suffix of the same order, and the largest b in that suffix
    decides x. Pairs with w = x stay in; they only make the test stricter.
    """

    def over(total: float) -> bool:
        return 2.0 * total / dmin > limit

    order = sorted(range(len(a)), key=a.__getitem__)
    suffix_b = [-INF] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_b[i] = max(suffix_b[i + 1], b[order[i]])
    start = len(order)
    for x in order:
        while start > 0 and over(a[order[start - 1]] + a[x]):
            start -= 1
        if over(suffix_b[start] + b[x]):
            return False
    return True


def radius_schedule(top_level: int, n: int, delta: float) -> tuple[float, ...]:
    """r_i for i = 0..top_level-1 (index i holds the level-i parameter)."""
    lam = math.log(2.0 * top_level * n * n / delta) + 1.0
    return tuple(2.0 ** (i - 1) / lam for i in range(top_level))


def build_chain(
    g: WeightedGraph,
    delta: float,
    rng: random.Random,
    *,
    literal_level0: bool = False,
) -> ClusteringChain | ChainFailure:
    """Build a chain over a connected graph with all distances above 1.

    Carves levels top-down, each cluster in place on g; each cluster gets an
    independent child stream drawn from `rng` in (level, cluster index)
    order, so results do not depend on scheduling. With `literal_level0`
    the carving also runs at level 0 and any non-singleton part there is a
    failure.
    """
    if not 0 < delta < 1:
        raise PreconditionViolation("delta must lie in (0,1)")
    n = g.n
    if n == 0:
        raise DisconnectedGraph("cannot build a chain over the empty graph")
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
    # Raises DisconnectedGraph on its first run when g is disconnected.
    top = diameter_level(g)
    # The closest pair is always an edge, so this checks every distance.
    if g.min_edge_length() <= 1.0:
        raise PreconditionViolation("all pairwise distances must exceed 1")
    lam = math.log(2.0 * top * n * n / delta) + 1.0
    sigma = 480.0 * lam * lam
    r_sched = radius_schedule(top, n, delta)

    all_vertices = frozenset(range(n))
    levels: list[list[frozenset[int]]] = [[] for _ in range(top + 1)]
    centers: list[list[int]] = [[] for _ in range(top + 1)]
    parents: list[list[int]] = [[] for _ in range(top)]
    levels[top] = [all_vertices]
    centers[top] = [0]

    # A cluster's members are marked free, and carving unmarks them all.
    free = [False] * n
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
            for u in members:
                free[u] = True
            for center, part, _, _ in carve(g, members, free, r_sched[i], child_rng):
                levels[i].append(frozenset(part))
                centers[i].append(center)
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

    failure = _check_goodness(g, levels, centers, parents, top, sigma)
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


def _check_goodness(g, levels, centers, parents, top, sigma) -> ChainFailure | None:
    # Each carved cluster is a ball inside itself around its center, so the
    # center's run usually settles the whole cluster at once.
    allowed = [False] * g.n
    for i in range(1, top):
        for idx, cluster in enumerate(levels[i]):
            if len(cluster) == 1:
                continue
            members = sorted(cluster)
            for u in members:
                allowed[u] = True
            try:
                level = diameter_level(g, members, allowed, floor=i, first=centers[i][idx])
            except DisconnectedGraph:
                level = i + 1
            for u in members:
                allowed[u] = False
            if level > i:
                return ChainFailure(level=i, reason=DIAMETER_EXCEEDED, cluster_index=idx)
    # Every cluster is connected now, so a cluster split into k parts has a
    # connected quotient of hop-diameter at most k - 1.
    for i in range(top):
        part_counts = Counter(parents[i])
        nbrs = None
        for idx in range(len(levels[i + 1])):
            if part_counts[idx] - 1 <= sigma:
                continue
            if nbrs is None:
                child_of = [0] * g.n
                for j, cluster in enumerate(levels[i]):
                    for v in cluster:
                        child_of[v] = j
                nbrs = quotient_adjacency(g, child_of, len(levels[i]))
            if _child_quotient_hops(nbrs, parents[i], idx) > sigma:
                return ChainFailure(
                    level=i + 1, reason=QUOTIENT_DIAMETER_EXCEEDED, cluster_index=idx
                )
    return None


def _child_quotient_hops(nbrs: list[set[int]], parent: Sequence[int], idx: int) -> float:
    """Hop-diameter of cluster idx's quotient by its children, INF when it
    is disconnected.

    `nbrs` is the quotient adjacency of the whole level of children; a BFS
    from each child of idx steps only to other children of idx, which gives
    the quotient of the subgraph that idx induces.
    """
    children = [j for j, p in enumerate(parent) if p == idx]
    worst = 0
    for source in children:
        hops = {source: 0}
        frontier = [source]
        while frontier:
            step = []
            for a in frontier:
                for b in nbrs[a]:
                    if b not in hops and parent[b] == idx:
                        hops[b] = hops[a] + 1
                        step.append(b)
            frontier = step
        if len(hops) < len(children):
            return INF
        worst = max(worst, max(hops.values()))
    return worst
