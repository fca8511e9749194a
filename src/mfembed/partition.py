"""Single-level randomized ball carving.

Repeatedly picks the smallest free vertex under a fixed tie-break order,
samples a radius r*(1+X) with X ~ Exp(1), and carves the ball of that radius
inside the subgraph induced by the still-free vertices. Ball membership uses
distances inside the free-induced subgraph, not global distances; vertices at
exactly the sampled radius are included.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedGraph, InvariantViolation
from .graphs import WeightedGraph, dijkstra, is_connected


def sample_exponential(rng: random.Random) -> float:
    """Exp(1) sample via inverse CDF: -ln(U) with U uniform in (0, 1]."""
    return -math.log(1.0 - rng.random())


@dataclass(frozen=True)
class Clustering:
    """One carving round: clusters in creation order plus their radii.

    `cluster_of[v]` is the index of the cluster containing v. `radii[i]`
    equals `base_r * (1 + x_values[i])`.
    """

    base_r: float
    clusters: tuple[tuple[int, ...], ...]
    centers: tuple[int, ...]
    x_values: tuple[float, ...]
    radii: tuple[float, ...]
    cluster_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.clusters)


def single_level_partition(
    g: WeightedGraph,
    r: float,
    rng: random.Random,
    *,
    order: Sequence[int] | None = None,
) -> Clustering:
    """Partition a connected graph into clusters of radius about r.

    `order` is a permutation of the vertex ids listing them from smallest to
    largest under the tie-break order (default: ascending id).
    When r is at least the diameter the first ball, centred at the
    lowest-rank vertex, already covers the whole vertex set.
    """
    if r <= 0:
        raise InvariantViolation("radius parameter must be positive")
    if not is_connected(g):
        raise DisconnectedGraph("partition requires a connected graph")

    rank = list(range(g.n))
    if order is not None:
        if sorted(order) != list(range(g.n)):
            raise InvariantViolation("order must be a permutation of 0..n-1")
        for pos, v in enumerate(order):
            rank[v] = pos

    if g.n == 1:
        return Clustering(
            base_r=r,
            clusters=((0,),),
            centers=(0,),
            x_values=(0.0,),
            radii=(r,),
            cluster_of=(0,),
        )

    free = [True] * g.n
    remaining = g.n
    clusters: list[tuple[int, ...]] = []
    centers: list[int] = []
    xs: list[float] = []
    radii: list[float] = []
    cluster_of = [-1] * g.n
    # Vertices sorted by tie-break rank once; the scan pointer only advances.
    by_rank = sorted(range(g.n), key=lambda v: rank[v])
    cursor = 0
    while remaining:
        while not free[by_rank[cursor]]:
            cursor += 1
        v = by_rank[cursor]
        x = sample_exponential(rng)
        if x < 0:
            raise InvariantViolation("radius sample must be nonnegative")
        rv = r * (1.0 + x)
        dist = dijkstra(g, v, allowed=free, limit=rv)
        members = [u for u in range(g.n) if free[u] and dist[u] <= rv]
        idx = len(clusters)
        for u in members:
            free[u] = False
            cluster_of[u] = idx
        remaining -= len(members)
        clusters.append(tuple(members))
        centers.append(v)
        xs.append(x)
        radii.append(rv)
    return Clustering(
        base_r=r,
        clusters=tuple(clusters),
        centers=tuple(centers),
        x_values=tuple(xs),
        radii=tuple(radii),
        cluster_of=tuple(cluster_of),
    )


def check_partition_validity(g: WeightedGraph, clustering: Clustering) -> None:
    """Exact checks: clusters disjoint, cover V, each induces a connected subgraph."""
    seen: set[int] = set()
    for idx, members in enumerate(clustering.clusters):
        if not members:
            raise InvariantViolation(f"cluster {idx} is empty")
        for u in members:
            if u in seen:
                raise InvariantViolation(f"vertex {u} in two clusters")
            seen.add(u)
        allowed = [False] * g.n
        for u in members:
            allowed[u] = True
        dist = dijkstra(g, members[0], allowed=allowed)
        if any(dist[u] == math.inf for u in members):
            raise InvariantViolation(f"cluster {idx} is not connected")
    if len(seen) != g.n:
        raise InvariantViolation("clusters do not cover the vertex set")
