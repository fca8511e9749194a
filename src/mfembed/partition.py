"""Single-level randomized ball carving.

Repeatedly picks the smallest free vertex under a fixed tie-break order,
samples a radius r*(1+X) with X ~ Exp(1), and carves the ball of that radius
inside the subgraph induced by the still-free vertices. Ball membership uses
distances inside the free-induced subgraph, not global distances; vertices at
exactly the sampled radius are included. `carve` runs the same loop over a
vertex subset of a larger graph, marked by a mask, so a clustering chain
carves each cluster in place.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedGraph, InvariantViolation
from .graphs import INF, WeightedGraph, is_connected, settle


def sample_exponential(rng: random.Random) -> float:
    """Exp(1) sample via inverse CDF: -ln(U) with U uniform in (0, 1]."""
    return -math.log(1.0 - rng.random())


@dataclass(frozen=True)
class Clustering:
    """One carving round: clusters in creation order plus their radii.

    `radii[i]` equals `base_r * (1 + X)` for the Exp(1) draw X of cluster i.
    """

    base_r: float
    clusters: tuple[tuple[int, ...], ...]
    centers: tuple[int, ...]
    radii: tuple[float, ...]

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
    if not r > 0:
        raise InvariantViolation("radius parameter must be positive")
    if not is_connected(g):
        raise DisconnectedGraph("partition requires a connected graph")
    if order is None:
        order = range(g.n)
    elif sorted(order) != list(range(g.n)):
        raise InvariantViolation("order must be a permutation of 0..n-1")

    balls = carve(g, order, [True] * g.n, r, rng)
    return Clustering(
        base_r=r,
        clusters=tuple(tuple(members) for _, members, _ in balls),
        centers=tuple(center for center, _, _ in balls),
        radii=tuple(rv for _, _, rv in balls),
    )


def carve(
    g: WeightedGraph,
    order: Sequence[int],
    free: list[bool],
    r: float,
    rng: random.Random,
) -> list[tuple[int, list[int], float]]:
    """Carve the vertices of `order` that `free` marks, in g itself.

    Walks `order` once: each vertex still free there becomes a center with
    radius r*(1+x), and its ball inside the subgraph induced by the free
    vertices is unmarked in `free`. `free` may mark no vertex outside
    `order`. Returns (center, sorted members, radius) per ball, in creation
    order.
    """
    balls = []
    dist = [INF] * g.n
    for v in order:
        if not free[v]:
            continue
        x = sample_exponential(rng)
        if x < 0:
            raise InvariantViolation("radius sample must be nonnegative")
        rv = r * (1.0 + x)
        members = sorted(settle(g.adjacency, v, dist, free, rv))
        for u in members:
            free[u] = False
            dist[u] = INF
        balls.append((v, members, rv))
    return balls
