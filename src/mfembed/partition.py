"""Randomized ball carving, the one primitive behind every clustering chain.

`carve` walks a fixed tie-break order of the vertices a mask marks free.
Each vertex still free there becomes a center, samples a radius r*(1+X)
with X ~ Exp(1), and takes the ball of that radius inside the subgraph
induced by the still-free vertices. Ball membership uses distances inside
that subgraph, not global distances; vertices at exactly the sampled radius
are included. The free vertices may be a subset of a larger graph, so a
clustering chain carves each cluster in place.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .errors import InvariantViolation
from .graphs import INF, WeightedGraph, search


def sample_exponential(rng: random.Random) -> float:
    """Exp(1) sample via inverse CDF: -ln(U) with U uniform in (0, 1]."""
    return -math.log(1.0 - rng.random())


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

    A center whose free neighbours all lie beyond its radius is its ball
    alone, with no search: a search's first sums are 0.0 + w == w, so it
    would lower no entry either. The searches' distance row is allocated at
    the first ball that needs one, so a carving of singletons allocates none.
    """
    balls = []
    dist: list[float] = []
    adj = g.adjacency
    for v in order:
        if not free[v]:
            continue
        x = sample_exponential(rng)
        if x < 0:
            raise InvariantViolation("radius sample must be nonnegative")
        rv = r * (1.0 + x)
        for u, w in adj[v]:
            if w <= rv and free[u]:
                if not dist:
                    dist = [INF] * g.n
                members = sorted(search(g, v, dist, free, rv))
                for x in members:
                    free[x] = False
                    dist[x] = INF
                break
        else:
            members = [v]
            free[v] = False
        balls.append((v, members, rv))
    return balls
