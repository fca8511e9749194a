"""Multi-level clustering chains.

A chain stacks partitions of one connected graph from singletons (level 0)
up to the whole vertex set (level L). Level i, for L > i >= 1, is produced
by carving every level-(i+1) cluster independently with radius parameter

    r_i = 2**(i-1) / lambda,  lambda = ln(2*L*n^2/delta) + 1.

Level 0 is not carved. Goodness bounds a level-0 cluster's diameter by
2**0 = 1, and the chain's graph has every distance above 1, so the discrete
partition is the only good level 0. Carving it could only add a failure,
which needs the exponential draw X above 2*lambda - 1.

The clusters of all levels form a laminar family, stored as one cluster
tree: each distinct vertex set is one node with its level range, the center
and radius of its carving, and its members as a slice of one vertex order,
which carving rewrites in place.

A returned chain always satisfies the goodness conditions (induced cluster
diameter at most 2**i, quotient hop-diameter between consecutive levels at
most sigma); any violation is reported as a `ChainFailure` instead. A
cluster whose carving radius r has 2r within 2**i needs no distance run to
pass. Across seeds, failures occur with frequency at most delta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat

from .errors import DisconnectedGraph, LevelOverflow, PreconditionViolation
from .graphs import INF, WeightedGraph, dijkstra, induced_subgraphs, quotient_adjacency
from .partition import carve

DIAMETER_EXCEEDED = "DiameterExceeded"
QUOTIENT_DIAMETER_EXCEEDED = "QuotientDiameterExceeded"


@dataclass(frozen=True)
class ChainFailure:
    """A goodness condition failed while building the chain."""

    level: int
    reason: str
    cluster_index: int


@dataclass(frozen=True)
class ClusteringChain:
    """Refinement-ordered partitions of one graph, levels 0..L, as one tree.

    The chain's clusters form a laminar family, and its tree is the
    decomposition tree of Fakcharoenphol, Rao & Talwar (JCSS 2004). Each
    distinct vertex set is one node, however many levels it spans; node 0
    is V, and a node's id is smaller than its children's. Node k holds:

    - `order[start[k]:stop[k]]`, its members: the sets of a laminar family
      are intervals of a DFS order of its tree. The children's slices tile
      their parent's in creation order, and the first child holds the
      parent's smallest vertex, so each slice starts with that vertex;
    - `children[k]`, in creation order;
    - `lo[k]..hi[k]`, the levels at which it is a cluster;
    - `center[k]`, the center of the level-hi carving (the vertex itself
      for a singleton, 0 for the root);
    - `radius[k]`, a bound on every member's distance from the center
      inside the cluster: the ball radius of the level-lo carving, 0.0 for
      a singleton, INF for a root that no carving reached.

    The clusters of level i are the nodes with lo <= i <= hi; ordered by
    `start` they are the level's partition in carving order.
    """

    graph: WeightedGraph
    top_level: int
    order: tuple[int, ...]
    start: tuple[int, ...]
    stop: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    center: tuple[int, ...]
    radius: tuple[float, ...]

    def size(self, node: int) -> int:
        return self.stop[node] - self.start[node]

    @property
    def flat(self) -> bool:
        """The root over n singleton leaves, node v + 1 holding vertex v
        (`build_chain`): every vertex set is one node and each singleton is
        one, so n + 1 nodes leave no other."""
        return len(self.start) == self.graph.n + 1

    def level_index(self, level: int, node: int) -> int:
        """Position of `node` among the clusters of `level`."""
        lo, hi, start = self.lo, self.hi, self.start
        first = start[node]
        return sum(1 for k in range(len(lo)) if lo[k] <= level <= hi[k] and start[k] < first)


def level_count_for_diameter(diam: float, dmin: float = 2.0) -> int:
    """Least L >= 0 with 2 * diam / dmin <= 2**L; with the default dmin,
    diam <= 2**L (so 2**(L-1) < diam <= 2**L for diam > 1).

    L is read off the float exponents of diam and dmin, so it is exact and
    no quotient overflows. An L above 1023 is refused, with diam in the
    caller's units and the L it would need: 2.0**1024 overflows a float.
    """
    if not math.isfinite(diam):
        raise PreconditionViolation(f"diameter {diam} overflows a float")
    if diam == 0.0:
        return 0
    # diam = a * 2**p and dmin = b * 2**q with a, b in [1/2, 1), so that
    # 2 * diam / dmin = (a / b) * 2**(p - q + 1) with a / b in (1/2, 2).
    a, p = math.frexp(diam)
    b, q = math.frexp(dmin)
    level = max(0, p - q + 1 + (a > b))
    if level > 1023:
        raise LevelOverflow(diam, level)
    return level


# Relative margin by which an eccentricity bound must clear 2**L before it
# settles a vertex. Float Dijkstra sums are off by far less than this, so a
# settled vertex's computed eccentricity is within 2**L too.
BOUND_SLACK = 1e-9


def diameter_level(g: WeightedGraph, *, dmin: float = 2.0) -> int:
    """Least L >= 0 with every vertex's eccentricity at most 2**L, which is
    `level_count_for_diameter(diameter(g), dmin)`.

    Eccentricities are measured as 2 * ecc / dmin: the FRT tree passes its
    closest-pair distance, the default leaves them as they are. The first
    source is vertex 0. A run from v
    bounds every w by max(d(v,w), ecc(v) - d(v,w)) <= ecc(w) <= d(v,w) +
    ecc(v). A vertex is settled once its upper bound clears 2**L by
    BOUND_SLACK; every other vertex gets a run of its own. The second
    source is the vertex farthest from the first (the 2-sweep), and its
    row with the first one may certify every pair at once (see
    `_no_pair_exceeds`); after that, each source is the live vertex with
    the smallest lower bound, one of the two rules that Takes & Kosters
    (CIKM 2011) alternate.

    On a tree (n - 1 edges, connected) the vertex farthest from any vertex
    ends a longest path (Handler, Transportation Science 1973), so the
    second run's eccentricity is the diameter: exactly with exact sums, and
    within far less than BOUND_SLACK otherwise. The call returns right
    after that run, before its bounds, when the sums are exact or the
    eccentricity clears 2**L by BOUND_SLACK; otherwise it goes on as above,
    so it never makes more runs than the bound loop alone. A tree whose
    vertex 0 has degree 1 and whose vertices all have degree 2 or less is a
    path that ends at vertex 0, so the first run's eccentricity is already
    the diameter, and the same rule ends the call after that run.
    Raises DisconnectedGraph when some vertex cannot reach another.
    """
    if g.n == 0:
        raise PreconditionViolation("diameter_level needs at least one vertex")
    live = list(range(g.n))
    upper = [INF] * g.n
    lower = [0.0] * g.n
    level = 0
    source = 0
    first_row: list[float] = []
    runs = 0
    tree = g.m == g.n - 1
    path_from_0 = tree and len(g.adjacency[0]) == 1 and max(map(len, g.adjacency)) <= 2
    while True:
        row = dijkstra(g, source)
        ecc = max(row)
        if ecc == INF:
            raise DisconnectedGraph("eccentricity undefined on a disconnected graph")
        level = max(level, level_count_for_diameter(ecc, dmin))
        settled = 2.0**level / (1.0 + BOUND_SLACK) * dmin / 2.0
        if (runs == 1 and tree or runs == 0 and path_from_0) and (
            g.exact_path_sums or ecc <= settled
        ):
            # On a tree the second run's eccentricity is the diameter, and on
            # a path that ends at vertex 0 the first run's.
            return level
        kept, kept_upper, kept_lower = [], [], []
        for w, up, low in zip(live, upper, lower):
            d = row[w]
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
            source = row.index(ecc)
            continue
        if runs == 2:
            # Exact sums decide what the full sweep decides; inexact ones
            # must clear the limit by BOUND_SLACK, as a settled bound does.
            limit = 2.0**level if g.exact_path_sums else 2.0**level / (1.0 + BOUND_SLACK)
            if _no_pair_exceeds(first_row, row, limit, dmin):
                return level
        source = live[lower.index(min(lower))]


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


def chain_constants(levels: int, n: int, delta: float) -> tuple[float, float]:
    """lambda = ln(2*L*n^2/delta) + 1 and sigma = 480*lambda^2 for L levels
    over n vertices: the carving radius divisor and the quotient hop bound."""
    lam = math.log(2.0 * levels * n * n / delta) + 1.0
    return lam, 480.0 * lam * lam


def build_chain(
    g: WeightedGraph,
    delta: float,
    rng: random.Random,
    top: int | None = None,
) -> ClusteringChain | ChainFailure:
    """Build a chain over a connected graph with all distances above 1.

    Carves levels top-down, each cluster in place on g. Every carving radius
    is drawn from `rng` itself, in (level, cluster index, center) order, so
    results do not depend on scheduling. Level 0 is the discrete partition,
    built directly.

    A chain is flat when the root's carving at level top - 1 leaves every
    vertex a singleton, or when top <= 1 leaves no level to carve: its tree
    is the root over n singleton leaves, node v + 1 holding vertex v, and
    no later level draws. With n - 1 <= sigma a flat chain passes every
    goodness condition, so it is returned as built, without a check.
    Otherwise the levels below go on from the root's balls, with the same
    draws. `top`, when given, is `diameter_level(g)`, measured by the caller.
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
            order=(0,),
            start=(0,),
            stop=(1,),
            children=((),),
            lo=(0,),
            hi=(0,),
            center=(0,),
            radius=(0.0,),
        )
    if top is None:
        # Raises DisconnectedGraph on its first run when g is disconnected.
        top = diameter_level(g)
    # The closest pair is always an edge, so this checks every distance.
    if g.min_edge_length() <= 1.0:
        raise PreconditionViolation("all pairwise distances must exceed 1")
    lam, sigma = chain_constants(top, n, delta)
    root_balls = carve(g, range(n), [True] * n, 2.0 ** (top - 2) / lam, rng) if top > 1 else []
    if len(root_balls) in (0, n) and n - 1 <= sigma:
        return _flat_chain(g, top)

    order = list(range(n))
    start, stop, children = [0], [n], [[]]
    lo, hi, center, radius = [top], [top], [0], [INF]

    def place(k: int, level: int, balls: list, below: list[int]) -> None:
        """Record the balls that carving node k at `level` gave, and list in
        `below` the clusters the next level carves: k itself when one ball
        holds it all, else its balls of two or more members."""
        if len(balls) == 1:
            lo[k] = level
            radius[k] = balls[0][2]
            below.append(k)
            return
        first = start[k]
        for c, members, rv in balls:
            order[first : first + len(members)] = members
            children[k].append(len(start))
            if len(members) > 1:
                below.append(len(start))
            start.append(first)
            first += len(members)
            stop.append(first)
            children.append([])
            # a singleton stays a cluster down to level 0
            lo.append(level if len(members) > 1 else 0)
            hi.append(level)
            center.append(c)
            radius.append(rv if len(members) > 1 else 0.0)

    # The non-singleton clusters of level i + 1, in level order. Their
    # slices are still the sorted lists that carving returned.
    active = [0]
    if root_balls:
        active = []
        place(0, top - 1, root_balls, active)
    # A cluster's members are marked free, and carving unmarks them all.
    free = [False] * n
    for i in range(top - 2, 0, -1):
        below: list[int] = []
        for k in active:
            members = order[start[k] : stop[k]]
            for u in members:
                free[u] = True
            place(k, i, carve(g, members, free, 2.0 ** (i - 1) / lam, rng), below)
        active = below

    # Level 0 is the discrete partition: the only good one (module docstring).
    for k in active:
        place(k, 0, [(v, [v], 0.0) for v in order[start[k] : stop[k]]], [])
    chain = ClusteringChain(
        graph=g,
        top_level=top,
        order=tuple(order),
        start=tuple(start),
        stop=tuple(stop),
        children=tuple(map(tuple, children)),
        lo=tuple(lo),
        hi=tuple(hi),
        center=tuple(center),
        radius=tuple(radius),
    )
    failure = _check_goodness(chain, sigma)
    return chain if failure is None else failure


def _flat_chain(g: WeightedGraph, top: int) -> ClusteringChain:
    """The flat chain of `build_chain`: the root over n singletons, each a
    cluster from level 0 to max(top - 1, 0)."""
    n = g.n
    leaves = range(n)
    return ClusteringChain(
        graph=g,
        top_level=top,
        order=tuple(leaves),
        start=(0, *leaves),
        stop=(n, *range(1, n + 1)),
        children=(tuple(range(1, n + 1)), *repeat((), n)),
        lo=(top, *repeat(0, n)),
        hi=(top, *repeat(max(top - 1, 0), n)),
        center=(0, *leaves),
        radius=(INF, *repeat(0.0, n)),
    )


def _check_goodness(chain: ClusteringChain, sigma: float) -> ChainFailure | None:
    """The first goodness condition that fails, in (level, cluster index)
    order with every diameter checked before any quotient, or None.

    A cluster spanning levels lo..hi is checked at lo, where its bound is
    the tightest; passing there, it passes at every level above. Its
    members lie within `radius` of its center inside the cluster: every
    vertex on a shortest path from the center to a member is a member too,
    as float sums grow along a path, so a run from the center confined to
    the cluster finds the carving's own distances. Hence 2 * radius bounds
    every eccentricity bound that `diameter_level` would form on that run,
    and when it clears 2**lo by BOUND_SLACK the cluster passes with no run.

    Any other cluster fails when `diameter_level` exceeds lo on the subgraph
    it induces, built by `induced_subgraphs` from the sorted members, so
    local vertex 0 is the smallest member: the carving's center, where the
    runs start. A disconnected cluster fails.
    """
    g = chain.graph
    top = chain.top_level
    lo, start, stop, order = chain.lo, chain.start, chain.stop, chain.order
    uncertified = [
        k
        for k in range(len(lo))
        if 0 < lo[k] < top
        and stop[k] - start[k] > 1
        and not 2.0 * chain.radius[k] <= 2.0 ** lo[k] / (1.0 + BOUND_SLACK)
    ]
    uncertified.sort(key=lambda k: (lo[k], start[k]))
    for k in uncertified:
        sub = induced_subgraphs(g, [sorted(order[start[k] : stop[k]])])[0]
        try:
            level = diameter_level(sub)
        except DisconnectedGraph:
            level = lo[k] + 1
        if level > lo[k]:
            return ChainFailure(
                level=lo[k], reason=DIAMETER_EXCEEDED, cluster_index=chain.level_index(lo[k], k)
            )
    # Every cluster is connected now, so a cluster split into k parts has a
    # connected quotient of hop-diameter at most k - 1 <= n - 1.
    if g.n - 1 <= sigma:
        return None
    split = sorted(
        (k for k in range(len(lo)) if len(chain.children[k]) - 1 > sigma),
        key=lambda k: (lo[k], start[k]),
    )
    for k in split:
        if _child_quotient_hops(chain, k) > sigma:
            return ChainFailure(
                level=lo[k],
                reason=QUOTIENT_DIAMETER_EXCEEDED,
                cluster_index=chain.level_index(lo[k], k),
            )
    return None


def _child_quotient_hops(chain: ClusteringChain, node: int) -> float:
    """Hop-diameter of the quotient of the subgraph that `node` induces by
    its children, INF when it is disconnected.

    The quotient is taken over all of g with every vertex outside the node
    in one extra part, which the BFS never enters.
    """
    children = chain.children[node]
    count = len(children)
    part_of = [count] * chain.graph.n
    for j, child in enumerate(children):
        for v in chain.order[chain.start[child] : chain.stop[child]]:
            part_of[v] = j
    nbrs = quotient_adjacency(chain.graph, part_of, count + 1)
    worst = 0
    for source in range(count):
        hops = {source: 0}
        frontier = [source]
        while frontier:
            step = []
            for a in frontier:
                for b in nbrs[a]:
                    if b not in hops and b < count:
                        hops[b] = hops[a] + 1
                        step.append(b)
            frontier = step
        if len(hops) < count:
            return INF
        worst = max(worst, max(hops.values()))
    return worst
