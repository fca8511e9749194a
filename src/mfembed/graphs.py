"""Weighted-graph core: representation, shortest paths, metric utilities.

A `WeightedGraph` is immutable after construction and safe to share across
threads. All distances are exact single-source Dijkstra results; there is no
approximation anywhere in this module. `settle` is the one heap kernel, for
ordered, limited or masked searches on adjacency lists. `search` runs such a
search on a graph and picks its walk from the graph: breadth-first, with no
heap, when every edge has one length, to the heap's distances bit for bit,
and `settle` otherwise. `dijkstra` is one `search` on a fresh array, and
`search_to` the same walk stopped once given targets are final.

Validation happens once, where a graph enters. The public constructor
`WeightedGraph(n, edges)` checks and canonicalizes every edge; graph files,
generated instances, stored embeddings and library callers come in through
it. A graph that the library derives from one already checked (the rescaled
and the closed input, each fragment and cluster subgraph, the embedder's
and the FRT tree's host) is built by `WeightedGraph._derived`, which stores
its edges as given. `tests/oracles.check_derived_graph` rebuilds each of
those through the public constructor and requires the same edges.

`induced_subgraphs` builds each child complete in its one pass over the
parent's edges: the child's adjacency lists, and the parent's length facts
that must hold in the child (its one length, its exact path sums).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from heapq import heappop, heappush
from operator import add
from typing import Sequence

from .errors import InvariantViolation, NoEdges, PreconditionViolation

INF = math.inf

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive edge lengths and dense ids 0..n-1.

    Each unordered pair appears once, stored with u < v. Hosts produced by
    the embedder may carry zero-length edges; pass ``allow_zero=True`` for
    those, input graphs must keep strictly positive lengths.
    """

    n: int
    edges: tuple[Edge, ...]
    allow_zero: InitVar[bool] = False

    def __post_init__(self, allow_zero: bool):
        n = self.n
        if n < 0:
            raise InvariantViolation("vertex count must be nonnegative")
        # An edge that is already canonical, (int u, int v, float length)
        # with u < v, is kept as given, and each pair is seen as the one int
        # u * n + v: `gen` holds these beside the whole edge list.
        canon = []
        seen = set()
        for edge in self.edges:
            u, v, w = edge
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvariantViolation(f"self-loop at vertex {u}")
            if w < 0 or (w == 0 and not allow_zero) or not math.isfinite(w):
                raise InvariantViolation(f"edge ({u},{v}) length {w} must be positive and finite")
            if u > v or not (type(edge) is tuple and type(u) is type(v) is int and type(w) is float):
                if not (isinstance(u, int) and isinstance(v, int)):
                    raise InvariantViolation(f"edge ({u},{v}) endpoints must be integers")
                if u > v:
                    u, v = v, u
                edge = (u, v, float(w))
            key = u * n + v
            if key in seen:
                raise InvariantViolation(f"duplicate edge ({u},{v})")
            seen.add(key)
            canon.append(edge)
        object.__setattr__(self, "edges", tuple(canon))

    @classmethod
    def _derived(cls, n: int, edges: tuple[Edge, ...], **known) -> WeightedGraph:
        """A graph built from one that is already checked, without checks:
        each pair once as (u, v, float length) with 0 <= u < v < n, and a
        length that is positive and finite (zero only on a host). `known`
        seeds cached properties (`adjacency`, `common_length`,
        `exact_path_sums`) with the values they would compute."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        g.__dict__.update(known)
        return g

    @cached_property
    def adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        # a plain left fold, as `sum` adds floats before CPython 3.12
        return reduce(add, (w for _, _, w in self.edges), 0.0)

    @cached_property
    def exact_path_sums(self) -> bool:
        """True when every length is an integer and the total is below 2**53.

        Then every path length is an exact float, so Dijkstra distances are
        exact, and a float sum of two of them never rounds below a distance
        it bounds.
        """
        return all(w.is_integer() for _, _, w in self.edges) and self.total_length() < 2.0**53

    @cached_property
    def common_length(self) -> float | None:
        """The one length every edge has, or None when lengths differ or
        there is no edge."""
        if not self.edges:
            return None
        first = self.edges[0][2]
        return first if all(w == first for _, _, w in self.edges) else None

    def min_edge_length(self) -> float:
        if not self.edges:
            raise NoEdges("graph has no edges")
        return min(w for _, _, w in self.edges)


def settle(
    adj: Sequence[Sequence[tuple[int, float]]],
    src: int,
    dist: list[float],
    allowed: Sequence[bool] | None = None,
    limit: float = INF,
) -> list[int]:
    """Dijkstra from `src` on a distance array the caller owns; returns the
    vertices it settled, nearest first. A vertex is reached only by a sum
    strictly below its entry: INF marks where the search may go, and an
    entry already at or below is neither settled nor expanded. `allowed`
    confines the search to where it is True, `limit` to sums at most the
    limit. Every lowered entry is settled, so resetting the returned
    vertices to INF restores the array.
    """
    dist[src] = 0.0
    heap = [(0.0, src)]
    settled = []
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        settled.append(u)
        for v, w in adj[u]:
            if allowed is not None and not allowed[v]:
                continue
            nd = d + w
            if nd < dist[v] and nd <= limit:
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled


def search(
    g: WeightedGraph,
    src: int,
    dist: list[float],
    allowed: Sequence[bool] | None = None,
    limit: float = INF,
) -> list[int]:
    """`settle` on g, with its contract: a vertex is reached only by a sum
    strictly below its entry, `allowed` and `limit` confine the search, and
    every lowered entry is returned, nearest first.

    When every edge has one length w, a breadth-first walk gives a vertex
    k hops away the k-fold sum 0.0 + w + ... + w, the bits that `settle`
    would give: every k-edge path folds to that float, and no fold falls
    as k grows. So the first sum that reaches a vertex is the least any
    path gives it, a vertex that sum does not lower is never lowered, and
    the returned vertices come in the order of their sums. Vertices at one
    distance may come in another order than the heap's. A sum that
    overflows to INF lowers nothing, as in `settle`. Every other graph
    gets one `settle` run.
    """
    w = g.common_length
    if w is None:
        return settle(g.adjacency, src, dist, allowed, limit)
    adj = g.adjacency
    dist[src] = 0.0
    order = [src]
    for u in order:
        d = dist[u] + w
        if d > limit:
            break
        for v, _ in adj[u]:
            if d < dist[v] and (allowed is None or allowed[v]):
                dist[v] = d
                order.append(v)
    return order


def search_to(g: WeightedGraph, src: int, dist: list[float], targets: Sequence[int]) -> list[int]:
    """`search` from `src` on an array of INF, stopped once every target's
    entry is final: at its first sum in the breadth-first walk, or once the
    heap pops a sum at or above it, since no later sum is smaller. Each
    target's entry is then `dijkstra(g, src)`'s bit for bit, INF when no
    path reaches it. Returns the vertices settled, nearest first: those the
    heap popped, or each vertex the breadth-first walk reached."""
    adj = g.adjacency
    w = g.common_length
    dist[src] = 0.0
    i, k = 0, len(targets)
    if w is not None:
        order = [src]
        for u in order:
            while i < k and dist[targets[i]] < INF:
                i += 1
            if i == k:
                break
            d = dist[u] + w
            for v, _ in adj[u]:
                if d < dist[v]:
                    dist[v] = d
                    order.append(v)
        return order
    heap = [(0.0, src)]
    settled = []
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        settled.append(u)
        while i < k and dist[targets[i]] <= d:
            i += 1
        if i == k:
            break
        for v, l in adj[u]:
            nd = d + l
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return settled


def dijkstra(g: WeightedGraph, src: int) -> list[float]:
    """Exact single-source shortest-path distances; INF when unreachable.
    One `search` on a fresh array."""
    if not 0 <= src < g.n:
        raise InvariantViolation(f"source {src} out of range")
    dist = [INF] * g.n
    search(g, src, dist)
    return dist


def is_connected(g: WeightedGraph) -> bool:
    # Fewer than n - 1 edges cannot connect n vertices; answering before any
    # per-vertex list keeps a short file with a huge header cheap.
    return g.m >= g.n - 1 and len(connected_components(g)) <= 1


def connected_components(
    g: WeightedGraph, allowed: Sequence[bool] | None = None
) -> list[list[int]]:
    """Components of the subgraph that `allowed` induces (all of g when
    None) as sorted vertex lists, ordered by smallest vertex.

    One stack walk per component labels its vertices; a vertex that
    `allowed` leaves out starts labelled -2 and is never entered. One pass
    over the ids then lists every component in increasing order.
    """
    label = [-1] * g.n if allowed is None else [-1 if a else -2 for a in allowed]
    adj = g.adjacency
    count = 0
    for s in range(g.n):
        if label[s] != -1:
            continue
        label[s] = count
        stack = [s]
        while stack:
            for v, _ in adj[stack.pop()]:
                if label[v] == -1:
                    label[v] = count
                    stack.append(v)
        count += 1
    comps: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(label):
        if c >= 0:
            comps[c].append(v)
    return comps


def hat_ell(g: WeightedGraph) -> int:
    """Least integer so that total edge length / min edge length < 2**result."""
    if not g.edges:
        raise NoEdges("hat_ell needs at least one edge")
    ratio = g.total_length() / g.min_edge_length()
    if not math.isfinite(ratio):
        raise PreconditionViolation("total edge length overflows a float")
    # ratio >= 1, and frexp gives 2**(e-1) <= ratio < 2**e
    return math.frexp(ratio)[1]


def normalize(g: WeightedGraph) -> tuple[WeightedGraph, float]:
    """Rescale so every pairwise distance exceeds one.

    Fixed rule: multiply all lengths by 2/min-distance when the minimum
    distance is <= 1, otherwise leave the graph untouched (scale 1). The
    scale is returned so host distances can be mapped back. With positive
    lengths the closest pair is always an edge (a path's sum is never below
    its largest edge, in floats too), so the minimum edge length is the
    minimum distance.

    The rule reads only the minimum edge, so connectivity is not checked:
    on a disconnected graph the scale is the largest that its components
    would get on their own (1 for a graph without edges), and every
    component is rescaled by it.
    """
    if not g.edges:
        return g, 1.0
    dmin = g.min_edge_length()
    if dmin > 1.0:
        return g, 1.0
    scale = 2.0 / dmin
    if not math.isfinite(scale * max(w for _, _, w in g.edges)):
        raise PreconditionViolation(f"rescaling lengths by 2/{dmin} overflows a float")
    scaled = WeightedGraph._derived(g.n, tuple((u, v, w * scale) for u, v, w in g.edges))
    return scaled, scale


def metric_closure_weights(g: WeightedGraph) -> WeightedGraph:
    """Replace each edge length by the distance between its endpoints.

    Edge (u, v) takes its distance from one `search` out of u, cut off
    at u's longest edge to a higher id: every such neighbour lies within
    that limit, so the distances are exact and memory stays O(n + m). Each
    distance lies inside the edge's own component, so connectivity is not
    checked: a disconnected graph gets each component's closure.
    """
    by_source: list[list[tuple[int, int, float]]] = [[] for _ in range(g.n)]
    for i, (u, v, w) in enumerate(g.edges):
        by_source[u].append((i, v, w))
    lengths = [0.0] * g.m
    dist = [INF] * g.n
    for u, out in enumerate(by_source):
        if out:
            reached = search(g, u, dist, limit=max(w for _, _, w in out))
            for i, v, _ in out:
                lengths[i] = dist[v]
            for v in reached:
                dist[v] = INF
    return WeightedGraph._derived(
        g.n, tuple((u, v, d) for (u, v, _), d in zip(g.edges, lengths))
    )


def quotient_adjacency(g: WeightedGraph, part_of: Sequence[int], count: int) -> list[set[int]]:
    """Neighbour sets of the quotient of g by `count` parts, where part_of[v]
    is v's part: two parts are adjacent when some edge joins them."""
    nbrs: list[set[int]] = [set() for _ in range(count)]
    for u, v, _ in g.edges:
        a, b = part_of[u], part_of[v]
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def induced_subgraphs(
    g: WeightedGraph, parts: Sequence[Sequence[int]]
) -> list[WeightedGraph]:
    """The subgraphs that disjoint, sorted vertex lists induce, built in one
    pass over g's edges: part j's local vertex i is parts[j][i]. Each keeps
    g's edge order, and the same pass fills its adjacency lists in the order
    `adjacency` would. A child with an edge inherits g's one length when g
    has one, and each child inherits a True `exact_path_sums`: a child of a
    graph with mixed lengths may have one length, so no None is handed on.
    """
    part_of = [-1] * g.n
    local = [0] * g.n
    # Per vertex of g in some part, its adjacency list in that part's child.
    lists: list = [None] * g.n
    for j, verts in enumerate(parts):
        for i, v in enumerate(verts):
            part_of[v] = j
            local[v] = i
            lists[v] = []
    edges: list[list[Edge]] = [[] for _ in parts]
    for u, v, w in g.edges:
        j = part_of[u]
        if j >= 0 and part_of[v] == j:
            a, b = local[u], local[v]
            edges[j].append((a, b, w))
            lists[u].append((b, w))
            lists[v].append((a, w))
    # Each of g's scans stops at the first edge whose length rules its fact out.
    known = {"exact_path_sums": True} if g.exact_path_sums else {}
    with_edge = known if g.common_length is None else dict(known, common_length=g.common_length)
    return [
        WeightedGraph._derived(
            len(verts), tuple(e), adjacency=[lists[v] for v in verts], **(with_edge if e else known)
        )
        for verts, e in zip(parts, edges)
    ]
