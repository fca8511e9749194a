"""Balanced cuts over a clustering chain and their packings.

A cut is a family of disjoint chain clusters; it is balanced when every
component left after removing its boundary edges either equals a member or
holds at most half the vertices. Cuts are found by quotienting the graph by
the maximal free clusters, tree-decomposing that quotient with a min-degree
elimination heuristic, and taking a centroid bag under cluster-size weights.

A cluster is free when it is a singleton or does not appear as a member of
any cut already packed; clusters are compared as vertex sets. Two cuts are
non-conflicting when every cluster they share is a singleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyPacking, InvariantViolation
from .graphs import UnweightedGraph, WeightedGraph, connected_components, quotient
from .hierarchy import ClusteringChain


@dataclass(frozen=True)
class Cut:
    """Disjoint chain clusters, each tagged with the level it was taken from."""

    members: tuple[frozenset[int], ...]
    levels: tuple[int, ...]
    oversize: bool = False

    def family(self) -> frozenset[frozenset[int]]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class CutPacking:
    """Pairwise non-conflicting cuts; tracks which cluster sets are used."""

    cuts: list[Cut] = field(default_factory=list)
    used: set[frozenset[int]] = field(default_factory=set)

    def add(self, cut: Cut) -> None:
        for member in cut.members:
            if len(member) > 1:
                self.used.add(member)
        self.cuts.append(cut)

    def __len__(self) -> int:
        return len(self.cuts)


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree plus bags over the vertices of `graph`."""

    graph: UnweightedGraph
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def node_count(self) -> int:
        return len(self.bags)


def cut_edges(g: WeightedGraph, cut: Cut) -> set[tuple[int, int]]:
    """Edges with exactly one endpoint inside some member of the cut."""
    member_of = {}
    for idx, member in enumerate(cut.members):
        for v in member:
            member_of[v] = idx
    out = set()
    for u, v, _ in g.edges:
        if member_of.get(u, -1) != member_of.get(v, -1):
            out.add((u, v))
    return out


def is_balanced(g: WeightedGraph, cut: Cut) -> bool:
    """Exact balanced predicate by component enumeration of G - F(cut)."""
    removed = cut_edges(g, cut)
    family = cut.family()
    half = g.n // 2
    for comp in connected_components(g, removed_edges=removed):
        if frozenset(comp) in family:
            continue
        if len(comp) > half:
            return False
    return True


def cuts_conflict(a: Cut, b: Cut) -> bool:
    shared = a.family() & b.family()
    return any(len(s) > 1 for s in shared)


def heuristic_tree_decomposition(h: UnweightedGraph) -> TreeDecomposition:
    """Min-degree elimination with fill-in; valid for any input graph.

    Node k holds the bag of the k-th eliminated vertex and attaches to the
    node of its earliest-eliminated bag mate, the usual elimination-order
    tree. Ties on degree break toward the lowest vertex id.
    """
    if h.n == 0:
        raise InvariantViolation("cannot decompose the empty graph")
    nbrs: list[set[int]] = [set(adj) for adj in h.adjacency]
    alive = set(range(h.n))
    elim_index = [0] * h.n
    bags: list[frozenset[int]] = []
    for k in range(h.n):
        v = min(alive, key=lambda u: (len(nbrs[u]), u))
        bag = {v} | nbrs[v]
        bags.append(frozenset(bag))
        elim_index[v] = k
        around = sorted(nbrs[v])
        for i, a in enumerate(around):
            for b in around[i + 1 :]:
                nbrs[a].add(b)
                nbrs[b].add(a)
        for a in around:
            nbrs[a].discard(v)
        nbrs[v].clear()
        alive.discard(v)
    order = sorted(range(h.n), key=lambda u: elim_index[u])
    tree_edges = []
    for k in range(h.n - 1):
        later = [elim_index[u] for u in bags[k] if elim_index[u] > k]
        parent = min(later) if later else k + 1
        tree_edges.append((k, parent))
    return TreeDecomposition(graph=h, bags=tuple(bags), tree_edges=tuple(tree_edges))


def validate_tree_decomposition(td: TreeDecomposition) -> None:
    """Raise unless every edge is covered and every vertex's bags form a subtree."""
    h = td.graph
    for u, v in h.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            raise InvariantViolation(f"edge ({u},{v}) covered by no bag")
    nodes = range(td.node_count())
    adj: list[list[int]] = [[] for _ in nodes]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in range(h.n):
        holding = [k for k in nodes if v in td.bags[k]]
        if not holding:
            raise InvariantViolation(f"vertex {v} in no bag")
        seen = {holding[0]}
        stack = [holding[0]]
        members = set(holding)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in members and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != members:
            raise InvariantViolation(f"bags holding vertex {v} are not connected")


def centroid_bag(td: TreeDecomposition, weights: list[float]) -> int:
    """First node whose bag splits the graph into halves by weight.

    Existence is guaranteed for any tree decomposition and nonnegative
    weights; nodes are scanned in id order so ties are deterministic.
    """
    h = td.graph
    total = sum(weights)
    for k in range(td.node_count()):
        blocked = set(td.bags[k])
        seen = set(blocked)
        ok = True
        for s in range(h.n):
            if s in seen:
                continue
            comp_weight = 0.0
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                comp_weight += weights[u]
                for v in h.adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if 2.0 * comp_weight > total:
                ok = False
                break
        if ok:
            return k
    raise InvariantViolation("no centroid bag found; decomposition is invalid")


def maximal_free_clusters(
    chain: ClusteringChain, packing: CutPacking
) -> list[tuple[int, int]]:
    """Partition into maximal free clusters as (level, cluster index) pairs.

    For each vertex this is its highest-level cluster that is a singleton or
    unused; results are ordered by smallest contained vertex.
    """
    free_flag = []
    for level_clusters in chain.levels:
        free_flag.append(
            [len(c) == 1 or c not in packing.used for c in level_clusters]
        )
    out: list[tuple[int, int]] = []
    seen = set()
    n = chain.graph.n
    for v in range(n):
        for i in range(chain.top_level, -1, -1):
            idx = chain.vertex_to_cluster[i][v]
            if free_flag[i][idx]:
                key = (i, idx)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                break
        else:
            raise InvariantViolation(f"no free cluster contains vertex {v}")
    return out


def find_balanced_cut(
    g: WeightedGraph, chain: ClusteringChain, packing: CutPacking, tau: int
) -> Cut:
    """One balanced cut respecting the chain, non-conflicting with the packing.

    Quotient the graph by the maximal free clusters, tree-decompose the
    quotient, and return the contents of a centroid bag under per-cluster
    weight |D|. Cuts larger than tau come back flagged oversize rather than
    rejected.
    """
    parts = maximal_free_clusters(chain, packing)
    sets = [chain.cluster(i, idx) for i, idx in parts]
    h = quotient(g, [sorted(s) for s in sets])
    td = heuristic_tree_decomposition(h)
    node = centroid_bag(td, [float(len(s)) for s in sets])
    chosen = sorted(td.bags[node])
    members = tuple(sets[j] for j in chosen)
    levels = tuple(parts[j][0] for j in chosen)
    cut = Cut(members=members, levels=levels, oversize=len(members) > tau)
    if not is_balanced(g, cut):
        raise InvariantViolation("constructed cut is not balanced")
    for prev in packing.cuts:
        if cuts_conflict(cut, prev):
            raise InvariantViolation("constructed cut conflicts with the packing")
    return cut


def build_cut_packing(
    g: WeightedGraph, chain: ClusteringChain, xi: int, tau: int
) -> CutPacking:
    """Collect up to xi+1 distinct cuts, then drop the whole-vertex-set cut.

    `find_balanced_cut` is deterministic given (graph, chain, packing), and a
    repeated cut leaves the packing unchanged, so the first repeat means
    nothing new can appear; we stop there. The trivial cut {V} is always
    found first and is discarded from the returned packing.
    """
    if xi < 1 or tau < 1:
        raise InvariantViolation("xi and tau must be at least 1")
    packing = CutPacking()
    families: set[frozenset[frozenset[int]]] = set()
    while len(packing) < xi + 1:
        cut = find_balanced_cut(g, chain, packing, tau)
        fam = cut.family()
        if fam in families:
            break
        families.add(fam)
        packing.add(cut)
    everything = frozenset(range(g.n))
    kept = [c for c in packing.cuts if c.family() != frozenset({everything})]
    if not kept:
        raise EmptyPacking("no balanced cut besides the trivial one")
    out = CutPacking()
    for c in kept:
        out.add(c)
    return out
