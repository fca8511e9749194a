"""Balanced cuts over a clustering chain and their packings.

A cut is a set of disjoint chain clusters; it is balanced when every
component left after removing its boundary edges either equals a member or
holds at most half the vertices. Chain clusters are connected, so those
components are the members and the components outside every member. Cuts
are found by quotienting the graph by the maximal free clusters (a part
index per vertex, then one neighbour set per part) and running a min-degree
elimination on that quotient until it reaches the centroid under
cluster-size weights: the first eliminated vertex whose component among the
eliminated ones weighs more than half. That vertex and its live neighbours
form the bag of the elimination tree's centroid, and no other bag is built.
The elimination keeps its vertices in one heap of ids per degree with a
lowest-degree cursor, as minimum-degree codes keep per-degree lists (George
& Liu, SIAM Review 31(1), 1989), and takes them in (degree, id) order.

Clusters are the nodes of the chain's cluster tree, one per distinct vertex
set, so a cut is the tuple of its node ids, each member read from its
node's slice of the chain's vertex order, and a packing keeps one used flag
per node. A cut may have any number of members; bounding them is the
caller's concern. A cluster is free when it is a singleton or not a member
of any cut already packed; the maximal free clusters are found by walking
the tree down from the root and stopping at free nodes. Two cuts are
non-conflicting when every cluster they share is a singleton. A packing
starts with the root, the whole vertex set, marked used and ends after a cut
of singletons or at its size budget; its used set then holds the root and
the non-singleton members of its cuts, which is all a conflict check needs.
Adding a cut to a packing finds its components once, refuses it unless it
is balanced, and keeps them beside the cut for the split that samples it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .errors import EmptyPacking, InvariantViolation, PreconditionViolation
from .graphs import WeightedGraph, connected_components, quotient_adjacency
from .hierarchy import ClusteringChain


# Disjoint chain clusters, as the chain's tree nodes in increasing smallest
# vertex; node k's members are `chain.order[chain.start[k]:chain.stop[k]]`,
# and its highest level is `chain.hi[k]`.
Cut = tuple[int, ...]


@dataclass
class CutPacking:
    """Pairwise non-conflicting cuts; tracks which tree nodes are used."""

    cuts: list[Cut] = field(default_factory=list)
    used: set[int] = field(default_factory=set)
    # components[i]: `cut_components` of cuts[i]'s members.
    components: list[list[list[int]]] = field(default_factory=list)

    def add(self, cut: Cut, chain: ClusteringChain) -> None:
        """Pack a cut, refusing it unless it is balanced."""
        order, start, stop = chain.order, chain.start, chain.stop
        comps = cut_components(chain.graph, [sorted(order[start[k] : stop[k]]) for k in cut])
        self.used.update(k for k in cut if stop[k] - start[k] > 1)
        self.cuts.append(cut)
        self.components.append(comps)

    def __len__(self) -> int:
        return len(self.cuts)


def cut_components(g: WeightedGraph, members: list[list[int]]) -> list[list[int]]:
    """The components of g - F, F the edges that leave a member, as sorted
    lists ordered by smallest vertex, for disjoint connected members given
    as sorted lists: the members and the components outside them. Refuses
    the cut unless each component outside holds at most half of g."""
    outside = [True] * g.n
    for member in members:
        for v in member:
            outside[v] = False
    comps = connected_components(g, allowed=outside)
    half = g.n // 2
    if any(len(c) > half for c in comps):
        raise InvariantViolation("constructed cut is not balanced")
    comps.extend(members)
    comps.sort()
    return comps


def centroid_separator(adjacency: list[set[int]], weights: list[int]) -> frozenset[int]:
    """A bag that splits a connected graph into halves by weight.

    Runs the min-degree elimination with fill-in, taking the live vertex of
    least degree, ties to the lowest id. The vertices wait in one heap of
    ids per degree, and a cursor marks the lowest degree that may hold a
    live vertex. A vertex is entered again, in its new degree's heap, when a
    fill update changes its degree, and the cursor moves down to that degree
    when it is lower. An id that is eliminated or whose degree has changed
    since it was entered is skipped when popped. Vertices leave in the same
    order as from the one heap of (degree, id) entries that the reference,
    `tests/oracles.oracle_centroid`, runs.

    In the elimination tree, the subtree of the k-th eliminated vertex is
    its component among the vertices eliminated so far (Liu, SIAM J. Matrix
    Anal. Appl. 11(1), 1990), so a union-find over the original edges gives
    each subtree's weight. The elimination stops at the first vertex v whose
    subtree weighs more than half the total, or at the last vertex, and
    returns v with its live neighbours: each branch below v weighs at most
    half, and the rest of the graph weighs the total less v's subtree, which
    is below half. This is the deepest node on the heavy path of the whole
    elimination tree.

    The graph must be connected and is given as neighbour sets, which are
    left unchanged; the weights must be nonnegative integers.
    """
    n = len(adjacency)
    if n == 0:
        raise InvariantViolation("the empty graph has no centroid")
    nbrs = [set(around) for around in adjacency]
    alive = [True] * n
    # ids entered in increasing order, so each list is already a heap
    buckets: list[list[int]] = [[] for _ in range(n)]
    for u, around in enumerate(nbrs):
        buckets[len(around)].append(u)
    low = 0
    # union-find over the eliminated vertices; each root is the latest
    # eliminated vertex of its component and holds the component's weight
    link = list(range(n))
    mass = list(weights)
    total = sum(weights)
    left = n
    while True:
        bucket = buckets[low]
        while not bucket:
            low += 1
            bucket = buckets[low]
        v = heappop(bucket)
        if not alive[v] or len(nbrs[v]) != low:
            continue
        alive[v] = False
        left -= 1
        weight = mass[v]
        for u in adjacency[v]:
            if alive[u]:
                continue
            while link[u] != u:
                link[u] = link[link[u]]
                u = link[u]
            if u != v:
                link[u] = v
                weight += mass[u]
        mass[v] = weight
        around = nbrs[v]
        if 2 * weight > total or left == 0:
            return frozenset((v, *around))
        for a in around:
            fill = nbrs[a]
            before = len(fill)
            fill |= around
            fill.discard(a)
            fill.discard(v)
            d = len(fill)
            if d != before:
                heappush(buckets[d], a)
                if d < low:
                    low = d


def maximal_free_clusters(
    chain: ClusteringChain, packing: CutPacking
) -> tuple[list[int], list[int]]:
    """Partition into maximal free clusters as tree nodes, plus part_of, the
    index of each vertex's part.

    Each vertex's part is its highest cluster that is a singleton or
    unused; parts are ordered by smallest contained vertex, which starts
    each node's slice.
    """
    start, stop, order, children = chain.start, chain.stop, chain.order, chain.children
    used = packing.used
    parts = []
    stack = [0]
    while stack:
        k = stack.pop()
        if k in used and stop[k] - start[k] > 1:
            stack.extend(children[k])
        else:
            parts.append(k)
    parts.sort(key=lambda k: order[start[k]])
    part_of = [0] * chain.graph.n
    for j, k in enumerate(parts):
        for v in order[start[k] : stop[k]]:
            part_of[v] = j
    return parts, part_of


def find_balanced_cut(chain: ClusteringChain, packing: CutPacking) -> Cut:
    """One balanced cut respecting the chain, non-conflicting with the packing.

    Quotient the chain's graph, which must be connected, by the maximal free
    clusters and return the clusters of the quotient's centroid separator
    under per-cluster weight |D|, whatever their number. `CutPacking.add`
    checks its balance on the components it stores.
    """
    start, stop = chain.start, chain.stop
    parts, part_of = maximal_free_clusters(chain, packing)
    adjacency = quotient_adjacency(chain.graph, part_of, len(parts))
    chosen = sorted(centroid_separator(adjacency, [stop[k] - start[k] for k in parts]))
    cut = tuple(parts[j] for j in chosen)
    # `used` holds the root and the non-singleton members of the earlier
    # cuts, so this is the check that no earlier cut shares a non-singleton
    # member.
    if any(stop[k] - start[k] > 1 and k in packing.used for k in cut):
        raise InvariantViolation("constructed cut conflicts with the packing")
    return cut


def build_cut_packing(chain: ClusteringChain, xi: int) -> CutPacking:
    """Up to xi non-conflicting cuts, none of them the trivial cut {V}.

    V, the tree's root, starts out used, and `find_balanced_cut` depends
    only on the used clusters; a cut of singletons marks nothing used and
    would come back unchanged, so the packing ends after one. V is not
    listed as used.
    """
    if xi < 1:
        raise PreconditionViolation("xi must be at least 1")
    if chain.graph.n < 2:
        raise EmptyPacking("a single vertex has no balanced cut besides the trivial one")
    start, stop = chain.start, chain.stop
    packing = CutPacking(used={0})
    while len(packing) < xi:
        cut = find_balanced_cut(chain, packing)
        packing.add(cut, chain)
        if all(stop[k] - start[k] == 1 for k in cut):
            break
    packing.used.discard(0)
    return packing
