"""Reference implementations used only to check the library.

Independent of the library's algorithms: Floyd-Warshall and Bellman-Ford
for distances, exhaustive path enumeration (`diameter_by_enumeration`), a
subset-DP for exact treewidth, exhaustive enumeration of balanced
chain-respecting cuts, the quadratic min-degree scan that the heap
elimination must reproduce, an all-members cluster diameter, and forest
validity from one ancestor set per vertex.

Former routes, which the library must reproduce exactly:
- `dijkstra_by_heap`, `carve_by_heap` and `least_element_lists_by_heap`:
  `graphs.dijkstra`, `partition.carve` and `frt._least_element_lists` as
  one `settle` run on every graph, per ball or per vertex;
- `diameter_level_by_bounds`: `diameter_level` with the bound loop and the
  two-row certificate on every graph, counting its runs;
- `oracle_centroid`: the bag of `cutpack.centroid_separator`, read off the
  whole min-degree decomposition (`heuristic_tree_decomposition`) by its
  centroid walk (`centroid_bag`);
- `frt_by_matrix`: `frt_embed` from the full distance matrix;
- `packing_by_repeat_probe`: the cut packing's loop with its trivial round
  and repeat probe;
- `induced_subgraph`: one scan of the parent per child, through the public
  constructor; `quotient` (with `UnweightedGraph` and `check_partition`) the
  cut search's quotient as neighbour sets; `free_clusters_by_levels` the
  per-vertex scan for the maximal free clusters;
- `goodness_by_levels`: the goodness check as every non-singleton
  (level, cluster) pair's all-members `diameter`, then each quotient's BFS
  (`level_quotient_hops`; `children_hop_diameter` builds one subgraph per
  child); `cuts_conflict` the pairwise conflict test;
- `embedding_json_by_encoder` (`embedding_to_dict` at `indent=1`) and
  `aggregate_records_by_pair`: the embedding JSON and the report's
  distortion block.

The composition. `chain_by_subgraphs` is `build_chain` with each cluster
carved on its own induced subgraph and `goodness_by_levels` run on every
chain; `split_by_packing` is `embedder.split` on top of it, through
`build_cut_packing` on every chain. `embed_by_reference` composes them into
`embed_top(..., leaf_rows=True)`: the closure, the split streams, the
progress rule, the copy ids, the portal wiring with its witness rule, the
leaf rows and the fallback's hand-over. The library must return the same
chain or `ChainFailure`, split, and embedding, field by field.

Checks on a finished host: `full_wiring` rebuilds the embedder's wiring
from the forest; `check_labels_against_copy_edges` and `check_leaf_rows`
hold the kept edges, the `ForestLabels` and the leaf rows to its weights;
`check_forest_labels_by_dijkstra` requires a host that is its own forest to
give, from its path sums, the labels and distances of the library's Dijkstra
build, and `check_shared_forest_rows` requires its shared rows to be the
rows a per-vertex build gives.

Helpers that only tests read: `all_pairs`, `diameter`, `min_distance`,
`stretch_exponent`, the path-level counters (`edge_level`,
`level_cut_counts`, `count_cut_edges`, with `edge_set`, `has_edge` and
`EdgeNotInGraph`), `check_partition_validity`, the cut helpers
(`node_members`, `cut_members`, `components_of_cut`, `balanced_predicate`),
`validate_tree_decomposition`, `check_derived_graph` and
`recording_derived_graphs`, `recording_splits`, `root_split` and
`root_split_text` (the root split of `embed_top` from its `prepare` record,
and that split as the text of the golden strings), and `strip_timing` and
`load_report` for reports. The chain is one cluster tree in the library:
`chain_levels` gives its per-level lists (`LevelView`), `chain_sigma` its
quotient hop bound, `tree_parents` each node's parent, and
`chain_from_levels` builds a tree from hand-written lists.
"""

import functools
import heapq
import itertools
import operator
from collections import Counter
from contextlib import contextmanager
import json
import math
import random
from dataclasses import dataclass, replace
from typing import NamedTuple
from functools import cached_property
from pathlib import Path

import mfembed.embedder as embedder
import mfembed.hierarchy as hierarchy
import mfembed.hosts as hosts
import mfembed.partition as partition
from mfembed.cutpack import CutPacking, build_cut_packing, find_balanced_cut
from mfembed.embedder import SplitResult
from mfembed.errors import (
    CyclicParentArray,
    DisconnectedGraph,
    EmptyPacking,
    InvariantViolation,
    MfembedError,
)
from mfembed.frt import frt_embed
from mfembed.graphs import (
    WeightedGraph,
    dijkstra,
    hat_ell,
    metric_closure_weights,
    normalize,
    quotient_adjacency,
    settle,
)
from mfembed.hierarchy import (
    BOUND_SLACK,
    DIAMETER_EXCEEDED,
    QUOTIENT_DIAMETER_EXCEEDED,
    ChainFailure,
    ClusteringChain,
    _no_pair_exceeds,
    level_count_for_diameter,
)
from mfembed.hosts import EmbeddingMeta, ForestLabels, HostEmbedding
from mfembed.rng import derive_seed

INF = math.inf


def strip_timing(report):
    """Copy of an experiment report without its wall-clock fields, for
    determinism checks."""
    out = json.loads(json.dumps(report))
    out.pop("timing", None)
    return out


def load_report(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def fold_sum(terms):
    return functools.reduce(operator.add, terms, 0.0)


def aggregate_records_by_pair(pairs, dist_g, runs_dist_h, tolerance):
    """The report's distortion block, pair by pair from each pair's list of
    ratios; `tolerance` is the relative non-contraction tolerance. Each float
    sum is a plain left fold from 0.0, the same on every CPython."""
    per_pair = []
    max_mean = None
    max_single = None
    violations = 0
    floor = 1.0 - tolerance
    for (u, v), d_g, run_h in zip(pairs, dist_g, zip(*runs_dist_h)):
        ratios = [d_h / d_g for d_h in run_h]
        violations += sum(1 for d_h in run_h if d_h < d_g * floor)
        mean_ratio = fold_sum(ratios) / len(ratios)
        peak = max(ratios)
        per_pair.append(
            {
                "u": u,
                "v": v,
                "dist_g": d_g,
                "mean_dist_h": fold_sum(run_h) / len(run_h),
                "mean_ratio": mean_ratio,
                "max_ratio": peak,
            }
        )
        max_mean = mean_ratio if max_mean is None else max(max_mean, mean_ratio)
        max_single = peak if max_single is None else max(max_single, peak)
    count = len(pairs) * len(runs_dist_h)
    # Run-major, pairs in order within a run.
    total = fold_sum(d_h / d_g for run_h in runs_dist_h for d_h, d_g in zip(run_h, dist_g))
    return {
        "per_pair": per_pair,
        "max_mean_ratio": max_mean,
        "global_mean_ratio": total / count if count else None,
        "max_single_run_ratio": max_single,
        "violations": violations,
    }


def induced_subgraph(g, vertices):
    """Induced subgraph with dense local ids; returns (subgraph, local->global)."""
    verts = sorted(vertices)
    local = {v: i for i, v in enumerate(verts)}
    edges = []
    for u, v, w in g.edges:
        if u in local and v in local:
            edges.append((local[u], local[v], w))
    return WeightedGraph(len(verts), tuple(edges)), verts


def check_derived_graph(g, allow_zero=False):
    """Raise unless the public constructor, given g's vertex count and edges,
    accepts them and keeps them as they are: every length a float, every
    pair once with u < v. A host passes `allow_zero=True`. Each of
    `adjacency`, `common_length` and `exact_path_sums` that g already holds,
    seeded when it was built or computed since, must be the value that a
    fresh graph computes."""
    rebuilt = WeightedGraph(g.n, g.edges, allow_zero=allow_zero)
    if rebuilt.edges != g.edges:
        raise AssertionError("edges are not canonical: some pair is stored with u > v")
    if not all(type(w) is float for _, _, w in g.edges):
        raise AssertionError("some edge length is not a float")
    for fact in ("adjacency", "common_length", "exact_path_sums"):
        if fact in g.__dict__ and g.__dict__[fact] != getattr(rebuilt, fact):
            raise AssertionError(f"{fact} is {g.__dict__[fact]!r}, not {getattr(rebuilt, fact)!r}")


@contextmanager
def recording_derived_graphs():
    """Collect, in the yielded list, every graph that `WeightedGraph._derived`
    builds while the context is open."""
    built = []
    real = WeightedGraph.__dict__["_derived"]

    def record(cls, n, edges, **known):
        g = real.__func__(cls, n, edges, **known)
        built.append(g)
        return g

    WeightedGraph._derived = classmethod(record)
    try:
        yield built
    finally:
        WeightedGraph._derived = real


class InvalidPartition(ValueError):
    """Parts are not disjoint, are empty, or do not cover the vertex set."""


class EdgeNotInGraph(MfembedError):
    """A path step refers to a nonexistent edge."""


def edge_set(g):
    """The graph's edges as (smaller, larger) endpoint pairs."""
    return frozenset((u, v) for u, v, _ in g.edges)


def has_edge(g, u, v):
    return (min(u, v), max(u, v)) in edge_set(g)


def node_members(chain, k):
    """The vertex set of cluster-tree node k: its slice of the chain's order."""
    return frozenset(chain.order[chain.start[k] : chain.stop[k]])


def cut_members(chain, cut):
    """A cut's members as vertex sets, in the cut's node order."""
    return tuple(node_members(chain, k) for k in cut)


@dataclass(frozen=True)
class UnweightedGraph:
    """Simple unweighted graph; distances are hop counts."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canon = []
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise InvariantViolation(f"bad edge ({u},{v})")
            if u > v:
                u, v = v, u
            if (u, v) not in seen:
                seen.add((u, v))
                canon.append((u, v))
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def bfs_distances(self, src):
        dist = [INF] * self.n
        dist[src] = 0.0
        queue = [src]
        while queue:
            nxt = []
            for u in queue:
                for v in self.adjacency[u]:
                    if dist[v] == INF:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        return dist

    def hop_diameter(self):
        best = 0
        for s in range(self.n):
            worst = max(self.bfs_distances(s))
            if worst == INF:
                raise DisconnectedGraph("hop diameter undefined on disconnected graph")
            best = max(best, int(worst))
        return best


def check_partition(n, parts):
    norm = [sorted(set(p)) for p in parts]
    seen = set()
    for p in norm:
        if not p:
            raise InvalidPartition("empty part")
        for v in p:
            if not 0 <= v < n:
                raise InvalidPartition(f"vertex {v} out of range")
            if v in seen:
                raise InvalidPartition(f"vertex {v} appears in two parts")
            seen.add(v)
    if len(seen) != n:
        raise InvalidPartition("parts do not cover the vertex set")
    return norm


def quotient(g, parts):
    """Unweighted graph on parts, adjacent when some edge crosses them."""
    norm = check_partition(g.n, parts)
    part_of = [0] * g.n
    for i, p in enumerate(norm):
        for v in p:
            part_of[v] = i
    qedges = set()
    for u, v, _ in g.edges:
        a, b = part_of[u], part_of[v]
        if a != b:
            qedges.add((min(a, b), max(a, b)))
    return UnweightedGraph(len(norm), tuple(sorted(qedges)))


def children_hop_diameter(g, levels, parents, i, idx):
    """Hop-diameter of the quotient of the subgraph that cluster idx of
    level i + 1 induces, by its level-i children: one induced subgraph and
    one BFS per child, as the goodness check once did."""
    child_of = {v: j for j, cluster in enumerate(levels[i]) for v in cluster}
    sub, verts = induced_subgraph(g, sorted(levels[i + 1][idx]))
    groups = {}
    for local, v in enumerate(verts):
        groups.setdefault(child_of[v], []).append(local)
    return quotient(sub, [groups[k] for k in sorted(groups)]).hop_diameter()


def cuts_conflict(chain, a, b):
    """True when the two cuts share a member that is not a singleton."""
    shared = set(cut_members(chain, a)) & set(cut_members(chain, b))
    return any(len(s) > 1 for s in shared)


def floyd_warshall(g):
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for u, v, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def bellman_ford(g, src):
    dist = [INF] * g.n
    dist[src] = 0.0
    for _ in range(g.n):
        changed = False
        for u, v, w in g.edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def max_cluster_diameter(g, balls):
    """Largest induced diameter over `carve`'s (center, members, radius)
    balls, one search per member."""
    worst = 0.0
    for _, members, _ in balls:
        inside = set(members)
        adj = {u: [] for u in members}
        for u, v, w in g.edges:
            if u in inside and v in inside:
                adj[u].append((v, w))
                adj[v].append((u, w))
        for src in members:
            dist = {src: 0.0}
            heap = [(0.0, src)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist.get(v, INF):
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            worst = max(worst, max(dist.get(v, INF) for v in members))
    return worst


def shortest_by_path_enumeration(g, src, dst):
    """Minimum length over all simple paths, by exhaustive DFS."""
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = [INF]

    def walk(u, seen, total):
        if total >= best[0]:
            return
        if u == dst:
            best[0] = total
            return
        for v, w in adj[u]:
            if v not in seen:
                seen.add(v)
                walk(v, seen, total + w)
                seen.remove(v)

    walk(src, {src}, 0.0)
    return best[0]


def diameter_by_enumeration(g):
    return max(
        shortest_by_path_enumeration(g, u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def exact_treewidth(nbrs):
    """Subset DP over elimination orders of a graph given as neighbour sets;
    fine up to n ~ 12."""
    n = len(nbrs)
    if n == 1:
        return 0
    adj = nbrs

    def back_degree(done_mask, v):
        # vertices outside done+{v} reachable from v through done
        seen = {v}
        stack = [v]
        out = set()
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                if done_mask >> w & 1:
                    stack.append(w)
                else:
                    out.add(w)
        return len(out)

    f = [0] * (1 << n)
    for mask in range(1, 1 << n):
        best = n
        for v in range(n):
            if not mask >> v & 1:
                continue
            prev = mask ^ (1 << v)
            best = min(best, max(f[prev], back_degree(prev, v)))
        f[mask] = best
    return f[(1 << n) - 1]


def min_degree_decomposition_by_scan(adjacency):
    """(bags, parent) of min-degree elimination over neighbour sets,
    scanning every live vertex.

    Each step eliminates the live vertex of least (degree, id), joins its
    neighbours, and records its bag; node k attaches to the node of its
    earliest-eliminated later bag mate, or to node k+1 when it has none.
    The last node is the root, with parent -1.
    """
    n = len(adjacency)
    nbrs = [set(adj) for adj in adjacency]
    alive = set(range(n))
    elim_index = [0] * n
    bags = []
    for k in range(n):
        v = min(alive, key=lambda u: (len(nbrs[u]), u))
        bags.append(frozenset({v} | nbrs[v]))
        elim_index[v] = k
        for a, b in itertools.combinations(nbrs[v], 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
        for a in nbrs[v]:
            nbrs[a].discard(v)
        nbrs[v].clear()
        alive.discard(v)
    parent = [-1] * n
    for k in range(n - 1):
        later = [elim_index[u] for u in bags[k] if elim_index[u] > k]
        parent[k] = min(later) if later else k + 1
    return bags, parent


def heuristic_tree_decomposition(adjacency):
    """Min-degree elimination with fill-in; valid for any input graph.

    The library's former decomposition, run to the end: the reference that
    `cutpack.centroid_separator` stops early in. Takes the graph as
    neighbour sets, which it leaves unchanged, and returns (bags, parent).
    Node k holds the bag of the k-th eliminated vertex and its parent is the
    node of its earliest-eliminated bag mate, the usual elimination-order
    tree, so parent[k] > k and the last node is the root, with parent -1.
    Ties on degree break toward the lowest vertex id. The next vertex comes
    off a heap of (degree, id) entries; a vertex is pushed again whenever
    its degree changes, and dead or outdated entries are skipped when
    popped.
    """
    n = len(adjacency)
    if n == 0:
        raise InvariantViolation("cannot decompose the empty graph")
    nbrs = [set(around) for around in adjacency]
    alive = [True] * n
    heap = [(len(nbrs[u]), u) for u in range(n)]
    heapq.heapify(heap)
    elim_index = [0] * n
    bags = []
    for k in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == len(nbrs[v]):
                break
        around = nbrs[v]
        bags.append(frozenset((v, *around)))
        elim_index[v] = k
        for a in around:
            fill = nbrs[a]
            fill |= around
            fill.discard(a)
            fill.discard(v)
            heapq.heappush(heap, (len(fill), a))
        alive[v] = False
    parent = [-1] * n
    for k in range(n - 1):
        later = [elim_index[u] for u in bags[k] if elim_index[u] > k]
        parent[k] = min(later) if later else k + 1
    return bags, parent


def centroid_bag(bags, parent, weights):
    """Node whose bag splits the graph into halves by weight, in linear time.

    The library's former centroid walk over a whole decomposition. Each
    vertex's weight sits at the node nearest the root that holds it (the
    nodes in ``bags[k] - bags[parent]``). The walk starts at the root and
    steps into the child whose subtree weighs more than half the total
    until there is none. At the node x where it stops, every child branch
    weighs at most half, and the rest of the graph weighs the total less
    x's subtree, which is below half once the walk has left the root.
    Needs nonnegative weights and every non-root parent[k] above k, as
    `heuristic_tree_decomposition` builds them.
    """
    count = len(bags)
    root = count - 1
    for k in range(root):
        if not k < parent[k] < count:
            raise InvariantViolation("each node's parent must be a later node")
    sub = [0.0] * count
    for k, bag in enumerate(bags):
        top = bag if k == root else bag - bags[parent[k]]
        sub[k] = sum(weights[v] for v in top)
    total = sum(weights)
    heavy = [-1] * count
    for k in range(root):
        sub[parent[k]] += sub[k]
        if 2.0 * sub[k] > total:
            heavy[parent[k]] = k
    node = root
    while heavy[node] >= 0:
        node = heavy[node]
    return node


def oracle_centroid(nbrs, weights):
    """The bag `cutpack.centroid_separator` must return: the centroid node's
    bag of the whole `heuristic_tree_decomposition`."""
    bags, parent = heuristic_tree_decomposition(nbrs)
    return bags[centroid_bag(bags, parent, weights)]


def validate_tree_decomposition(nbrs, bags, parent):
    """Raise unless (bags, parent) is a tree decomposition of the graph with
    neighbour sets `nbrs`: parent is a tree rooted at the last node, every
    edge is covered and every vertex's bags form a subtree."""
    nodes = range(len(bags))
    if parent[-1] != -1 or any(not k < parent[k] < len(bags) for k in nodes[:-1]):
        raise AssertionError(f"parent {parent} is not a tree rooted at the last node")
    for u, around in enumerate(nbrs):
        for v in around:
            if not any(u in bag and v in bag for bag in bags):
                raise AssertionError(f"edge ({u},{v}) covered by no bag")
    adj = [[] for _ in nodes]
    for a in nodes[:-1]:
        adj[a].append(parent[a])
        adj[parent[a]].append(a)
    for v in range(len(nbrs)):
        holding = [k for k in nodes if v in bags[k]]
        if not holding:
            raise AssertionError(f"vertex {v} in no bag")
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
            raise AssertionError(f"bags holding vertex {v} are not connected")


def components_without(g, removed):
    """Components of g without the (u, v), u < v, edges in `removed`, as
    frozensets."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        if (min(u, v), max(u, v)) in removed:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = [s]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(frozenset(comp))
    return comps


def boundary_edges(g, family):
    member_of = {}
    for i, s in enumerate(family):
        for v in s:
            member_of[v] = i
    removed = set()
    for u, v, _ in g.edges:
        if member_of.get(u, -1) != member_of.get(v, -1):
            removed.add((min(u, v), max(u, v)))
    return removed


def components_of_cut(g, chain, cut):
    """Components of g without a chain cut's boundary edges, found from the
    edge set, as sorted lists ordered by smallest vertex."""
    removed = boundary_edges(g, cut_members(chain, cut))
    return sorted(sorted(c) for c in components_without(g, removed))


def balanced_predicate(g, family):
    """family: iterable of frozensets (the cut members)."""
    family = list(family)
    removed = boundary_edges(g, family)
    members = set(family)
    for comp in components_without(g, removed):
        if comp in members:
            continue
        if len(comp) > g.n // 2:
            return False
    return True


def chain_cluster_sets(chain):
    out = {node_members(chain, k) for k in range(len(chain.start))}
    return sorted(out, key=lambda s: (min(s), len(s)))


def enumerate_balanced_chain_cuts(g, chain, max_members=None):
    """All balanced cuts whose members are chain clusters (as set families)."""
    sets = chain_cluster_sets(chain)
    results = set()

    def extend(start, chosen, used_vertices):
        if chosen:
            fam = frozenset(chosen)
            if fam not in results and balanced_predicate(g, chosen):
                results.add(fam)
        if max_members is not None and len(chosen) >= max_members:
            return
        for k in range(start, len(sets)):
            s = sets[k]
            if used_vertices & s:
                continue
            chosen.append(s)
            extend(k + 1, chosen, used_vertices | s)
            chosen.pop()

    extend(0, [], frozenset())
    return results


def all_connected_labeled_graphs(n):
    """Edge sets of all connected labeled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            out.append(edges)
    return out


def forest_validity_by_ancestor_sets(emb):
    """Raise unless the forest is a parent array over the host whose every
    host edge joins an ancestor and a descendant; one ancestor set per vertex."""
    parent = emb.forest
    n = emb.host.n
    if len(parent) != n:
        raise InvariantViolation("forest size does not match host size")
    ancestors = []
    for v in range(n):
        anc = set()
        u = parent[v]
        while u is not None:
            if not (isinstance(u, int) and 0 <= u < n):
                raise InvariantViolation(f"forest parent {u!r} is not a vertex")
            if u in anc or u == v:
                raise CyclicParentArray("parent array contains a cycle")
            anc.add(u)
            u = parent[u]
        ancestors.append(anc)
    for u, v, _ in emb.host.edges:
        if u not in ancestors[v] and v not in ancestors[u]:
            raise InvariantViolation(f"host edge ({u},{v}) joins unrelated forest vertices")


def edge_level(chain, u, v):
    """Largest level whose partition separates the edge's endpoints.

    The top level never separates anything, and distinct vertices are always
    separated at level 0, so the result lies in 0..L-1.
    """
    if not has_edge(chain.graph, u, v):
        raise EdgeNotInGraph(f"({u},{v}) is not an edge")
    vtc = chain_levels(chain).vertex_to_cluster
    for i in range(chain.top_level - 1, 0, -1):
        if vtc[i][u] != vtc[i][v]:
            return i
    return 0


def level_cut_counts(chain, path):
    """Histogram of `edge_level` over the path's consecutive pairs."""
    counts = [0] * max(chain.top_level, 1)
    vtc = chain_levels(chain).vertex_to_cluster
    for u, v in zip(path, path[1:]):
        level = 0
        for i in range(chain.top_level - 1, 0, -1):
            if vtc[i][u] != vtc[i][v]:
                level = i
                break
        counts[level] += 1
    return counts


def count_cut_edges(g, path, balls):
    """Number of path edges whose endpoints fall in different balls of
    `carve`'s (center, members, radius) list."""
    cluster_of = {u: idx for idx, (_, members, _) in enumerate(balls) for u in members}
    count = 0
    for u, v in zip(path, path[1:]):
        if not has_edge(g, u, v):
            raise EdgeNotInGraph(f"({u},{v}) is not an edge")
        if cluster_of[u] != cluster_of[v]:
            count += 1
    return count


def check_partition_validity(g, balls):
    """Exact checks on `carve`'s (center, members, radius) balls: disjoint,
    covering V, each inducing a connected subgraph."""
    seen = set()
    for idx, (_, members, _) in enumerate(balls):
        if not members:
            raise InvariantViolation(f"cluster {idx} is empty")
        for u in members:
            if u in seen:
                raise InvariantViolation(f"vertex {u} in two clusters")
            seen.add(u)
        sub, _ = induced_subgraph(g, members)
        if INF in dijkstra(sub, 0):
            raise InvariantViolation(f"cluster {idx} is not connected")
    if len(seen) != g.n:
        raise InvariantViolation("clusters do not cover the vertex set")


def all_pairs(g):
    """Full distance matrix by repeated Dijkstra."""
    return [dijkstra(g, s) for s in range(g.n)]


def diameter(g):
    """Largest pairwise distance, one Dijkstra row at a time; raises on
    disconnected input."""
    worst = 0.0
    for s in range(g.n):
        m = max(dijkstra(g, s))
        if m == INF:
            raise DisconnectedGraph("diameter undefined on disconnected graph")
        worst = max(worst, m)
    return worst


def dijkstra_by_heap(g, src):
    """Distances from `src` by one heap run of `settle`."""
    dist = [INF] * g.n
    settle(g.adjacency, src, dist)
    return dist


def carve_by_heap(g, order, free, r, rng):
    """`partition.carve` with one `settle` run per ball."""
    balls = []
    dist = [INF] * g.n
    for v in order:
        if not free[v]:
            continue
        rv = r * (1.0 + partition.sample_exponential(rng))
        members = sorted(settle(g.adjacency, v, dist, free, rv))
        for u in members:
            free[u] = False
            dist[u] = INF
        balls.append((v, members, rv))
    return balls


def least_element_lists_by_heap(g, perm, dmin):
    """`frt._least_element_lists` with one `settle` run per vertex."""
    best = [INF] * g.n
    lists = [[] for _ in range(g.n)]
    for u in perm:
        for x in settle(g.adjacency, u, best):
            lists[x].append((u, 2.0 * best[x] / dmin))
    return lists


def diameter_level_by_bounds(g, dmin=2.0):
    """(level, runs): the former `diameter_level`, which took every run's
    bounds and tried the two-row certificate on trees too."""
    live = list(range(g.n))
    upper = [INF] * g.n
    lower = [0.0] * g.n
    level = 0
    source = 0
    first_row = []
    runs = 0
    while True:
        row = dijkstra_by_heap(g, source)
        runs += 1
        ecc = max(row)
        if ecc == INF:
            raise DisconnectedGraph("eccentricity undefined on a disconnected graph")
        level = max(level, level_count_for_diameter(ecc, dmin))
        settled = 2.0**level / (1.0 + BOUND_SLACK) * dmin / 2.0
        kept, kept_upper, kept_lower = [], [], []
        for w, up, low in zip(live, upper, lower):
            d = row[w]
            up = min(up, d + ecc)
            if up <= settled or w == source:
                continue
            kept.append(w)
            kept_upper.append(up)
            kept_lower.append(max(low, d, ecc - d))
        live, upper, lower = kept, kept_upper, kept_lower
        if not live:
            return level, runs
        if runs == 1:
            first_row = row
            source = row.index(ecc)
            continue
        if runs == 2:
            limit = 2.0**level if g.exact_path_sums else 2.0**level / (1.0 + BOUND_SLACK)
            if _no_pair_exceeds(first_row, row, limit, dmin):
                return level, runs
        source = live[lower.index(min(lower))]


def min_distance(g):
    """Smallest distance between two distinct vertices, from all pairs.

    The pipeline reads `g.min_edge_length()`, which equals this for positive
    lengths; this all-pairs form is the independent check.
    """
    if g.n < 2:
        raise InvariantViolation("need at least two vertices")
    dm = all_pairs(g)
    return min(dm[u][v] for u in range(g.n) for v in range(u + 1, g.n))


def stretch_exponent(g):
    """Least integer l such that (max distance / min distance) < 2**l."""
    if g.n < 2:
        raise DisconnectedGraph("stretch undefined with fewer than two vertices")
    stretch = diameter(g) / g.min_edge_length()
    ell = 0
    while not stretch < 2.0**ell:
        ell += 1
    return ell


def frt_by_matrix(g, seed):
    """`frt_embed` done the former way: from the full rescaled distance
    matrix, scanning the permutation for each vertex's center at every
    level and for each node's children. Same `perm` and `beta` draws."""
    n = g.n
    dm = all_pairs(g)
    if any(math.isinf(x) for row in dm for x in row):
        raise DisconnectedGraph("FRT embedding requires a connected graph")
    dmin = min(dm[u][v] for u in range(n) for v in range(u + 1, n))
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    beta = 2.0 ** rng.random()
    dm = [[2.0 * x / dmin for x in row] for row in dm]
    diam_s = max(max(row) for row in dm)
    top = 1
    while diam_s > 2.0**top:
        top += 1
    parent = [None] * (n + 1)
    edges = []
    next_id = n + 1
    active = [(n, list(range(n)))]
    for level in range(top - 1, -1, -1):
        radius = beta * 2.0 ** (level - 1)
        edge_len = 2.0**level * dmin
        refined = []
        for node, members in active:
            groups = {}
            for v in members:
                center = next(u for u in perm if dm[u][v] <= radius)
                groups.setdefault(center, []).append(v)
            for center in perm:
                child = groups.get(center)
                if child is None:
                    continue
                if len(child) == 1:
                    parent[child[0]] = node
                    edges.append((node, child[0], edge_len))
                else:
                    parent.append(node)
                    edges.append((node, next_id, edge_len))
                    refined.append((next_id, child))
                    next_id += 1
        active = refined
    meta = EmbeddingMeta(n=n, seed=seed, mode="frt", params=None, fallback_used=False)
    host = WeightedGraph(next_id, tuple(edges))
    return HostEmbedding(host=host, eta=list(range(n)), forest=parent, meta=meta)


def packing_by_repeat_probe(chain, xi):
    """`build_cut_packing` done the former way: one round for the trivial
    cut {V}, rounds until a cut repeats (found by comparing families) or
    xi + 1 cuts are held, then {V} dropped and the rest packed anew."""
    packing = CutPacking()
    families = set()
    while len(packing) < xi + 1:
        cut = find_balanced_cut(chain, packing)
        fam = frozenset(cut_members(chain, cut))
        if fam in families:
            break
        families.add(fam)
        packing.add(cut, chain)
    everything = frozenset(range(chain.graph.n))
    kept = [c for c in packing.cuts if cut_members(chain, c) != (everything,)]
    if not kept:
        raise EmptyPacking("no balanced cut besides the trivial one")
    out = CutPacking()
    for c in kept:
        out.add(c, chain)
    return out


def embedding_to_dict(emb):
    """The embedding's fields in file order, lengths rounded to 12 digits."""
    return {
        "n": emb.meta.n,
        "seed": emb.meta.seed,
        "mode": emb.meta.mode,
        "params": emb.meta.params.to_dict() if emb.meta.params else None,
        "fallback_used": emb.meta.fallback_used,
        "host": {
            "n": emb.host.n,
            "edges": [[u, v, float(f"{w:.12g}")] for u, v, w in emb.host.edges],
        },
        "eta": list(emb.eta),
        "forest_parent": list(emb.forest),
        "depth": emb.depth,
    }


def embedding_json_by_encoder(emb):
    return json.dumps(embedding_to_dict(emb), indent=1)


def ancestors(forest, x):
    """x's forest ancestors, deepest first."""
    path = []
    a = forest[x]
    while a is not None:
        path.append(a)
        a = forest[a]
    return path


def full_wiring(g, emb):
    """The embedder host's portal wiring before any edge is dropped:
    {(v, c): weight} for every copy c and every input vertex v of its
    fragment, rebuilt from the forest alone.

    A copy's fragment is the input vertices of its subtree, and its portal
    is the far end of its zero-length edge. Its weights are the portal's
    distances inside the fragment's subgraph of the closed, rescaled input,
    divided by the scale, as the embedder computes them.
    """
    scaled, scale = normalize(metric_closure_weights(g))
    fragment = {}
    for x in range(g.n):
        for a in ancestors(emb.forest, x):
            fragment.setdefault(a, []).append(x)
    # each host edge joins an input vertex and a copy, whose id is larger
    portal = {max(u, v): min(u, v) for u, v, w in emb.host.edges if w == 0.0}
    weight = {}
    for c, members in fragment.items():
        row = dijkstra(induced_subgraph(scaled, members)[0], members.index(portal[c]))
        for x, d in zip(members, row):
            weight[(x, c)] = d / scale
    return weight


def check_labels_against_copy_edges(g, emb, rel=1e-15):
    """Raise unless the embedder host keeps only full-wiring edges and its
    `ForestLabels` reproduce the full wiring; returns whether the label
    comparison was exact.

    Let c be the copy of portal z made for fragment S. In the full wiring,
    every edge below c from a copy c' to u weighs d_S'(z', u) >= d_S(z', u),
    and the edge from a copy to its own portal has length 0, so by the
    triangle inequality in S no path inside subtree(c) from c to v in S is
    shorter than the direct edge. An edge the embedder drops is realized by
    a path through a deeper copy at no greater length. So r_c(v) is the
    full wiring's weight w(c, v) for every ancestor c of every input vertex
    v. Every kept edge must equal its full-wiring weight bit for bit; the
    labels must equal the full weights when every host path sum is exact
    (`exact_path_sums`), and lie within `rel` relative otherwise.
    """
    weight = full_wiring(g, emb)
    for u, v, w in emb.host.edges:
        key = (min(u, v), max(u, v))
        if weight.get(key) != w:
            raise AssertionError(f"host edge {key} weighs {w!r}, full wiring {weight.get(key)!r}")
    labels = ForestLabels(replace(emb, leaf_rows=None))
    exact = emb.host.exact_path_sums
    for x in emb.eta:
        path = ancestors(emb.forest, x)
        row = labels.labels[labels.tin[x]]
        if len(row) != len(path) + 1 or row[-1] != 0.0:
            raise AssertionError(f"vertex {x}: labels {row} do not fit its {len(path)} ancestors")
        for c, got in zip(reversed(path), row):
            want = weight[(x, c)]
            if got != want and (exact or abs(got - want) > rel * want):
                raise AssertionError(f"vertex {x}, copy {c}: label {got!r}, full wiring {want!r}")
    return exact


def check_leaf_rows(g, emb, rel=1e-15):
    """Raise unless `emb.leaf_rows`, from `embed_top(..., leaf_rows=True)`,
    hold each input vertex's full-wiring weights to its ancestor copies,
    root first and bit for bit, then 0.0; unless `ForestLabels(emb)` reads
    the rows themselves, with the preorder, exit times and depth of the
    labels built on the host (the embedding without its rows); and unless
    each row entry is at least the label built on the host and within `rel`
    relative of it. Returns the number of entries where row and label differ.
    """
    weight = full_wiring(g, emb)
    built = ForestLabels(replace(emb, leaf_rows=None))
    read = ForestLabels(emb)
    if (read.tin, read.ends, read.depth) != (built.tin, built.ends, built.depth):
        raise AssertionError("leaf-row labels have another preorder or depth")
    differ = 0
    for x, row in zip(emb.eta, emb.leaf_rows, strict=True):
        path = ancestors(emb.forest, x)
        want = [weight[(x, c)] for c in reversed(path)] + [0.0]
        if row != want:
            raise AssertionError(f"vertex {x}: row {row}, full wiring {want}")
        if read.labels[read.tin[x]] is not row:
            raise AssertionError(f"vertex {x}: the labels do not read its row")
        for c, got, label in zip(reversed(path), row, built.labels[built.tin[x]]):
            if got < label or got - label > rel * got:
                raise AssertionError(f"vertex {x}, copy {c}: row {got!r}, label {label!r}")
            differ += got != label
    return differ


def check_forest_labels_by_dijkstra(emb, pairs=None):
    """Raise unless the host is its own forest and `ForestLabels`' path sums
    give the labels of the library's Dijkstra build, `hosts._subtree_labels`,
    and bit for bit the distances that the minimum over every common
    ancestor of those labels gives, on `pairs` of input vertices (default:
    every pair u < v)."""
    got = ForestLabels(emb)
    if not got.forest_shaped:
        raise AssertionError("the host is not its own forest")
    labels = hosts._subtree_labels(emb.host.edges, got.tin, got.ends)
    if got.labels != labels:
        raise AssertionError("labels differ from the Dijkstra build")
    want = ForestLabels(replace(emb, leaf_rows=[labels[got.tin[x]] for x in emb.eta]))
    if pairs is None:
        pairs = list(itertools.combinations(range(len(emb.eta)), 2))
    for (u, v), a, b in zip(pairs, got.distances(pairs), want.distances(pairs)):
        if a.hex() != b.hex():
            raise AssertionError(f"pair ({u},{v}): {a.hex()} from path sums, {b.hex()} by Dijkstra")


def parent_edges(emb):
    """{v: length of v's host edge to its forest parent} on a host that is
    its own forest."""
    return {v if emb.forest[v] == u else u: w for u, v, w in emb.host.edges}


def forest_rows_per_vertex(emb):
    """Each host vertex's forest label, indexed by host vertex, built as one
    new list per vertex: the parent's row plus the parent edge's length,
    entry by entry, then 0.0 (the rows that `ForestLabels` shares on a host
    that is its own forest)."""
    up = parent_edges(emb)
    rows = {}
    for x in sorted(range(emb.host.n), key=lambda x: len(ancestors(emb.forest, x))):
        p = emb.forest[x]
        rows[x] = [0.0] if p is None else [a + up[x] for a in rows[p]] + [0.0]
    return [rows[x] for x in range(emb.host.n)]


def check_shared_forest_rows(emb):
    """Raise unless `ForestLabels` of a host that is its own forest gives
    every vertex the row of `forest_rows_per_vertex` bit for bit, unless
    siblings with equal parent edges read one list, and unless `distances`
    over every pair of input vertices leaves every row as it was. Returns
    the labels."""
    got = ForestLabels(emb)
    if not got.forest_shaped:
        raise AssertionError("the host is not its own forest")

    def hexes():
        return [[a.hex() for a in got.labels[got.tin[x]]] for x in range(emb.host.n)]

    before = hexes()
    if before != [[a.hex() for a in row] for row in forest_rows_per_vertex(emb)]:
        raise AssertionError("shared rows differ from the per-vertex build")
    first = {}
    for x, w in parent_edges(emb).items():
        sibling = first.setdefault((emb.forest[x], w), x)
        if got.labels[got.tin[x]] is not got.labels[got.tin[sibling]]:
            raise AssertionError(f"siblings {sibling} and {x} hold two rows")
    got.distances(list(itertools.combinations(range(len(emb.eta)), 2)))
    if hexes() != before:
        raise AssertionError("a query changed a row")
    return got


class LevelView(NamedTuple):
    """A chain as the per-level lists it once stored: `levels[i]` lists the
    clusters of level i as frozensets, `centers[i][j]` the carving center
    of cluster j, `parents[i][j]` the index of the enclosing cluster one
    level up and `vertex_to_cluster[i][v]` the index of v's cluster;
    """

    levels: tuple
    centers: tuple
    parents: tuple
    vertex_to_cluster: tuple


def chain_levels(chain):
    """The per-level view of a `ClusteringChain`'s cluster tree. The
    clusters of level i are the nodes whose level range holds i, in the
    order of their slices."""
    n = chain.graph.n
    top = chain.top_level
    parent = tree_parents(chain)
    # the clusters of one level have distinct starts
    by_start = sorted(range(len(chain.start)), key=chain.start.__getitem__)
    alive = [[k for k in by_start if chain.lo[k] <= i <= chain.hi[k]] for i in range(top + 1)]
    index = [{k: j for j, k in enumerate(nodes)} for nodes in alive]
    members = [node_members(chain, k) for k in range(len(chain.start))]
    levels = tuple(tuple(members[k] for k in nodes) for nodes in alive)
    centers = tuple(tuple(chain.center[k] for k in nodes) for nodes in alive)
    parents = tuple(
        tuple(index[i + 1][k if chain.hi[k] > i else parent[k]] for k in alive[i])
        for i in range(top)
    )
    vtc = []
    for i in range(top + 1):
        row = [-1] * n
        for j, cluster in enumerate(levels[i]):
            for v in cluster:
                row[v] = j
        vtc.append(tuple(row))
    return LevelView(levels, centers, parents, tuple(vtc))


def chain_sigma(chain, delta):
    """The quotient hop bound 480 * lambda**2 of a chain built with `delta`."""
    n = chain.graph.n
    if n < 2:
        return 0.0
    lam = math.log(2.0 * chain.top_level * n * n / delta) + 1.0
    return 480.0 * lam * lam


def tree_parents(chain):
    """Each cluster-tree node's parent, read from `children`; -1 at the root."""
    parent = [-1] * len(chain.start)
    for k, kids in enumerate(chain.children):
        for c in kids:
            parent[c] = k
    return parent


def chain_from_levels(g, levels, centers):
    """A `ClusteringChain` tree from hand-written per-level lists, each
    level listed in refinement order with every cluster's children in
    increasing smallest vertex. A set gets its node id at the highest level
    that lists it, in level order, as `build_chain` numbers them. No radius
    is known, so every non-singleton stores INF and gets a
    `diameter_level` run."""
    top = len(levels) - 1
    node, sets, lo, hi, center, parent = {}, [], [], [], [], []
    for i in range(top, -1, -1):
        for cluster, c in zip(levels[i], centers[i]):
            if cluster in node:
                lo[node[cluster]] = i
                continue
            node[cluster] = len(sets)
            sets.append(cluster)
            lo.append(i)
            hi.append(i)
            center.append(c)
            parent.append(-1 if i == top else node[next(p for p in levels[i + 1] if cluster < p)])
    children = [[] for _ in sets]
    for k, p in enumerate(parent):
        if p >= 0:
            children[p].append(k)
    order, start, stop = [], [0] * len(sets), [0] * len(sets)

    def place(k):
        start[k] = len(order)
        for child in children[k]:
            place(child)
        if not children[k]:
            order.extend(sorted(sets[k]))
        stop[k] = len(order)

    place(0)
    return ClusteringChain(
        graph=g,
        top_level=top,
        order=tuple(order),
        start=tuple(start),
        stop=tuple(stop),
        children=tuple(map(tuple, children)),
        lo=tuple(lo),
        hi=tuple(hi),
        center=tuple(center),
        radius=tuple(INF if len(c) > 1 else 0.0 for c in sets),
    )


def goodness_by_levels(g, levels, parents, top, sigma):
    """The goodness check done the former way: every non-singleton
    (level, cluster) pair of levels 1..top-1 measured by `diameter`, one
    Dijkstra row per member on the subgraph the cluster induces (once per
    cluster, INF when it is disconnected), then each cluster's quotient by
    its children; the first failure in (level, index) order, diameters
    before quotients."""
    width = {}
    for i in range(1, top):
        for idx, cluster in enumerate(levels[i]):
            if len(cluster) == 1:
                continue
            if cluster not in width:
                try:
                    width[cluster] = diameter(induced_subgraph(g, sorted(cluster))[0])
                except DisconnectedGraph:
                    width[cluster] = INF
            if width[cluster] > 2.0**i:
                return ChainFailure(level=i, reason=DIAMETER_EXCEEDED, cluster_index=idx)
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
            if level_quotient_hops(nbrs, parents[i], idx) > sigma:
                return ChainFailure(
                    level=i + 1, reason=QUOTIENT_DIAMETER_EXCEEDED, cluster_index=idx
                )
    return None


def level_quotient_hops(nbrs, parent, idx):
    """Hop-diameter of cluster idx's quotient by its children, INF when it
    is disconnected; `nbrs` is the quotient adjacency of the whole level of
    children, and the BFS steps only to other children of idx."""
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


def free_clusters_by_levels(chain, packing):
    """`maximal_free_clusters` done the former way, on the per-level view:
    each vertex's highest-level cluster that is a singleton or whose node
    is unused, as (level, members) pairs ordered by smallest vertex."""
    view = chain_levels(chain)
    used = {node_members(chain, k) for k in packing.used}
    parts = {}
    for v in range(chain.graph.n):
        for i in range(chain.top_level, -1, -1):
            cluster = view.levels[i][view.vertex_to_cluster[i][v]]
            if len(cluster) == 1 or cluster not in used:
                parts.setdefault(cluster, i)
                break
    return sorted(((i, c) for c, i in parts.items()), key=lambda p: min(p[1]))


def chain_by_subgraphs(g, delta, rng):
    """`build_chain` done on subgraphs: each cluster of two or more members
    carved on its own `induced_subgraph` by `carve_by_heap`, with the same
    radius draws from `rng` in the same order. The top level is the
    library's `diameter_level`, which has its own tests. Nodes are numbered
    as `build_chain` numbers them, one per ball, and `goodness_by_levels`
    checks every chain, with lambda and sigma from
    `hierarchy.chain_constants`. Returns the chain or its `ChainFailure`."""
    n = g.n
    top = hierarchy.diameter_level(g)
    lam, sigma = hierarchy.chain_constants(top, n, delta)
    order = list(range(n))
    start, stop, children = [0], [n], [[]]
    lo, hi, center, radius = [top], [top], [0], [INF]
    active = [0]
    for i in range(top - 1, -1, -1):
        below = []
        for k in active:
            members = order[start[k] : stop[k]]
            balls = [(v, [v], 0.0) for v in members]  # level 0 is not carved
            if i:
                sub, verts = induced_subgraph(g, members)
                carved = carve_by_heap(sub, range(sub.n), [True] * sub.n, 2.0 ** (i - 1) / lam, rng)
                balls = [(verts[c], [verts[p] for p in part], rv) for c, part, rv in carved]
            if len(balls) == 1:
                lo[k], radius[k] = i, balls[0][2]
                below.append(k)
                continue
            first = start[k]
            for c, part, rv in balls:
                if len(part) > 1:
                    below.append(len(start))
                order[first : first + len(part)] = part
                children[k].append(len(start))
                children.append([])
                start.append(first)
                first += len(part)
                stop.append(first)
                lo.append(i if len(part) > 1 else 0)
                hi.append(i)
                center.append(c)
                radius.append(rv if len(part) > 1 else 0.0)
        active = below
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
    view = chain_levels(chain)
    failure = goodness_by_levels(g, view.levels, view.parents, top, sigma)
    return chain if failure is None else failure


def split_by_packing(g, params, rng):
    """`embedder.split` without its flat route: `chain_by_subgraphs`, then
    `build_cut_packing` on every chain and one drawn cut index."""
    chain = chain_by_subgraphs(g, params.delta, rng)
    if isinstance(chain, ChainFailure):
        return chain
    packing = build_cut_packing(chain, params.xi)
    cuts = list(zip(packing.cuts, packing.components))
    return SplitResult(chain, cuts, rng.randrange(len(cuts)))


class _Fallback(Exception):
    pass


def embed_by_reference(g, epsilon, mode="practical", seed=0):
    """`embed_top(g, epsilon, mode, seed, leaf_rows=True)` composed from the
    references, for a connected graph of two or more vertices.

    Each edge takes its endpoints' distance from `dijkstra_by_heap` out of
    its smaller end; `normalize`, `hat_ell` and `derive_params` are the
    library's. A fragment is the `induced_subgraph` of the closed, rescaled
    graph on its input vertices, split by `split_by_packing` on the stream
    `derive_seed(seed, "split", *path)`, where `path` lists the component
    index taken at each split above. A fragment with more than half its
    parent's vertices and a chain of no lower level is refused. The
    components are embedded in order. Then each portal of the cut, in cut
    order, gets a copy, numbered from n up as the recursion unwinds, that
    becomes the parent of the fragment's roots. The copy of portal z is
    wired to each vertex v of the fragment at their `dijkstra_by_heap`
    distance in it over the scale, w, unless an earlier copy of a portal
    z' != v has a kept edge of weight w2 to v and the new copy's weight to
    z' plus w2 is at most w. Leaf rows list each input vertex's wiring
    weights to its ancestors, root first, then 0.0. A `ChainFailure`
    anywhere hands the graph to `frt_embed` with the counts reached so far.
    """
    rows = [dijkstra_by_heap(g, u) for u in range(g.n)]
    closed = WeightedGraph(g.n, tuple((u, v, rows[u][v]) for u, v, _ in g.edges))
    scaled, scale = normalize(closed)
    hat = hat_ell(scaled)
    params = embedder.derive_params(g.n, hat, epsilon, mode)
    meta = EmbeddingMeta(
        n=g.n, seed=seed, mode=mode, params=params, fallback_used=False, scale=scale, hat_ell=hat
    )
    parent = [None] * g.n
    edges = []
    kept = [[] for _ in range(g.n)]  # (portal, weight) of each kept edge
    weight = {}  # (input vertex, copy): its wiring weight

    def embed(verts, path, above):
        meta.recursion_depth = max(meta.recursion_depth, len(path) + 1)
        if len(verts) == 1:
            return verts
        meta.split_calls += 1
        sub, _ = induced_subgraph(scaled, verts)
        result = split_by_packing(sub, params, random.Random(derive_seed(seed, "split", *path)))
        if isinstance(result, ChainFailure):
            raise _Fallback(result)
        level = result.chain.top_level
        if above is not None and 2 * sub.n > above[1] and level >= above[0]:
            raise InvariantViolation("recursion made no progress")
        meta.packing_sizes.append(len(result.cuts))
        meta.oversize_cuts += sum(len(cut) > params.tau for cut, _ in result.cuts)
        roots = []
        for k, comp in enumerate(result.components):
            roots += embed([verts[i] for i in comp], path + (k,), (level, sub.n))
        local = {x: i for i, x in enumerate(verts)}
        for z in result.portals:
            row = [d / scale for d in dijkstra_by_heap(sub, z)]
            copy = len(parent)
            parent.append(None)
            for v, w in zip(verts, row):
                weight[v, copy] = w
                if not any(row[local[zp]] + w2 <= w for zp, w2 in kept[v] if zp != v):
                    edges.append((v, copy, w))
                    kept[v].append((verts[z], w))
            for r in roots:
                parent[r] = copy
            roots = [copy]
        return roots

    try:
        embed(list(range(g.n)), (), None)
    except _Fallback as failed:
        emb = frt_embed(g, derive_seed(seed, "frt"))
        emb.meta = EmbeddingMeta(
            n=g.n, seed=seed, mode=mode, params=params, fallback_used=True,
            fallback_reason=failed.args[0], hat_ell=hat,
            recursion_depth=meta.recursion_depth, split_calls=meta.split_calls,
        )
        return emb
    leaf_rows = [[weight[x, c] for c in reversed(ancestors(parent, x))] + [0.0] for x in range(g.n)]
    host = WeightedGraph(len(parent), tuple(edges), allow_zero=True)
    return HostEmbedding(host, list(range(g.n)), parent, meta, leaf_rows)


def recording_splits(monkeypatch):
    """Record, in the returned list, each result of `embedder.split`, which
    keeps the list of (cut, components) that the split sampled from."""
    splits = []
    real_split = embedder.split

    def split(g, params, rng, top=None):
        splits.append(real_split(g, params, rng, top))
        return splits[-1]

    monkeypatch.setattr(embedder, "split", split)
    return splits


def root_split(g, epsilon, mode, seed):
    """The `prepare` record of g and the root split that
    `embed_top(g, epsilon, mode, seed)` makes: one `embedder.split` on the
    record's closure and top level, drawn from the root's stream."""
    prepared = embedder.prepare(g, epsilon, mode)
    rng = random.Random(derive_seed(seed, "split"))
    return prepared, embedder.split(prepared.scaled, prepared.params, rng, top=prepared.top_level)


def root_split_text(g, seed):
    """The root split of `embed_top(g, 0.5, seed=seed)` as text, one line per
    chain level (its cluster count and largest sizes), then the cuts the
    split sampled from, each with its member count, member levels, oversize
    flag (more than tau members) and balance margin (half the vertices less
    the largest component outside the members), and last the drawn index.
    A rescaled closure is noted first."""
    prepared, result = root_split(g, 0.5, "practical", seed)
    chain = result.chain
    lines = []
    if prepared.scale != 1.0:
        lines.append(f"# rescaled by {prepared.scale:g} so all distances exceed 1")
    for i in range(chain.top_level + 1):
        nodes = [k for k in range(len(chain.lo)) if chain.lo[k] <= i <= chain.hi[k]]
        sizes = sorted((chain.size(k) for k in nodes), reverse=True)
        lines.append(f"level {i}: {len(sizes)} clusters, sizes {sizes[:12]}")
    lines.append(f"packing size={len(result.cuts)}")
    for i, (cut, comps) in enumerate(result.cuts):
        # The members are components too; each is known by its smallest vertex.
        firsts = {min(node_members(chain, k)) for k in cut}
        margin = g.n // 2 - max((len(c) for c in comps if c[0] not in firsts), default=0)
        lines.append(
            f"  cut {i}: members={len(cut)} levels={[chain.hi[k] for k in cut]} "
            f"oversize={len(cut) > prepared.params.tau} balance_margin={margin}"
        )
    lines.append(f"sampled cut={result.index}")
    return "\n".join(lines) + "\n"
