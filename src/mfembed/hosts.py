"""Host embeddings: parameter bundle, result record, elimination forests, JSON.

The embedding JSON has a fixed field order (n, seed, mode, params,
fallback_used, host, eta, forest_parent, depth) and serializes edge lengths
with 12 significant digits, so identical runs produce identical bytes. One
writer prints it: the small head goes through `json.dumps(indent=1)`, each
host edge is one f-string and each id list one join. The text equals what
`json.dumps(indent=1)` prints of the whole object, without the stdlib's
pure-Python encoder, which any `indent` selects. `save_embedding` and
`save_components` stream the pieces to the file.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import BadEmbedding, CyclicParentArray, InvariantViolation
from .graphs import INF, WeightedGraph, settle

if TYPE_CHECKING:
    from .hierarchy import ChainFailure


@dataclass(frozen=True)
class Params:
    """Split-procedure parameters; `theory` keeps the raw formulas,
    `practical` caps xi and tau at desk scale. `c_fallback` and `tau_cap`
    record the fixed constant C and tau cap that `derive_params` used.
    `sigma` (and the lambda inside xi) is taken at L = hat_ell levels; each
    chain checks its quotients against the sigma of its own top level."""

    epsilon: float
    delta: float
    xi: int
    sigma: float
    tau: int
    c_fallback: float
    mode: str
    xi_cap: int | None
    tau_cap: int | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "Params":
        return Params(**{f.name: d[f.name] for f in fields(Params)})


@dataclass
class EmbeddingMeta:
    """Provenance: how the embedding was produced."""

    n: int
    seed: int
    mode: str
    params: Params | None
    fallback_used: bool
    scale: float = 1.0
    hat_ell: int = 0
    packing_sizes: list[int] = field(default_factory=list)
    oversize_cuts: int = 0
    recursion_depth: int = 0
    split_calls: int = 0
    fallback_reason: ChainFailure | None = None


@dataclass
class HostEmbedding:
    """Host graph, injective vertex map, and an elimination forest of the host.

    `leaf_rows`, set only by `embed_top(..., leaf_rows=True)`, holds each
    input vertex's labels in the layout of `ForestLabels.labels`, taken from
    the portal rows that wired the host. It is never written to JSON.
    """

    host: WeightedGraph
    eta: list[int]
    forest: list[int | None]
    meta: EmbeddingMeta
    leaf_rows: list[list[float]] | None = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return treedepth_of(self.forest)


def treedepth_of(forest: list[int | None]) -> int:
    """Depth of a parent-array forest, counted in vertices on a root path."""
    order, _, _ = _euler_tour(forest)
    depth = [0] * len(forest)
    for v in order:
        p = forest[v]
        depth[v] = 1 if p is None else depth[p] + 1
    return max(depth, default=0)


def _euler_tour(parent: list[int | None]) -> tuple[list[int], list[int], list[int]]:
    """Preorder of a parent-array forest, with each vertex's entry and exit time.

    subtree(a) is every v with tin[a] <= tin[v] < tout[a]. A parent that is
    not a vertex is an InvariantViolation; a vertex no root reaches means a
    cycle (CyclicParentArray).
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v, p in enumerate(parent):
        if p is None:
            roots.append(v)
        elif isinstance(p, int) and 0 <= p < n:
            children[p].append(v)
        else:
            raise InvariantViolation(f"forest parent {p!r} of {v} is not a vertex")
    order: list[int] = []
    tin = [0] * n
    tout = [0] * n
    stack = roots[::-1]
    while stack:
        v = stack.pop()
        if v < 0:
            tout[~v] = len(order)
            continue
        tin[v] = len(order)
        order.append(v)
        stack.append(~v)
        stack.extend(reversed(children[v]))
    if len(order) != n:
        raise CyclicParentArray("parent array contains a cycle")
    return order, tin, tout


def check_forest_validity(emb: HostEmbedding) -> tuple[list[int], list[int], list[int]]:
    """Every host edge must connect an ancestor with a descendant.

    O(n + m) by Euler-tour intervals; returns the tour (preorder, tin, tout).
    """
    if len(emb.forest) != emb.host.n:
        raise InvariantViolation("forest size does not match host size")
    order, tin, tout = _euler_tour(emb.forest)
    for u, v, _ in emb.host.edges:
        if not (tin[u] <= tin[v] < tout[u] or tin[v] <= tin[u] < tout[v]):
            raise InvariantViolation(f"host edge ({u},{v}) joins unrelated forest vertices")
    return order, tin, tout


class ForestLabels:
    """Exact host distances from the elimination forest.

    Every host edge joins an ancestor and a descendant, so a shortest x-y path
    stays inside subtree(a) for its shallowest vertex a, a common ancestor of
    x and y. Hence d_H(x, y) = min over common ancestors a of r_a(x) + r_a(y),
    where r_a is the distance from a inside the subgraph subtree(a) induces.

    Vertices are renamed to their preorder ids (`tin`). `labels[i]` holds r_a
    of vertex i for each ancestor a of i and i itself, root first, INF where
    subtree(a) does not reach i; `ends[i]` holds their negated exit times,
    so the longest of them gives `depth`, the forest's depth in vertices.
    Building takes one Dijkstra per host vertex, limited to its subtree,
    n_H x depth entries in all; a query takes O(depth) and goes through
    `eta`, the input vertices' host vertices. The forest is checked first.

    When `emb.leaf_rows` is set, the labels of the input vertices alone are
    taken from it, one row per vertex in `eta` order (n x depth entries),
    and no Dijkstra runs; `labels` is None at every other host vertex. The
    embedder's rows are its full wiring's weights. No label of the pruned
    host exceeds them, and a dropped edge's detour can round lower: by at
    most 1e-15 relative on the grids measured, 2.4e-15 on fractional paths
    and cycles. So a distance read from the rows is the full wiring's, never
    below the one read from labels built on the host.

    A host that is its own forest (`forest_shaped`: each non-root vertex has
    exactly one host edge, to its forest parent, as in FRT trees and the HST
    fallback) skips the Dijkstra runs. Each label is its parent's label plus
    the parent edge, entry by entry, then 0.0, the very additions a Dijkstra
    run makes in a tree. Vertices whose parents share a row and whose parent
    edges are equal share one list, so an FRT tree, whose edge lengths
    depend on the level alone, holds one row per depth. Entries start at
    +0.0 and add lengths of at least zero, so none is -0.0, and a 0.0 and a
    -0.0 edge give the same row. A query reads the deepest common ancestor
    l alone: float rounding is monotone and lengths are nonnegative, so
    r_a(x) >= r_l(x) for every common ancestor a above l, and the sum at l
    is the minimum bit for bit.
    """

    __slots__ = ("tin", "ends", "depth", "labels", "eta", "forest_shaped")

    def __init__(self, emb: HostEmbedding) -> None:
        leaf_rows = emb.leaf_rows
        order, tin, tout = check_forest_validity(emb)
        n = len(order)
        forest = emb.forest
        ends: list[tuple[int, ...]] = [()] * n
        for a, u in enumerate(order):
            p = forest[u]
            ends[a] = (ends[tin[p]] if p is not None else ()) + (-tout[u],)
        up = None if leaf_rows is not None else _parent_lengths(emb)
        self.forest_shaped = up is not None
        if leaf_rows is not None:
            if len(leaf_rows) != len(emb.eta):
                raise InvariantViolation("leaf rows do not match eta")
            labels = [None] * n
            for x, row in zip(emb.eta, leaf_rows):
                i = tin[x]
                if len(row) != len(ends[i]):
                    raise InvariantViolation(f"vertex {x}: leaf row does not fit its ancestors")
                labels[i] = row
            self.labels = labels
        elif up is None:
            self.labels = _subtree_labels(emb.host.edges, tin, ends)
        else:
            labels: list[list[float]] = []
            # one row per (parent row, parent edge), keyed by the row's id:
            # every row stays alive in `labels`, so no id is reused
            shared: dict[tuple[int, float], list[float]] = {}
            root: list[float] = []
            for u in order:
                p = forest[u]
                above = root if p is None else labels[tin[p]]
                w = up[u]
                row = shared.get((id(above), w))
                if row is None:
                    # sized exactly, as the Dijkstra build sizes its rows
                    row = above + [0.0]
                    row[:-1] = [x + w for x in above]
                    shared[id(above), w] = row
                labels.append(row)
            self.labels = labels
        self.tin = tin
        self.ends = ends
        self.depth = max(map(len, ends), default=0)
        self.eta = emb.eta

    def distances(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """d_H(eta(u), eta(v)) for each pair (u, v) of input vertices, in
        pair order."""
        ids = [self.tin[x] for x in self.eta]
        rows = [self.labels[i] for i in ids]
        exits = [self.ends[i] for i in ids]
        deepest_only = self.forest_shaped
        out = []
        for u, v in pairs:
            y = ids[v]
            if ids[u] > y:
                u, v = v, u
                y = ids[v]
            # u's ancestors start at or before v; those containing v end
            # after it. With none in common, u and v lie in different trees.
            k = bisect_left(exits[u], -y)
            if not k:
                out.append(INF)
            elif deepest_only:
                out.append(rows[u][k - 1] + rows[v][k - 1])
            else:
                out.append(min(map(add, rows[u][:k], rows[v])))
        return out


def _parent_lengths(emb: HostEmbedding) -> list[float] | None:
    """Each host vertex's parent edge length (0.0 at a root) when the host is
    its own forest, else None.

    Host edges are distinct pairs, so when every edge joins a vertex and its
    forest parent and there are as many edges as non-root vertices, each
    non-root vertex has exactly one.
    """
    forest = emb.forest
    edges = emb.host.edges
    if len(edges) != len(forest) - forest.count(None):
        return None
    up = [0.0] * len(forest)
    for u, v, w in edges:
        if forest[v] == u:
            up[v] = w
        elif forest[u] == v:
            up[u] = w
        else:
            return None
    return up


def _subtree_labels(
    edges: tuple[tuple[int, int, float], ...], tin: list[int], ends: list[tuple[int, ...]]
) -> list[list[float]]:
    """`ForestLabels.labels` by one Dijkstra run per host vertex, limited to
    its subtree.

    Each edge is filed under its ancestor end, the smaller preorder id.
    Vertices join from the last id down, and a joining vertex brings the
    edges filed under it. In preorder ids subtree(a) is a .. end[a] - 1, and
    no vertex above end[a] - 1 is an ancestor or a descendant of one in it;
    so among the joined vertices a .. n - 1, the run from a stays in
    subtree(a) with no mask.
    """
    n = len(tin)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        x, y = tin[u], tin[v]
        if x < y:
            adj[x].append((y, w))
        else:
            adj[y].append((x, w))
    labels = [[INF] * len(e) for e in ends]
    dist = [INF] * n
    for a in range(n - 1, -1, -1):
        for d, w in adj[a]:
            adj[d].append((a, w))
        level = len(ends[a]) - 1
        for u in settle(adj, a, dist):
            labels[u][level] = dist[u]
            dist[u] = INF
    return labels


# Host edges go out in batches of this many, so that `save_embedding` holds
# one batch of text at a time.
_EDGE_BATCH = 4096


def _int_list(items: list[int | None]) -> str:
    """A list of ints and nulls as `json.dumps(..., indent=1)` prints it as
    a top-level field."""
    if not items:
        return "[]"
    body = ",\n  ".join(["null" if x is None else str(x) for x in items])
    return f"[\n  {body}\n ]"


def _length_text(w: float) -> str:
    """`repr(float(f"{w:.12g}"))` without the float: two decimals of at most
    12 significant digits never round to the same double, so in fixed
    notation repr prints the same digits, with ".0" when there is no point.
    An exponent, inf or nan goes through the float."""
    text = f"{w:.12g}"
    if "e" in text or "n" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


def _json_chunks(
    emb: HostEmbedding, depth: int, vertices: list[int] | None = None
) -> Iterator[str]:
    """The embedding's JSON text in pieces, byte for byte what
    `json.dumps(..., indent=1)` prints of its fields in their fixed order;
    `depth` is `emb.depth`, measured by the caller.

    Each edge is one f-string: its length is `float.__repr__` of the length
    rounded to 12 significant digits (see `_length_text`), which is what
    json prints of that float. `vertices`, when given, follows `depth` as
    one more field.
    """
    meta = emb.meta
    head = json.dumps(
        {
            "n": meta.n,
            "seed": meta.seed,
            "mode": meta.mode,
            "params": meta.params.to_dict() if meta.params else None,
            "fallback_used": meta.fallback_used,
        },
        indent=1,
    )
    edges = emb.host.edges
    yield f'{head[:-2]},\n "host": {{\n  "n": {emb.host.n},\n  "edges": '
    for i in range(0, len(edges), _EDGE_BATCH):
        text = ",\n".join(
            [
                f"   [\n    {u},\n    {v},\n    {_length_text(w)}\n   ]"
                for u, v, w in edges[i : i + _EDGE_BATCH]
            ]
        )
        yield (",\n" if i else "[\n") + text
    yield "\n  ]" if edges else "[]"
    yield f'\n }},\n "eta": {_int_list(emb.eta)},\n "forest_parent": '
    yield f'{_int_list(emb.forest)},\n "depth": {depth}'
    if vertices is not None:
        yield f',\n "vertices": {_int_list(vertices)}'
    yield "\n}"


def embedding_to_json(emb: HostEmbedding) -> str:
    return "".join(_json_chunks(emb, emb.depth))


def save_embedding(emb: HostEmbedding, path: str | Path) -> int:
    """Write the embedding's JSON text; returns the depth it wrote."""
    depth = emb.depth
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(emb, depth))
        fh.write("\n")
    return depth


def save_components(parts: list[tuple[HostEmbedding, list[int]]], path: str | Path) -> None:
    """Write one embedding per component as a JSON array; each block carries
    the component's input vertex ids as `vertices`, after `depth`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for k, (emb, vertices) in enumerate(parts):
            fh.write(",\n " if k else "\n ")
            # json escapes a newline inside a string, so each one here starts
            # a line, which the array indents by one more space.
            fh.writelines(c.replace("\n", "\n ") for c in _json_chunks(emb, emb.depth, vertices))
        fh.write("\n]\n")


def _is_id(x: object) -> bool:
    """A vertex id or count: an int, and not a bool (json's true is 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_length(x: object) -> bool:
    """An edge length: an int or a float, and not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def embedding_from_dict(d: dict) -> HostEmbedding:
    """The embedding that `json.loads` of `embedding_to_json`'s text
    describes; raises BadEmbedding on anything that is not one host
    embedding."""
    if not isinstance(d, dict):
        raise BadEmbedding(f"expected one embedding object, got a JSON {type(d).__name__}")
    fields = ("n", "seed", "mode", "fallback_used", "host", "eta", "forest_parent")
    missing = [name for name in fields if name not in d]
    if missing:
        raise BadEmbedding(f"embedding lacks field(s) {', '.join(missing)}")
    try:
        n_host = d["host"]["n"]
        edges = tuple((u, v, w) for u, v, w in d["host"]["edges"])
        if not _is_id(n_host) or not all(
            _is_id(u) and _is_id(v) and _is_length(w) for u, v, w in edges
        ):
            raise BadEmbedding("host n and edge endpoints must be integers, lengths numbers")
        host = WeightedGraph(n_host, edges, allow_zero=True)
        params = Params.from_dict(d["params"]) if d.get("params") else None
    except (KeyError, TypeError, ValueError, InvariantViolation) as exc:
        raise BadEmbedding(f"bad host graph or params: {exc!r}") from exc
    eta, forest = d["eta"], d["forest_parent"]
    if not isinstance(eta, list) or any(not _is_id(x) or not 0 <= x < host.n for x in eta):
        raise BadEmbedding(f"eta must list host vertices in 0..{host.n - 1}")
    if len(set(eta)) != len(eta):
        raise BadEmbedding("eta must send distinct input vertices to distinct host vertices")
    if not isinstance(forest, list) or len(forest) != host.n:
        raise BadEmbedding(f"forest_parent must list one parent per host vertex ({host.n})")
    if any(p is not None and (not _is_id(p) or not 0 <= p < host.n) for p in forest):
        raise BadEmbedding(f"forest_parent entries must be null or host vertices in 0..{host.n - 1}")
    meta = EmbeddingMeta(
        n=d["n"],
        seed=d["seed"],
        mode=d["mode"],
        params=params,
        fallback_used=d["fallback_used"],
    )
    return HostEmbedding(host=host, eta=list(eta), forest=list(forest), meta=meta)


def load_embedding(path: str | Path) -> HostEmbedding:
    return embedding_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
