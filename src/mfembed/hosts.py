"""Host embeddings: parameter bundle, result record, elimination forests, JSON.

The embedding JSON has a fixed field order (n, seed, mode, params,
fallback_used, host, eta, forest_parent, depth) and serializes edge lengths
with 12 significant digits, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BadEmbedding, CyclicParentArray, InvariantViolation
from .graphs import WeightedGraph

if TYPE_CHECKING:
    from .hierarchy import ChainFailure

PARAM_FIELDS = (
    "epsilon",
    "delta",
    "xi",
    "sigma",
    "tau",
    "c_fallback",
    "gamma",
    "mode",
    "xi_cap",
    "tau_cap",
)


@dataclass(frozen=True)
class Params:
    """Split-procedure parameters; `theory` keeps the raw formulas,
    `practical` caps xi and tau at desk scale."""

    epsilon: float
    delta: float
    xi: int
    sigma: float
    tau: int
    c_fallback: float
    gamma: float
    mode: str
    xi_cap: int | None
    tau_cap: int | None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @staticmethod
    def from_dict(d: dict) -> "Params":
        return Params(**{name: d[name] for name in PARAM_FIELDS})


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
    """Host graph, injective vertex map, and an elimination forest of the host."""

    host: WeightedGraph
    eta: list[int]
    forest: list[int | None]
    meta: EmbeddingMeta

    @property
    def depth(self) -> int:
        return treedepth_of(self.forest)


def treedepth_of(forest: list[int | None]) -> int:
    """Depth of a parent-array forest, counted in vertices on a root path."""
    n = len(forest)
    if n == 0:
        return 0
    depth = [0] * n
    for v in range(n):
        if depth[v]:
            continue
        trail = []
        u: int | None = v
        while u is not None and not depth[u]:
            trail.append(u)
            u = forest[u]
            if len(trail) > n:
                raise CyclicParentArray("parent array contains a cycle")
        base = depth[u] if u is not None else 0
        for back, w in enumerate(reversed(trail), start=1):
            depth[w] = base + back
    return max(depth)


def check_forest_validity(emb: HostEmbedding) -> None:
    """Every host edge must connect an ancestor with a descendant."""
    parent = emb.forest
    n = emb.host.n
    if len(parent) != n:
        raise InvariantViolation("forest size does not match host size")
    depth_sentinel = treedepth_of(parent)  # also detects cycles
    ancestors: list[set[int]] = []
    for v in range(n):
        anc = set()
        u = parent[v]
        while u is not None:
            anc.add(u)
            u = parent[u]
        ancestors.append(anc)
    for u, v, _ in emb.host.edges:
        if u not in ancestors[v] and v not in ancestors[u]:
            raise InvariantViolation(
                f"host edge ({u},{v}) joins unrelated forest vertices (depth {depth_sentinel})"
            )


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def embedding_to_dict(emb: HostEmbedding) -> dict:
    return {
        "n": emb.meta.n,
        "seed": emb.meta.seed,
        "mode": emb.meta.mode,
        "params": emb.meta.params.to_dict() if emb.meta.params else None,
        "fallback_used": emb.meta.fallback_used,
        "host": {
            "n": emb.host.n,
            "edges": [[u, v, _round12(w)] for u, v, w in emb.host.edges],
        },
        "eta": list(emb.eta),
        "forest_parent": list(emb.forest),
        "depth": emb.depth,
    }


def embedding_to_json(emb: HostEmbedding) -> str:
    return json.dumps(embedding_to_dict(emb), indent=1)


def save_embedding(emb: HostEmbedding, path: str | Path) -> None:
    Path(path).write_text(embedding_to_json(emb) + "\n", encoding="utf-8")


def embedding_from_dict(d: dict) -> HostEmbedding:
    """Inverse of `embedding_to_dict`; raises BadEmbedding on anything that
    is not one host embedding."""
    if not isinstance(d, dict):
        raise BadEmbedding(f"expected one embedding object, got a JSON {type(d).__name__}")
    fields = ("n", "seed", "mode", "fallback_used", "host", "eta", "forest_parent")
    missing = [name for name in fields if name not in d]
    if missing:
        raise BadEmbedding(f"embedding lacks field(s) {', '.join(missing)}")
    try:
        host = WeightedGraph(
            d["host"]["n"],
            tuple((u, v, w) for u, v, w in d["host"]["edges"]),
            allow_zero=True,
        )
        params = Params.from_dict(d["params"]) if d.get("params") else None
    except (KeyError, TypeError, ValueError, InvariantViolation) as exc:
        raise BadEmbedding(f"bad host graph or params: {exc!r}") from exc
    eta, forest = d["eta"], d["forest_parent"]
    if not isinstance(eta, list) or any(not isinstance(x, int) or not 0 <= x < host.n for x in eta):
        raise BadEmbedding(f"eta must list host vertices in 0..{host.n - 1}")
    if not isinstance(forest, list) or len(forest) != host.n:
        raise BadEmbedding(f"forest_parent must list one parent per host vertex ({host.n})")
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
