"""Monte-Carlo distortion evaluation and experiment orchestration.

Distortion is estimated per pair (mean host/graph ratio across runs) and
then maximized over pairs; the per-pair view matches the guarantee being
measured. Non-contraction is checked with a 1e-9 relative tolerance, the
numerical reading of an exact invariant.

`run_experiment` answers its embedder hosts' pairs from the leaf rows the
embedder kept while wiring them (n x depth entries, no Dijkstra run), and
its FRT trees and HST fallbacks, like `evaluate`, from `ForestLabels`
built on the host (n_H x depth entries). Graph distances take one search
per first vertex, stopped at its last target.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import reduce
from itertools import groupby, repeat
from operator import add, itemgetter, lt, mul, truediv
from pathlib import Path

from .embedder import check_settings, embed_top, prepare
from .errors import InvariantViolation, PairOutOfRange, PreconditionViolation
from .frt import frt_embed, top_level
from .graphs import INF, WeightedGraph, search_to
from .hosts import ForestLabels, HostEmbedding
from .rng import derive_seed

SCHEMA_VERSION = 1
RATIO_TOLERANCE = 1e-9


def evaluate(
    g: WeightedGraph, emb: HostEmbedding, pairs: list[tuple[int, int]]
) -> tuple[list[float], list[float]]:
    """Exact graph and host distances of the pairs, as two lists in pair order.

    Host distances come from the forest's distance labels (`ForestLabels`:
    the embedder's leaf rows when `emb` carries them, else built on the
    host, n_H x depth entries), which check the forest before any graph
    search runs. A pair that the host leaves unconnected (in two trees of
    the forest) is an InvariantViolation that names it.
    """
    if len(emb.eta) != g.n:
        raise PreconditionViolation(
            f"embedding maps {len(emb.eta)} vertices but the graph has {g.n}"
        )
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise PairOutOfRange(f"bad pair ({u},{v})")
    labels = ForestLabels(emb)
    dist_h = labels.distances(pairs)
    if INF in dist_h:
        u, v = pairs[dist_h.index(INF)]
        raise InvariantViolation(f"the host does not connect pair ({u},{v})")
    return _pair_distances(g, pairs), dist_h


def _pair_distances(g: WeightedGraph, pairs: list[tuple[int, int]]) -> list[float]:
    """d(u, v) in `g` for each pair, holding one distance row.

    Each block of consecutive pairs with one u gets one search from u, which
    stops once every v of the block is final (`search_to`), so pairs grouped
    by u (as `sample_pairs` returns them) cost one search per distinct u.
    """
    out: list[float] = []
    for u, block in groupby(pairs, itemgetter(0)):
        targets = [v for _, v in block]
        row = [INF] * g.n
        search_to(g, u, row, targets)
        out += map(row.__getitem__, targets)
    return out


@dataclass
class ExperimentConfig:
    """What to run: instance, embedding settings, replication, sampling."""

    epsilon: float
    mode: str
    runs: int
    pairs: int | str  # count or "all"
    seed: int
    baseline: str = "none"  # "none" | "frt"
    instance_label: str = ""
    xi_cap: int | None = None

    def to_dict(self) -> dict:
        out = {"instance": self.instance_label}
        for f in fields(self):
            if f.name != "instance_label":
                out[f.name] = getattr(self, f.name)
        return out


def sample_pairs(n: int, count: int | str, seed: int) -> list[tuple[int, int]]:
    """Unordered pairs, uniform without replacement, from the master seed.

    Samples indices into the lexicographic list of all pairs and decodes
    them, so a sample of k pairs takes O(k) memory.
    """
    _check_pair_count(count)
    total = n * (n - 1) // 2
    if count == "all" or count >= total:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = random.Random(derive_seed(seed, "pairs"))
    return sorted(_pair_at(n, total, i) for i in rng.sample(range(total), count))


def _check_pair_count(count: int | str) -> None:
    if count != "all" and not (isinstance(count, int) and count >= 1):
        raise PreconditionViolation("pair sample size must be >= 1 or 'all'")


def _pair_at(n: int, total: int, index: int) -> tuple[int, int]:
    """The index-th pair (u < v) in lexicographic order."""
    # Counted from the end, rows u = n-2, n-3, ... hold 1, 2, ... pairs.
    back = total - 1 - index
    u = n - 2 - (math.isqrt(8 * back + 1) - 1) // 2
    return u, index - u * (2 * n - u - 1) // 2 + u + 1


def aggregate_records(
    pairs: list[tuple[int, int]], dist_g: list[float], runs: Iterable[list[float]]
) -> dict:
    """The report's distortion block from the graph distances and each run's host distances.

    `runs` yields one list of host distances per run, in pair order. Each is
    folded into per-pair sums and maxima as it arrives, so only one run's
    list is held at a time, and each ratio is divided once. Every float sum
    is a plain left fold from 0.0 in run order, as `sum` adds floats before
    CPython 3.12, which compensates them: the report's bytes must not depend
    on the interpreter.
    """
    # A violation is a host distance below its pair's floor.
    floors = list(map(mul, dist_g, repeat(1.0 - RATIO_TOLERANCE)))
    count = violations = 0
    total = 0.0
    dist_sums = ratio_sums = peaks = ()
    for run_h in runs:
        count += 1
        violations += sum(map(lt, run_h, floors))
        ratios = list(map(truediv, run_h, dist_g))
        # Run-major, pairs in order within a run: a float sum depends on the
        # order of its terms, and the report's bytes must not.
        total = reduce(add, ratios, total)
        if count == 1:
            # 0.0 + x is x: the first run starts the sums and the maxima.
            dist_sums, ratio_sums, peaks = run_h, ratios, ratios
        else:
            dist_sums = list(map(add, dist_sums, run_h))
            ratio_sums = list(map(add, ratio_sums, ratios))
            peaks = [r if r > p else p for p, r in zip(peaks, ratios)]
    del floors  # freed before the per-pair rows, where the block peaks
    per_pair = [
        {
            "u": u,
            "v": v,
            "dist_g": d_g,
            "mean_dist_h": h_sum / count,
            "mean_ratio": ratio_sum / count,
            "max_ratio": peak,
        }
        for (u, v), d_g, h_sum, ratio_sum, peak in zip(pairs, dist_g, dist_sums, ratio_sums, peaks)
    ]
    return {
        "per_pair": per_pair,
        # dividing by a positive count keeps the order of the sums
        "max_mean_ratio": max(ratio_sums) / count if per_pair else None,
        "global_mean_ratio": total / (len(pairs) * count) if per_pair else None,
        "max_single_run_ratio": max(peaks) if per_pair else None,
        "violations": violations,
    }


def run_experiment(g: WeightedGraph, config: ExperimentConfig) -> dict:
    """R independent embeddings with derived seeds; returns the report dict.

    Every setting, the pair count too, and that g is connected, are checked
    before any pair is sampled or measured: `embedder.prepare` is the gate
    that refuses a disconnected graph, and its record of what no seed
    changes is made once, before the pairs, and handed to every run. So is
    FRT's top level for the baseline, which also spares each FRT run its
    connectivity walk.
    """
    if config.runs < 1:
        raise PreconditionViolation("need at least one run")
    if config.baseline not in ("none", "frt"):
        raise PreconditionViolation(f"unknown baseline {config.baseline!r}")
    _check_pair_count(config.pairs)
    check_settings(config.epsilon, config.mode, config.xi_cap)
    # `embed_top` and `frt_embed` answer a graph of one vertex without them.
    prepared = frt_top = None
    if g.n > 1:
        prepared = prepare(g, config.epsilon, config.mode, xi_cap=config.xi_cap)
        if config.baseline == "frt":
            frt_top = top_level(g, g.min_edge_length())
    pairs = sample_pairs(g.n, config.pairs, config.seed)
    dist_g = _pair_distances(g, pairs)
    structural = []
    base_structural = []
    timings = []

    def embedder_runs(prepared):
        for run in range(config.runs):
            run_seed = derive_seed(config.seed, "run", run)
            t0 = time.perf_counter()
            emb = embed_top(
                g,
                config.epsilon,
                config.mode,
                run_seed,
                xi_cap=config.xi_cap,
                leaf_rows=True,
                prepared=prepared,
            )
            # a fallback's HST comes without rows and builds its labels
            labels = ForestLabels(emb)
            dist_h = labels.distances(pairs)
            timings.append(time.perf_counter() - t0)
            structural.append(
                {
                    "seed": run_seed,
                    "treedepth": labels.depth,
                    "host_vertices": emb.host.n,
                    "host_edges": emb.host.m,
                    "fallback": emb.meta.fallback_used,
                    "packing_sizes": list(emb.meta.packing_sizes),
                    "oversize_cuts": emb.meta.oversize_cuts,
                    "recursion_depth": emb.meta.recursion_depth,
                }
            )
            # the next run builds while this frame waits at the yield
            del emb, labels
            yield dist_h

    def frt_runs():
        for run in range(config.runs):
            run_seed = derive_seed(config.seed, "frt", run)
            emb = frt_embed(g, run_seed, top=frt_top)
            labels = ForestLabels(emb)
            base_structural.append(
                {"seed": run_seed, "treedepth": labels.depth, "host_vertices": emb.host.n}
            )
            dist_h = labels.distances(pairs)
            del emb, labels
            yield dist_h

    started = time.perf_counter()
    # Only the runs hold the record, so it goes with their frame after the
    # last run, before the per-pair rows, where the block peaks.
    runs = embedder_runs(prepared)
    del prepared
    distortion = aggregate_records(pairs, dist_g, runs)
    baseline_block = None
    if config.baseline == "frt":
        baseline_block = {
            "distortion": aggregate_records(pairs, dist_g, frt_runs()),
            "structural": {"per_run": base_structural},
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "n": g.n,
        "pairs": [[u, v] for u, v in pairs],
        "distortion": distortion,
        "structural": {
            "per_run": structural,
            "fallback_rate": sum(s["fallback"] for s in structural) / config.runs,
            "mean_treedepth": sum(s["treedepth"] for s in structural) / config.runs,
        },
        "baseline": baseline_block,
        "timing": {
            "total_s": time.perf_counter() - started,
            "per_run_s": timings,
        },
    }


def emit(report: dict, fmt: str, path: str | Path) -> None:
    """Write the report: JSON holds everything, CSV the per-pair table.

    Both are streamed to the file; `json.dumps` of an all-pairs report would
    first hold every piece of its text in one list, about 1.5 KB per pair.
    """
    if fmt not in ("json", "csv"):
        raise PreconditionViolation(f"unknown format {fmt!r}")
    with Path(path).open("w", encoding="utf-8") as fh:
        if fmt == "json":
            # a strict parser refuses NaN and Infinity, so none is written
            json.dump(report, fh, indent=1, allow_nan=False)
            fh.write("\n")
            return
        fh.write("u,v,dist_g,mean_dist_h,mean_ratio,max_ratio\n")
        for row in report["distortion"]["per_pair"]:
            fh.write(
                f'{row["u"]},{row["v"]},{row["dist_g"]!r},{row["mean_dist_h"]!r},'
                f'{row["mean_ratio"]!r},{row["max_ratio"]!r}\n'
            )
