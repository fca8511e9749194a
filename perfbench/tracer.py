"""Outside-in tracer: spans around calls into mfembed's layers.

The library is not edited. Each module imports its helpers by name
(``from .graphs import dijkstra``), so a distance call made from
``partition`` goes through ``partition.dijkstra``, not ``graphs.dijkstra``.
The tracer therefore replaces every binding on its own and names each span
after the layer that made the call; ``close`` puts the original objects
back.

A span records its name, start, end and parent. Self time is a span's
duration minus the time its child spans cover. Time in a ``graphs.*`` span
(a shared utility layer) is charged to the nearest enclosing span of another
layer, so the per-layer totals say which layer caused the distance work.
"""

from __future__ import annotations

import math
from time import perf_counter

INF = math.inf


def _settled(tracer, name, args, result):
    tracer.count(name + ".settled", len(result) - result.count(INF))


def _chain_failure(tracer, name, args, result):
    if type(result).__name__ == "ChainFailure":
        tracer.count("hierarchy.chain_failures", 1)


def _kept_cuts(tracer, name, args, result):
    tracer.count("cutpack.kept_cuts", len(result.cuts))


def _quotient_vertices(tracer, name, args, result):
    tracer.count("cutpack.quotient_vertices", result.n)


def _json_bytes(tracer, name, args, result):
    tracer.count("hosts.json_bytes", len(result.encode("utf-8")))


# (module, attribute, span name, hook run on the result). A dotted attribute
# names a method on a class of that module. Bindings a later version of the
# library no longer has are skipped, and their metrics read 0.
BINDINGS = (
    ("graphs", "dijkstra", "graphs.dijkstra", _settled),
    ("graphs", "all_pairs", "graphs.all_pairs", None),
    ("graphs", "UnweightedGraph.hop_diameter", "graphs.hop_diameter", None),
    ("embedder", "embed_top", "embedder.embed_top", None),
    ("embedder", "metric_closure_weights", "embedder.preprocess", None),
    ("embedder", "normalize", "embedder.preprocess", None),
    ("embedder", "hat_ell", "embedder.preprocess", None),
    ("embedder", "split", "embedder.split", None),
    ("embedder", "dijkstra", "embedder.portal_dijkstra", _settled),
    ("embedder", "all_pairs", "embedder.all_pairs", None),
    ("embedder", "_EmbedState._check_progress", "embedder.progress_check", None),
    ("embedder", "build_chain", "hierarchy.build_chain", _chain_failure),
    ("embedder", "build_cut_packing", "cutpack.build_cut_packing", _kept_cuts),
    ("embedder", "frt_embed", "frt.frt_embed", None),
    ("hierarchy", "all_pairs", "hierarchy.all_pairs", None),
    ("hierarchy", "dijkstra", "hierarchy.goodness_dijkstra", _settled),
    ("hierarchy", "_check_goodness", "hierarchy.goodness", None),
    ("hierarchy", "quotient", "hierarchy.quotient", None),
    ("hierarchy", "single_level_partition", "partition.single_level_partition", None),
    ("partition", "dijkstra", "partition.carve_dijkstra", _settled),
    ("partition", "diameter", "partition.diameter", None),
    ("cutpack", "find_balanced_cut", "cutpack.find_balanced_cut", None),
    ("cutpack", "maximal_free_clusters", "cutpack.maximal_free_clusters", None),
    ("cutpack", "quotient", "cutpack.quotient", _quotient_vertices),
    ("cutpack", "heuristic_tree_decomposition", "cutpack.heuristic_tree_decomposition", None),
    ("cutpack", "centroid_bag", "cutpack.centroid_bag", None),
    ("cutpack", "is_balanced", "cutpack.is_balanced", None),
    ("frt", "all_pairs", "frt.all_pairs", None),
    ("harness", "embed_top", "embedder.embed_top", None),
    ("harness", "frt_embed", "frt.frt_embed", None),
    ("harness", "evaluate", "harness.evaluate", None),
    ("harness", "dijkstra", None, _settled),  # named per call: host or graph
    ("harness", "sample_pairs", "harness.sample_pairs", None),
    ("harness", "aggregate_records", "harness.aggregate_records", None),
    ("hosts", "embedding_to_json", "hosts.embedding_to_json", _json_bytes),
    ("hosts", "treedepth_of", "hosts.treedepth_of", None),
)


class Tracer:
    """Installs span wrappers on the library's bindings until closed.

    `graph` is the workload's input graph; Dijkstra calls from the harness
    on that object are graph distances, on anything else host distances.
    Totals are kept per window (`start_window` .. `end_window`). Spans are
    kept for `write_spans` while `keep_spans` is true.
    """

    def __init__(self, modules: dict, graph) -> None:
        self.graph = graph
        self.spans: list[tuple[str, int, float, float]] = []
        self.keep_spans = True
        self._stack: list[list] = []
        self._totals: dict[str, list[float]] = {}
        self._counts: dict[str, int] = {}
        self._layers: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        for module_name, attr, name, hook in BINDINGS:
            owner = modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if name is None:
                name = self._harness_dijkstra_name
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))

    def _harness_dijkstra_name(self, args) -> str:
        return "harness.graph_dijkstra" if args[0] is self.graph else "harness.host_dijkstra"

    def _wrap(self, original, name, hook):
        tracer = self
        stack, spans = self._stack, self.spans
        totals, layers = self._totals, self._layers
        dynamic = not isinstance(name, str)
        own_layer = "harness" if dynamic else name.split(".", 1)[0]
        inherit = own_layer == "graphs"

        def traced(*args, **kwargs):
            span_name = name(args) if dynamic else name
            parent = stack[-1] if stack else None
            layer = parent[1] if inherit and parent is not None else own_layer
            own_id = -1
            if tracer.keep_spans:
                own_id = len(spans)
                spans.append(None)
            frame = [0.0, layer, own_id]  # seconds in child spans, charged layer, span id
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                total = totals.get(span_name)
                if total is None:
                    total = totals[span_name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += own
                layers[layer] = layers.get(layer, 0.0) + own
                if own_id >= 0:
                    spans[own_id] = (span_name, parent[2] if parent else -1, start, end)
            if hook is not None:
                hook(tracer, span_name, args, result)
            return result

        return traced

    def count(self, name: str, amount: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def start_window(self) -> None:
        self._totals.clear()
        self._counts.clear()
        self._layers.clear()

    def end_window(self) -> dict:
        """Totals since `start_window`: calls, seconds, self seconds, counts."""
        return {
            "spans": {k: tuple(v) for k, v in self._totals.items()},
            "counts": dict(self._counts),
            "layers": dict(self._layers),
        }

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, parent_id, start, end = span
                    fh.write(f"{i},{parent_id},{name},{start:.9f},{end:.9f}\n")

    def close(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
