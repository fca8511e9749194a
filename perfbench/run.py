"""mfembed benchmark: closed-loop workloads through the library's public entry points.

    python3 perfbench/run.py --workload embed-grid20 --seed 1 --seconds 20 --trace 0

Each workload is one caller on one thread: a job starts when the previous one
ends. A job is what one CLI call does: `mfembed embed` (`embed_top`, then
`embedding_to_json`) or `mfembed experiment` (`run_experiment` with the FRT
baseline). The seed fixes the instance and the job list. The run times every
job once, then repeats the whole list while another round fits in
`--seconds`. Times are reported at a reference host speed (`hostspeed.py`).
Every output is checked after the timed rounds (`check.py`).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the rounds run under the outside-in
tracer (`tracer.py`) and the object carries the per-layer metrics. Exit code
0 means every check passed, 1 that some output was wrong (the JSON is still
printed), 2 that the library could not be loaded from this checkout.
`--workload all` runs each workload in its own process and ends with a table
of every metric by workload, name and unit; its exit code is the worst one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import tracer as tracing
from hostspeed import NEAREST, REFERENCE_S, HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

EPSILON = 0.5
SETUP_REPEATS = 5
MODULES = ("graphs", "generators", "partition", "hierarchy", "cutpack", "embedder", "frt",
           "hosts", "harness")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: dict  # generate() keywords apart from the weight seed
    jobs: int  # embeddings, or experiments when runs > 0, in one round
    runs: int = 0
    pairs: int | str = "all"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embed-grid20",
            "build-and-write path of mfembed embed, no distance queries; cut packing "
            "(centroid bag, tree decomposition) carries half the time",
            dict(kind="grid", rows=20, cols=20, weights="uniform:1:4"),
            jobs=10,
        ),
        Workload(
            "experiment-cycle512-sampled",
            "long diameter gives deep chains and cheap cut packing; exercises chain "
            "distance passes and sample_pairs with 200 of 130816 pairs",
            dict(kind="cycle", size=512, weights="unit"),
            jobs=3,
            runs=4,
            pairs=200,
        ),
        Workload(
            "experiment-grid16-allpairs",
            "query-heavy read path: host Dijkstra for all 32640 pairs is about half "
            "the time, so host distance queries show here",
            dict(kind="grid", rows=16, cols=16, weights="uniform:1:4"),
            jobs=3,
            runs=4,
            pairs="all",
        ),
    )
}

# name, unit, better. Quality metrics are deterministic for a seed.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("embed_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("src_max_mean_ratio", "ratio", "lower"),
    ("mean_treedepth", "vertices", "lower"),
    ("mean_host_edges", "edges", "lower"),
    ("no_fallback_rate", "fraction", "higher"),
    ("ok_frac", "fraction", "higher"),
)

# name, unit, better, source. Values are per job (one embedding or one
# experiment). Sources: ("calls"|"s"|"self_s", span), ("count", counter),
# ("layer", layer) for the self time charged to a layer, or a special name.
PER_LAYER = (
    ("graphs.all_pairs.calls", "count", "lower", ("calls", "graphs.all_pairs")),
    ("graphs.all_pairs.s", "s", "lower", ("s", "graphs.all_pairs")),
    ("graphs.dijkstra.calls", "count", "lower", ("calls", "graphs.dijkstra")),
    ("graphs.dijkstra.settled", "count", "lower", ("count", "graphs.dijkstra.settled")),
    ("graphs.dijkstra.s", "s", "lower", ("s", "graphs.dijkstra")),
    ("embedder.embed_top.s", "s", "lower", ("s", "embedder.embed_top")),
    ("embedder.preprocess_s", "s", "lower", ("s", "embedder.preprocess")),
    ("embedder.split.calls", "count", "lower", ("calls", "embedder.split")),
    ("embedder.recursion_self_s", "s", "lower", ("self_s", "embedder.embed_top")),
    ("embedder.portal_dijkstra.calls", "count", "lower", ("calls", "embedder.portal_dijkstra")),
    ("embedder.portal_dijkstra.s", "s", "lower", ("s", "embedder.portal_dijkstra")),
    ("embedder.progress_check.s", "s", "lower", ("s", "embedder.progress_check")),
    ("hierarchy.build_chain.calls", "count", "lower", ("calls", "hierarchy.build_chain")),
    ("hierarchy.build_chain.s", "s", "lower", ("s", "hierarchy.build_chain")),
    ("hierarchy.build_chain.self_s", "s", "lower", ("self_s", "hierarchy.build_chain")),
    ("hierarchy.all_pairs.calls", "count", "lower", ("calls", "hierarchy.all_pairs")),
    ("hierarchy.goodness.s", "s", "lower", ("s", "hierarchy.goodness")),
    ("hierarchy.goodness_dijkstra.calls", "count", "lower",
     ("calls", "hierarchy.goodness_dijkstra")),
    ("hierarchy.chain_failures", "count", "lower", ("count", "hierarchy.chain_failures")),
    ("partition.single_level_partition.calls", "count", "lower",
     ("calls", "partition.single_level_partition")),
    ("partition.single_level_partition.s", "s", "lower",
     ("s", "partition.single_level_partition")),
    ("partition.diameter.calls", "count", "lower", ("calls", "partition.diameter")),
    ("partition.diameter.s", "s", "lower", ("s", "partition.diameter")),
    ("partition.carve_dijkstra.settled", "count", "lower",
     ("count", "partition.carve_dijkstra.settled")),
    ("cutpack.build_cut_packing.calls", "count", "lower", ("calls", "cutpack.build_cut_packing")),
    ("cutpack.build_cut_packing.s", "s", "lower", ("s", "cutpack.build_cut_packing")),
    ("cutpack.find_balanced_cut.calls", "count", "lower", ("calls", "cutpack.find_balanced_cut")),
    ("cutpack.useful_ratio", "ratio", "higher", "useful_ratio"),
    ("cutpack.heuristic_tree_decomposition.s", "s", "lower",
     ("s", "cutpack.heuristic_tree_decomposition")),
    ("cutpack.quotient_vertices", "count", "lower", ("count", "cutpack.quotient_vertices")),
    ("cutpack.centroid_bag.s", "s", "lower", ("s", "cutpack.centroid_bag")),
    ("cutpack.is_balanced.s", "s", "lower", ("s", "cutpack.is_balanced")),
    ("frt.frt_embed.calls", "count", "lower", ("calls", "frt.frt_embed")),
    ("frt.frt_embed.s", "s", "lower", ("s", "frt.frt_embed")),
    ("harness.evaluate.s", "s", "lower", ("s", "harness.evaluate")),
    ("harness.host_dijkstra.calls", "count", "lower", ("calls", "harness.host_dijkstra")),
    ("harness.host_dijkstra.settled", "count", "lower",
     ("count", "harness.host_dijkstra.settled")),
    ("harness.graph_dijkstra.calls", "count", "lower", ("calls", "harness.graph_dijkstra")),
    ("harness.sample_pairs.s", "s", "lower", ("s", "harness.sample_pairs")),
    ("harness.aggregate_records.s", "s", "lower", ("s", "harness.aggregate_records")),
    ("hosts.embedding_to_json.s", "s", "lower", ("s", "hosts.embedding_to_json")),
    ("hosts.json_bytes", "bytes", "lower", ("count", "hosts.json_bytes")),
    ("hosts.treedepth_of.s", "s", "lower", ("s", "hosts.treedepth_of")),
    ("layer.embedder.s", "s", "lower", ("layer", "embedder")),
    ("layer.hierarchy.s", "s", "lower", ("layer", "hierarchy")),
    ("layer.partition.s", "s", "lower", ("layer", "partition")),
    ("layer.cutpack.s", "s", "lower", ("layer", "cutpack")),
    ("layer.frt.s", "s", "lower", ("layer", "frt")),
    ("layer.harness.s", "s", "lower", ("layer", "harness")),
    ("layer.hosts.s", "s", "lower", ("layer", "hosts")),
    ("trace.wall_s", "s", "lower", "wall"),
)


class LoadError(Exception):
    pass


def load_modules() -> dict:
    """Import the library from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module("mfembed." + name) for name in MODULES}
    except ImportError as exc:
        raise LoadError(f"cannot import mfembed from {SRC}: {exc}") from exc
    where = Path(mods["graphs"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise LoadError(f"mfembed was imported from {where}, not from {SRC}")
    return mods


@dataclass
class Instance:
    graph: object
    job_seeds: list[int]
    sources: list[int]

    def fingerprint(self) -> str:
        h = hashlib.sha256(repr((self.graph.n, self.graph.edges, self.job_seeds)).encode())
        return h.hexdigest()[:16]


def make_instance(mods: dict, workload: Workload, seed: int) -> Instance:
    rng = random.Random(f"{workload.name}/{seed}")
    graph = mods["generators"].generate(**workload.graph, seed=rng.getrandbits(32))
    job_seeds = [rng.getrandbits(32) for _ in range(workload.jobs)]
    sources = sorted(rng.sample(range(graph.n), min(check.SOURCES, graph.n)))
    graph.adjacency  # built lazily by the library; pay for it here, not in a job
    return Instance(graph, job_seeds, sources)


def setup(workload: Workload, seed: int, speed: HostSpeed) -> tuple[dict, Instance, float]:
    """Import the library and build the instance, several times.

    Returns the median time at the reference host speed, which is sampled
    just before and after each repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "mfembed" or m.startswith("mfembed.")]:
            del sys.modules[name]
        speed.burst(NEAREST // 2)
        t0 = perf_counter()
        mods = load_modules()
        inst = make_instance(mods, workload, seed)
        t1 = perf_counter()
        speed.burst(NEAREST // 2)
        times.append(speed.reference_seconds(t0, t1))
    return mods, inst, statistics.median(times)


class Capture:
    """Wraps the harness's embedder and FRT bindings during experiment jobs.

    Records when each `embed_top` call ran and, when `save_dir` is set,
    pickles every embedding for the check. Saving is excluded from the job's
    time (`paused_s`) and keeps nothing in memory.
    """

    def __init__(self, harness) -> None:
        self.harness = harness
        self.originals = (harness.embed_top, harness.frt_embed)
        self.embed_spans: list[tuple[float, float]] = []
        self.paused_s = 0.0
        self.save_dir: Path | None = None
        self.saved = 0
        harness.embed_top = self._wrap(self.originals[0], "embedder", timed=True)
        harness.frt_embed = self._wrap(self.originals[1], "frt", timed=False)

    def _wrap(self, original, kind, timed):
        def captured(*args, **kwargs):
            t0 = perf_counter()
            emb = original(*args, **kwargs)
            t1 = perf_counter()
            if timed:
                self.embed_spans.append((t0, t1))
            if self.save_dir is not None:
                record = (kind, emb.host.n, emb.host.edges, emb.eta, emb.forest,
                          emb.meta.fallback_used)
                with open(self.save_dir / f"{self.saved:04d}.pkl", "wb") as fh:
                    pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
                self.saved += 1
                self.paused_s += perf_counter() - t1
            return emb

        return captured

    def close(self) -> None:
        self.harness.embed_top, self.harness.frt_embed = self.originals


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def run_rounds(mods, workload, inst, seconds, tracer, work_dir):
    """Timed rounds over the job list; outputs of round 0 go to work_dir.

    Each round records, per job, the interval it ran in and the time inside
    it that was not its own (`job_spans`), and the interval of every
    `embed_top` call (`embed_spans`). Round 0's outputs are written to disk
    rather than kept, so that memory held for the check does not show in the
    peak RSS of later rounds.
    """
    harness = mods["harness"]
    embed_top = mods["embedder"].embed_top
    to_json = mods["hosts"].embedding_to_json
    capture = Capture(harness) if workload.runs else None
    rounds = []
    started = perf_counter()
    try:
        while True:
            first = not rounds
            rnd = {"job_spans": [], "embed_spans": [], "digests": [], "errors": []}
            if tracer is not None:
                tracer.start_window()
            for j, job_seed in enumerate(inst.job_seeds):
                span = digest = None
                try:
                    if capture is None:
                        t0 = perf_counter()
                        emb = embed_top(inst.graph, EPSILON, seed=job_seed)
                        t1 = perf_counter()
                        text = to_json(emb)
                        span = (t0, perf_counter(), 0.0)
                        del emb
                        rnd["embed_spans"].append((t0, t1))
                        digest = hashlib.sha256(text.encode()).hexdigest()
                        if first:
                            (work_dir / f"embed-{j}.json").write_text(text, encoding="utf-8")
                        del text
                    else:
                        capture.embed_spans.clear()
                        capture.paused_s = 0.0
                        if first:
                            capture.save_dir = work_dir / f"job-{j}"
                            capture.save_dir.mkdir()
                            capture.saved = 0
                        config = harness.ExperimentConfig(
                            epsilon=EPSILON, mode="practical", runs=workload.runs,
                            pairs=workload.pairs, seed=job_seed, baseline="frt",
                        )
                        t0 = perf_counter()
                        report = harness.run_experiment(inst.graph, config)
                        span = (t0, perf_counter(), capture.paused_s)
                        rnd["embed_spans"].extend(capture.embed_spans)
                        digest = report_digest(report)
                        if first:
                            with open(work_dir / f"report-{j}.json", "w", encoding="utf-8") as fh:
                                json.dump(report, fh)
                        del report
                except Exception:  # a failing job is counted, not fatal
                    rnd["errors"].append((j, traceback.format_exc()))
                    span = digest = None
                finally:
                    if capture is not None:
                        capture.save_dir = None
                rnd["job_spans"].append(span)
                rnd["digests"].append(digest)
                if tracer is not None:
                    tracer.keep_spans = False  # the first job's spans are enough to read
            if tracer is not None:
                rnd["window"] = tracer.end_window()
            rounds.append(rnd)
            elapsed = perf_counter() - started
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        if capture is not None:
            capture.close()
    return rounds


def per_layer_values(window: dict, jobs: int, scale: float, wall_s: float) -> dict:
    """Per-job values of one round; seconds are scaled to the reference speed."""
    spans, counts, layers = window["spans"], window["counts"], window["layers"]
    out = {}
    for name, unit, _better, source in PER_LAYER:
        if source == "useful_ratio":
            calls = spans.get("cutpack.find_balanced_cut", (0, 0.0, 0.0))[0]
            out[name] = counts.get("cutpack.kept_cuts", 0) / calls if calls else 0.0
            continue
        if source == "wall":
            out[name] = wall_s
            continue
        kind, key = source
        if kind == "count":
            value = counts.get(key, 0)
        elif kind == "layer":
            value = layers.get(key, 0.0)
        else:
            value = spans.get(key, (0, 0.0, 0.0))[("calls", "s", "self_s").index(kind)]
        out[name] = value / jobs * (scale if unit == "s" else 1)
    return out


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: Path | None = None) -> dict:
    """One benchmark run; returns metrics, problems and run facts."""
    speed = HostSpeed()
    mods, inst, setup_s = setup(workload, seed, speed)
    tracer = tracing.Tracer(mods, inst.graph) if trace else None
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{workload.name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        speed.start()
        try:
            rounds = run_rounds(mods, workload, inst, seconds, tracer, work_dir)
        finally:
            speed.stop()
            if tracer is not None:
                tracer.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None and spans_path is not None:
            tracer.write_spans(spans_path)
        result = check.check_rounds(workload, inst, rounds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for rnd in rounds:
        rnd["raw_s"] = [sp[1] - sp[0] - sp[2] if sp else None for sp in rnd["job_spans"]]
        rnd["job_s"] = [speed.reference_seconds(*sp) if sp else None for sp in rnd["job_spans"]]
        rnd["embed_s"] = [speed.reference_seconds(t0, t1) for t0, t1 in rnd["embed_spans"]]

    def median_job(key: str) -> float:
        # Median per job over rounds, then over the distinct jobs.
        per_job = []
        for j in range(len(inst.job_seeds)):
            times = [rnd[key][j] for rnd in rounds if rnd[key][j] is not None]
            if times:
                per_job.append(statistics.median(times))
        return statistics.median(per_job) if per_job else 0.0

    wall_s = median_job("job_s")
    embed_samples = [t for rnd in rounds for t in rnd["embed_s"]]
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "embed_p50_s": statistics.median(embed_samples) if embed_samples else 0.0,
        "peak_rss_mb": peak_rss_mb,
        **result["quality"],
    }
    problems = list(result["problems"])
    if tracer is not None:
        windows = []
        for rnd in rounds:
            raw = sum(t for t in rnd["raw_s"] if t is not None)
            ref = sum(t for t in rnd["job_s"] if t is not None)
            windows.append(per_layer_values(rnd["window"], len(inst.job_seeds),
                                            ref / raw if raw else 1.0, wall_s))
        for name, unit, _better, _source in PER_LAYER:
            values = [w[name] for w in windows]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    problems.append(f"{name} differs between rounds: {values}")
    samples = sorted(speed.durations)
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fingerprint": inst.fingerprint(),
        "rounds": len(rounds),
        "embed_samples": len(embed_samples),
        "raw_wall_s": median_job("raw_s"),
        "host_speed": REFERENCE_S / samples[len(samples) // 2],
        "digests": result["digests"],
        "report_max_mean_ratio": result["report_max_mean_ratio"],
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another, then one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if proc.returncode in (0, 1):
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    for workload, metric, value, unit in rows:
        print(f"{workload:28} {metric:40} {value:14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    spans_path = OUT / f"spans-{workload.name}.csv"
    try:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), spans_path)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed {args.seed} instance {res['fingerprint']} "
          f"rounds {res['rounds']} embed samples {res['embed_samples']}")
    print(f"host speed {res['host_speed']:.3f} of reference; wall in host seconds "
          f"{res['raw_wall_s']:.4f}")
    if res["report_max_mean_ratio"] is not None:
        print(f"reports' max_mean_ratio, mean over jobs: {res['report_max_mean_ratio']:.6g}")
    for label, digest in res["digests"]:
        print(f"sha256 {label} {digest}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(HERE.parent)}")
    for problem in res["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit, *_ in spec}
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
