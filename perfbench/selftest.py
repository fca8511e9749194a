"""Determinism self-test of the benchmark, at reduced instance sizes.

    python3 perfbench/selftest.py

For each workload, two traced runs with one seed must agree exactly on every
quality metric, every count and every output digest; a run with a second
seed must use a different instance; every correctness check must pass, and
the tracer must see the embedder's splits and chain builds. It also checks
that BENCHMARK.json lists the workloads and metrics that run.py defines.
Prints one line per failure and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

# Reduced sizes of each workload.
SMALL = {
    "embed-grid20": dict(graph=dict(kind="grid", rows=8, cols=8, weights="uniform:1:4"), jobs=2),
    "experiment-cycle512-sampled": dict(
        graph=dict(kind="cycle", size=64, weights="unit"), jobs=2, runs=2, pairs=20
    ),
    "experiment-grid16-allpairs": dict(
        graph=dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), jobs=2, runs=2
    ),
}

QUALITY = ("src_max_mean_ratio", "mean_treedepth", "mean_host_edges", "no_fallback_rate",
           "ok_frac")
EXACT = QUALITY + tuple(name for name, unit, _, _ in run.PER_LAYER if unit != "s")
SEEN = ("embedder.split.calls", "hierarchy.build_chain.calls")


def check_manifest() -> list[str]:
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] != list(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != [
        spec[:3] for spec in run.PER_LAYER
    ]:
        failures.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return failures


def check_workload(workload: run.Workload) -> list[str]:
    wl = replace(workload, **SMALL[workload.name])
    a, b, c = (run.run_workload(wl, seed, 0, trace=True) for seed in (1, 1, 2))
    failures = []
    for label, res in (("seed 1", a), ("seed 1 again", b), ("seed 2", c)):
        failures += [f"{label}: {p}" for p in res["problems"]]
        if res["failed"]:
            failures.append(f"{label}: {res['failed']} of {res['attempted']} embeddings failed")
    for name in EXACT:
        if a["metrics"][name] != b["metrics"][name]:
            failures.append(f"{name}: {a['metrics'][name]!r} then {b['metrics'][name]!r}")
    if a["digests"] != b["digests"]:
        failures.append("output digests differ between two runs of one seed")
    if a["fingerprint"] == c["fingerprint"]:
        failures.append("seeds 1 and 2 gave the same instance")
    expected = SEEN + (("frt.frt_embed.calls",) if wl.runs else ("hosts.json_bytes",))
    failures += [f"tracer saw no {name}" for name in expected if not a["metrics"][name]]
    return [f"{workload.name}: {f}" for f in failures]


def main() -> int:
    failures = check_manifest()
    for workload in run.WORKLOADS.values():
        found = check_workload(workload)
        print(f"{workload.name}: {'FAILED' if found else 'ok'}", flush=True)
        failures += found
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
