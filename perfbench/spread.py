"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload embed-grid20 --seeds 1-10 [--trace 0]
        [--save perfbench/out/a.json] [--against perfbench/out/b.json]

Runs `run.py` once per seed, one after another, for BENCHMARK.json's
run_seconds. For each metric it prints the median of the runs, the spread
(distance between the first and third quartile, as a share of the median)
and the metric's bound. `--save` keeps the values; `--against` compares the
medians with a saved set, as share of change in the worse direction. It
also shows `host_wall_s`, the job time in host seconds from the run's log,
which is not a metric. With `--trace 1` it also runs each seed untraced and
prints the tracing overhead (traced wall_s minus untraced wall_s, median over
seeds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    values = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if "wall in host seconds" in line:
            values["host_wall_s"] = float(line.split()[-1])
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    specs["host_wall_s"] = {"unit": "s", "better": "lower"}  # printed, not a metric
    values: dict[str, list[float]] = {}
    untraced_wall = []
    for seed in parse_seeds(args.seeds):
        metrics = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        if args.trace:
            untraced_wall.append(run_once(args.workload, seed, bench["run_seconds"], 0)["wall_s"])
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()
                                          if specs[k]["unit"] != "count"), flush=True)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    old = json.loads(Path(args.against).read_text()) if args.against else {}
    print(f"{'metric':40} {'median':>12} {'spread':>8} {'bound':>6} {'vs old':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = specs[name].get("bound")
        line = f"{name:40} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}"
        if name in old:
            base = statistics.median(old[name])
            worse = (med - base) / base if specs[name]["better"] == "lower" else (base - med) / base
            line += f" {worse:8.3f}" if base else ""
        print(line)
    if untraced_wall:
        over = [t - u for t, u in zip(values["trace.wall_s"], untraced_wall)]
        share = [o / u for o, u in zip(over, untraced_wall)]
        print(f"tracing overhead: {statistics.median(over):.4f} s per job "
              f"({statistics.median(share):.1%} of untraced wall_s), median over seeds")
    if args.save:
        Path(args.save).write_text(json.dumps(values), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
