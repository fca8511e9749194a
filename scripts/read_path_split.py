"""Split an experiment's read path by host kind: label builds and queries.

`run_experiment` builds `ForestLabels` for every host it makes, the
embedder's and the FRT baseline's, and answers the pairs from them. This
script runs one experiment in-process (epsilon 0.5, practical mode, FRT
baseline, as in the benchmark's experiment jobs), wraps
`ForestLabels.__init__` and `ForestLabels.distances` with timers, and prints
one row per host kind:
- forest-shaped hosts (each non-root vertex has one host edge, to its forest
  parent: FRT trees, the HST fallback), whose labels are path sums read at
  the deepest common ancestor;
- leaf rows: embedder hosts, whose input vertices' labels are the portal
  rows the embedder kept while wiring them, so the build runs no Dijkstra;
- other hosts, whose labels come from one Dijkstra run per host vertex
  (`eval` of an embedder host; an experiment makes none).

    PYTHONPATH=src python scripts/read_path_split.py --grid 16 --runs 4 --pairs all
    PYTHONPATH=src python scripts/read_path_split.py --cycle 512 --runs 4 --pairs 200

`--grid SIDE` is a SIDE x SIDE grid with `uniform:1:4` lengths (generator
seed 1), `--cycle N` the unit cycle of N vertices. Times are seconds on this
host; the columns give the hosts of each kind, the pairs they answered and
the milliseconds per host. The exit code is 1 when fewer hosts took the
forest-shaped path than there are FRT trees.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from mfembed.generators import generate
from mfembed.harness import ExperimentConfig, run_experiment
from mfembed.hosts import ForestLabels

KINDS = ("forest-shaped", "leaf rows", "other")


def split(g, config: ExperimentConfig) -> tuple[dict, float]:
    """Run the experiment with timed label builds and queries; returns, per
    host kind, [hosts, build seconds, query seconds, pairs], and the
    experiment's own seconds."""
    totals = {kind: [0, 0.0, 0.0, 0] for kind in KINDS}
    build, query = ForestLabels.__init__, ForestLabels.distances
    # the totals row of each live ForestLabels, by id
    row_of: dict[int, list] = {}

    def timed_build(self, emb):
        t0 = perf_counter()
        build(self, emb)
        if emb.leaf_rows is not None:
            row = totals[KINDS[1]]
        else:
            row = totals[KINDS[0] if self.forest_shaped else KINDS[2]]
        row[0] += 1
        row[1] += perf_counter() - t0
        row_of[id(self)] = row

    def timed_query(self, pairs):
        t0 = perf_counter()
        out = query(self, pairs)
        row = row_of[id(self)]
        row[2] += perf_counter() - t0
        row[3] += len(out)
        return out

    ForestLabels.__init__, ForestLabels.distances = timed_build, timed_query
    try:
        t0 = perf_counter()
        run_experiment(g, config)
        return totals, perf_counter() - t0
    finally:
        ForestLabels.__init__, ForestLabels.distances = build, query


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid", type=int, metavar="SIDE",
                        help="input: a uniform:1:4 grid of SIDE x SIDE vertices")
    source.add_argument("--cycle", type=int, metavar="N", help="input: the unit cycle of N vertices")
    parser.add_argument("--runs", type=int, default=4, help="embeddings and FRT trees (default 4)")
    parser.add_argument("--pairs", default="all", help="pair count or 'all' (default all)")
    parser.add_argument("--seed", type=int, default=1, help="experiment seed (default 1)")
    args = parser.parse_args()
    if args.grid is not None:
        g = generate("grid", rows=args.grid, cols=args.grid, weights="uniform:1:4", seed=1)
        label = f"grid {args.grid}x{args.grid}"
    else:
        g = generate("cycle", size=args.cycle)
        label = f"unit cycle {args.cycle}"
    pairs = args.pairs if args.pairs == "all" else int(args.pairs)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=args.runs,
                              pairs=pairs, seed=args.seed, baseline="frt")
    totals, wall = split(g, config)
    print(f"{label}, --runs {args.runs} --pairs {args.pairs} --seed {args.seed}: "
          f"experiment {wall:.3f} s")
    print("| host kind | hosts | pairs | build s | query s | build ms/host | query ms/host |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, (hosts, build_s, query_s, answered) in totals.items():
        per = 1e3 / hosts if hosts else 0.0
        print(f"| {name} | {hosts} | {answered} | {build_s:.4f} | {query_s:.4f} | "
              f"{build_s * per:.2f} | {query_s * per:.2f} |")
    if totals[KINDS[0]][0] < args.runs:
        print("the FRT trees did not take the forest-shaped path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
