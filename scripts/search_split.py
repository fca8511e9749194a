"""Count an experiment's graph searches by caller and by walk.

`graphs.search` walks a graph breadth-first when every edge has one length
and runs `settle`'s heap otherwise. This script runs experiments in-process
(epsilon 0.5, practical mode, FRT baseline, as in the benchmark's experiment
jobs), wraps `search` where the library calls it, and prints one row per
caller, named by the nearest library function on the call stack:
- carving: `partition.carve`, one search per ball;
- chain top level: `diameter_level` on each fragment that `build_chain`
  builds a chain on, the root's once per experiment in `embedder.prepare`;
- goodness check: `diameter_level` on the clusters `_check_goodness` measures;
- portal rows: the embedder's row from each portal copy;
- closure: `metric_closure_weights`, one search per vertex with an edge to a
  higher id, once per experiment;
- FRT level: `diameter_level` on the FRT baseline's input, once per
  experiment (`frt.top_level`);
- FRT lists: `frt._least_element_lists`, one search per vertex;
- pair rows: `harness._pair_distances`, one `graphs.search_to` per distinct
  first vertex, which stops at its last target; its vertices are those
  the walk settled.
`hosts`' own heap runs, for labels that no leaf rows give, are the row
"host labels"; any other search is "other".

Two shares follow the table: the splits whose chain was flat (the root's
carving left only singletons, so the split took its one cut without a
packing), out of all splits, and the carving balls answered without a
search (every free neighbour of the center lay beyond its radius), out of
all balls.

    PYTHONPATH=src python scripts/search_split.py --cycle 512 --runs 4 --pairs 200 --seeds 1 2
    PYTHONPATH=src python scripts/search_split.py --grid 16 --runs 4 --pairs all

`--grid SIDE` is a SIDE x SIDE grid with `uniform:1:4` lengths (generator
seed 1), `--cycle N` the unit cycle of N vertices. The counts add up over
the given experiment seeds. Each row gives, per walk, the searches made and
the vertices they returned. On the unit cycle every edge of every graph
the experiment searches has one length, so a heap search on a graph with
an edge there exits with code 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mfembed.embedder as embedder
import mfembed.frt as frt
import mfembed.graphs as graphs
import mfembed.harness as harness
import mfembed.hierarchy as hierarchy
import mfembed.hosts as hosts
import mfembed.partition as partition
from mfembed.generators import generate
from mfembed.harness import ExperimentConfig

# (module, function) of the nearest library frame -> caller row
CALLERS = {
    ("partition", "carve"): "carving",
    ("hierarchy", "build_chain"): "chain top level",
    ("hierarchy", "_check_goodness"): "goodness check",
    ("embedder", "embed"): "portal rows",
    ("graphs", "metric_closure_weights"): "closure",
    ("embedder", "prepare"): "chain top level",
    ("frt", "top_level"): "FRT level",
    ("frt", "_least_element_lists"): "FRT lists",
    ("harness", "_pair_distances"): "pair rows",
    ("hosts", "_subtree_labels"): "host labels",
}
ROWS = list(dict.fromkeys(CALLERS.values())) + ["other"]
WALKS = ("breadth-first", "heap")


def caller() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        row = CALLERS.get((Path(code.co_filename).stem, code.co_name))
        if row is not None:
            return row
        frame = frame.f_back
    return "other"


def split(g, configs: list[ExperimentConfig]) -> tuple[dict, int, dict]:
    """Run the experiments with counted searches; returns, per caller and
    walk, [searches, vertices returned], the heap searches made on graphs
    with at least one edge, and the split and ball tallies of the flat
    shares."""
    counts = {row: {walk: [0, 0] for walk in WALKS} for row in ROWS}
    heap_on_edges = 0
    tally = {"splits": 0, "flat splits": 0, "balls": 0}
    search, search_to, settle = graphs.search, harness.search_to, hosts.settle
    build_chain, carve = embedder.build_chain, hierarchy.carve

    def counted_chain(h, *args, **kwargs):
        chain = build_chain(h, *args, **kwargs)
        tally["splits"] += 1
        tally["flat splits"] += getattr(chain, "flat", False)
        return chain

    def counted_carve(*args, **kwargs):
        balls = carve(*args, **kwargs)
        tally["balls"] += len(balls)
        return balls

    def counted_walk(walk):
        """`walk` (`search` or `search_to`), counted by caller and by the
        walk it picks on the graph."""

        def counted(h, *args, **kwargs):
            nonlocal heap_on_edges
            out = walk(h, *args, **kwargs)
            heap = h.common_length is None
            heap_on_edges += heap and h.m > 0
            row = counts[caller()][WALKS[heap]]
            row[0] += 1
            row[1] += len(out)
            return out

        return counted

    counted_search, counted_search_to = counted_walk(search), counted_walk(search_to)

    def counted_settle(*args, **kwargs):
        out = settle(*args, **kwargs)
        row = counts[caller()][WALKS[1]]
        row[0] += 1
        row[1] += len(out)
        return out

    patched = [(graphs, "search"), (partition, "search"), (frt, "search")]
    for module, name in patched:
        setattr(module, name, counted_search)
    harness.search_to = counted_search_to
    hosts.settle = counted_settle
    embedder.build_chain, hierarchy.carve = counted_chain, counted_carve
    try:
        for config in configs:
            harness.run_experiment(g, config)
    finally:
        for module, name in patched:
            setattr(module, name, search)
        harness.search_to = search_to
        hosts.settle = settle
        embedder.build_chain, hierarchy.carve = build_chain, carve
    return counts, heap_on_edges, tally


def share(part: int, whole: int) -> str:
    return f"{part} of {whole} ({100.0 * part / whole:.1f} %)" if whole else "0 of 0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid", type=int, metavar="SIDE",
                        help="input: a uniform:1:4 grid of SIDE x SIDE vertices")
    source.add_argument("--cycle", type=int, metavar="N", help="input: the unit cycle of N vertices")
    parser.add_argument("--runs", type=int, default=4, help="embeddings and FRT trees (default 4)")
    parser.add_argument("--pairs", default="all", help="pair count or 'all' (default all)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="experiment seeds (default 1)")
    args = parser.parse_args()
    if args.grid is not None:
        g = generate("grid", rows=args.grid, cols=args.grid, weights="uniform:1:4", seed=1)
        label = f"grid {args.grid}x{args.grid}"
    else:
        g = generate("cycle", size=args.cycle)
        label = f"unit cycle {args.cycle}"
    pairs = args.pairs if args.pairs == "all" else int(args.pairs)
    configs = [ExperimentConfig(epsilon=0.5, mode="practical", runs=args.runs, pairs=pairs,
                                seed=seed, baseline="frt") for seed in args.seeds]
    counts, heap_on_edges, tally = split(g, configs)
    print(f"{label}, --runs {args.runs} --pairs {args.pairs} "
          f"--seeds {' '.join(map(str, args.seeds))}")
    print("| caller | breadth-first searches | vertices | heap searches | vertices |")
    print("| --- | --- | --- | --- | --- |")
    for row, by_walk in counts.items():
        (bfs, bfs_vertices), (heap, heap_vertices) = by_walk.values()
        print(f"| {row} | {bfs} | {bfs_vertices} | {heap} | {heap_vertices} |")
    searched = sum(n for n, _ in counts["carving"].values())
    print(f"flat chains: {share(tally['flat splits'], tally['splits'])} splits")
    print(f"carving balls without a search: {share(tally['balls'] - searched, tally['balls'])}")
    if args.cycle is not None and heap_on_edges:
        print(f"{heap_on_edges} heap searches on graphs with edges of the unit cycle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
