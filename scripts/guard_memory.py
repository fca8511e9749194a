"""Measure the memory peak of one whole `mfembed` command under tracemalloc.

The size guards in `mfembed.cli` charge a fixed number of bytes per pair
(`PAIR_BYTES`, for `eval` and `experiment`) and per edge (`LOAD_EDGE_BYTES`,
for `gen` and every command that reads a graph file), and cap `embed` and
`experiment` at `MAX_EMBED_N` vertices. This script runs one command in-process with
`tracemalloc` on and prints one row of the README's "Size limits" tables:
the command, its pair or edge count, the peak (MB = 10^6 bytes) and the
peak per pair or edge; for `embed`, the input and host sizes and the peak.
`load` is not a command: it traces the commands' loader alone on the input
file, header checks included.

    PYTHONPATH=src python scripts/guard_memory.py --path 300 eval --pairs all
    PYTHONPATH=src python scripts/guard_memory.py --path 300 experiment \\
        --pairs all --baseline frt --runs 8
    PYTHONPATH=src python scripts/guard_memory.py --grid 40 embed --seed 1
    PYTHONPATH=src python scripts/guard_memory.py gen path --n 200000 --weights uniform:1:4
    PYTHONPATH=src python scripts/guard_memory.py --path 200000 load

`--path N` and `--grid SIDE` make the input before tracing starts: a path of
N vertices (generator seed 0) or a SIDE x SIDE grid (generator seed 1), with
`uniform:1:4` lengths, and for `eval` its FRT tree; the script adds `-i`,
`-e` and `-o` itself. `--check` exits 1 when the figure exceeds the guard's
constant; `embed` has no such constant.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from mfembed import cli
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphio import save_graph
from mfembed.hosts import save_embedding


def measure(command: list[str], path_n: int | None, grid_side: int | None, work: Path):
    """The command's traced peak in bytes and the counts of its row: pairs,
    edges, or for `embed` the input vertices and the host's vertices and
    edges."""
    out = work / "out"
    argv = [*command, "-o", str(out)]
    if command[0] != "gen":
        if path_n is not None:
            g = generate("path", size=path_n, weights="uniform:1:4")
        else:
            g = generate("grid", rows=grid_side, cols=grid_side, weights="uniform:1:4", seed=1)
        n = g.n
        save_graph(g, work / "input.txt")
        argv += ["-i", str(work / "input.txt")]
        if command[0] == "eval":
            save_embedding(frt_embed(g, 0), work / "tree.json")
            argv += ["-e", str(work / "tree.json")]
        del g  # the command loads its own copy
    if command[0] == "load":
        tracemalloc.start()
        m = cli._load(str(work / "input.txt")).m
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak, [m]
    tracemalloc.start()
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"mfembed {' '.join(argv)} exited {code}")
    with out.open(encoding="utf-8") as fh:
        if command[0] == "gen":
            _, _, m = fh.readline().split()
            return peak, [int(m)]
        result = json.load(fh)
    if command[0] == "embed":
        return peak, [n, result["host"]["n"], len(result["host"]["edges"])]
    return peak, [len(result["pairs"])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--path", type=int, default=None, metavar="N",
                        help="input: a uniform:1:4 path of N vertices (and its FRT tree)")
    source.add_argument("--grid", type=int, default=None, metavar="SIDE",
                        help="input: a uniform:1:4 grid of SIDE x SIDE vertices (and its FRT tree)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the figure exceeds the guard's constant")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="an mfembed command without -i, -e and -o")
    args = parser.parse_args()
    if not args.command or args.command[0] not in ("eval", "experiment", "gen", "embed", "load"):
        parser.error("the command must be eval, experiment, embed, gen or load")
    if (args.path is None and args.grid is None) != (args.command[0] == "gen"):
        parser.error("eval, experiment, embed and load need --path or --grid; gen takes neither")
    if args.check and args.command[0] == "embed":
        parser.error("embed has no guard constant to check")
    with tempfile.TemporaryDirectory() as tmp:
        peak, counts = measure(args.command, args.path, args.grid, Path(tmp))
    label = f"`{' '.join(args.command)}`"
    if args.path is not None:
        label += f", path of {args.path}"
    elif args.grid is not None:
        label += f", grid {args.grid}x{args.grid}"
    if args.command[0] == "embed":
        print(f"| {label} | {' | '.join(map(str, counts))} | {peak / 1e6:.1f} MB |")
        return 0
    unit, bound = {
        "gen": ("edge", cli.LOAD_EDGE_BYTES),
        "load": ("edge", cli.LOAD_EDGE_BYTES),
    }.get(args.command[0], ("pair", cli.PAIR_BYTES))
    per = peak / counts[0]
    print(f"| {label} | {counts[0]} | {peak / 1e6:.1f} MB | {per:.0f} |")
    if args.check and per > bound:
        print(f"{per:.0f} bytes per {unit} exceed the guard's {bound}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
