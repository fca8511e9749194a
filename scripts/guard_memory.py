"""Measure the memory peak of one whole `mfembed` command under tracemalloc.

The size guards in `mfembed.cli` charge a fixed number of bytes per pair
(`PAIR_BYTES`, for `eval` and `experiment`) and per edge (`GEN_EDGE_BYTES`,
for `gen`). This script runs one command in-process with `tracemalloc` on and
prints one row of the README's "Size limits" tables: the command, its pair or
edge count, the peak (MB = 10^6 bytes) and the peak per pair or edge.

    PYTHONPATH=src python scripts/guard_memory.py --path 300 eval --pairs all
    PYTHONPATH=src python scripts/guard_memory.py --path 300 experiment \\
        --pairs all --baseline frt --runs 8
    PYTHONPATH=src python scripts/guard_memory.py gen path --n 200000 --weights uniform:1:4

`--path N` makes the input before tracing starts: a path of N vertices with
`uniform:1:4` lengths, and for `eval` its FRT tree; the script adds `-i`,
`-e` and `-o` itself. `--check` exits 1 when the figure exceeds the guard's
constant.
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


def measure(command: list[str], path_n: int | None, work: Path) -> tuple[int, int]:
    """The command's traced peak in bytes and its pair or edge count."""
    out = work / "out"
    argv = [*command, "-o", str(out)]
    if path_n is not None:
        g = generate("path", size=path_n, weights="uniform:1:4")
        save_graph(g, work / "path.txt")
        argv += ["-i", str(work / "path.txt")]
        if command[0] == "eval":
            save_embedding(frt_embed(g, 0), work / "tree.json")
            argv += ["-e", str(work / "tree.json")]
        del g  # the command loads its own copy
    tracemalloc.start()
    code = cli.main(argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"mfembed {' '.join(argv)} exited {code}")
    if command[0] == "gen":
        with out.open(encoding="utf-8") as fh:
            _, _, m = fh.readline().split()
        return peak, int(m)
    with out.open(encoding="utf-8") as fh:
        return peak, len(json.load(fh)["pairs"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--path", type=int, default=None, metavar="N",
                        help="input: a uniform:1:4 path of N vertices (and its FRT tree)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the figure exceeds the guard's constant")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="an mfembed command without -i, -e and -o")
    args = parser.parse_args()
    if not args.command or args.command[0] not in ("eval", "experiment", "gen"):
        parser.error("the command must be eval, experiment or gen")
    if (args.path is None) != (args.command[0] == "gen"):
        parser.error("eval and experiment need --path; gen takes none")
    with tempfile.TemporaryDirectory() as tmp:
        peak, count = measure(args.command, args.path, Path(tmp))
    unit, bound = ("edge", cli.GEN_EDGE_BYTES) if args.command[0] == "gen" else ("pair", cli.PAIR_BYTES)
    per = peak / count
    label = f"`{' '.join(args.command)}`"
    if args.path is not None:
        label += f", path of {args.path}"
    print(f"| {label} | {count} | {peak / 1e6:.1f} MB | {per:.0f} |")
    if args.check and per > bound:
        print(f"{per:.0f} bytes per {unit} exceed the guard's {bound}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
