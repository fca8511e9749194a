"""Command line front end.

Exit codes: 0 success, 1 a checked invariant was violated, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import harness
from .embedder import embed_top
from .errors import BadSize, DisconnectedGraph, InvariantViolation, MfembedError
from .frt import frt_embed
from .generators import KINDS, generate
from .graphio import load_graph, save_graph
from .graphs import WeightedGraph, connected_components, induced_subgraphs, is_connected
from .hosts import load_embedding, save_components, save_embedding
from .rng import derive_seed

# The size guards keep a command's traced memory under this budget; the
# measurements behind them are in README, "Size limits".
MEMORY_BUDGET = 2**30

# Largest input that `embed` and `experiment` take; `load_graph` refuses a
# larger header before it reads any edge line. The traced peak of `embed` on
# uniform:1:4 grids, set by `embed_top` since the JSON is streamed, is 32.6 MB
# at 5929 vertices (77 x 77, 4.3 s; README, "Size limits").
# `experiment` shares the limit and also keeps each embedder host's leaf
# rows: with 100 sampled pairs one run peaks at 11.3 MB at 1600 vertices,
# 29.1 MB at 3136 and 64.2 MB at 5929.
MAX_EMBED_N = 6000

# Memory that `eval` and `experiment` hold per pair, rounded up from the
# measured peaks: the pair, its graph distance, its report rows and the
# folded host distances. Runs are folded in one at a time, so the run count
# does not add to it.
PAIR_BYTES = 1000

# Memory that loading a graph file holds per edge line: the pair table, the
# edge tuple and the constructor's checks. Rounded up from the traced peaks
# of the loader on uniform:1:4 paths, 310 to 416 bytes per edge between 5000
# and 360000 edges, highest just past a table resize (README, "Size
# limits"). Every command that reads a graph refuses a header with more
# edges than the budget covers, about 2.44 million, before any edge line.
# `gen` refuses to build more edges than that, so that every file it writes
# loads; it holds 258 bytes per edge on a uniform:1:4 path of 200000
# vertices and 242 on a 400 x 500 grid.
LOAD_EDGE_BYTES = 440


class _InputProblem(Exception):
    pass


def _refuse_bad_outputs(*paths: str | None) -> None:
    """Refuse an output path whose directory does not exist, and two outputs
    that name one file, which the second write would replace; commands
    call this before they read any input."""
    paths = [path for path in paths if path is not None]
    for path in paths:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise _InputProblem(f"no directory for output {path}")
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise _InputProblem(f"outputs {' and '.join(paths)} name one file")


@contextlib.contextmanager
def _outputs():
    """Yields `claim(path)`, called right before a command writes `path`: it
    opens the file for writing, so a path that cannot be opened is never
    claimed. When the block raises, every claimed path is removed, so a
    command that fails leaves none of its own outputs behind."""
    claimed = []

    def claim(path: str) -> None:
        open(path, "w", encoding="utf-8").close()
        claimed.append(path)

    try:
        yield claim
    except BaseException:
        for path in claimed:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _load(path: str, max_n: int | None = None) -> WeightedGraph:
    try:
        return load_graph(path, max_n, max_m=MEMORY_BUDGET // LOAD_EDGE_BYTES)
    except BadSize as exc:
        task = "load" if max_n is None else "embed"
        raise _InputProblem(f"instance too large to {task} ({exc})") from exc
    except MfembedError as exc:
        raise _InputProblem(str(exc)) from exc


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
    p.add_argument("--n", type=int, default=0, help="size (vertices, or leaves for star)")
    p.add_argument("--weights", default="unit", help="unit or uniform:LO:HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)


def _add_split_settings(p):
    """The settings every split reads: `embed` and `experiment`."""
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--mode", choices=["theory", "practical"], default="practical")
    p.add_argument("--xi-cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_embed(sub):
    p = sub.add_parser("embed", help="compute a host embedding")
    p.add_argument("-i", "--input", required=True)
    _add_split_settings(p)
    p.add_argument("-o", "--out", required=True)


def _add_frt(sub):
    p = sub.add_parser("frt", help="tree-embedding baseline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a stored embedding")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-e", "--embedding", required=True)
    p.add_argument("--pairs", default="all", help="sample size or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--csv", default=None)


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="multi-run distortion experiment")
    p.add_argument("-i", "--input", required=True)
    _add_split_settings(p)
    p.add_argument("--runs", type=int, default=8)
    p.add_argument("--pairs", default="all")
    p.add_argument("--baseline", choices=["none", "frt"], default="none")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--csv", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfembed",
        description="low-treedepth metric embeddings with distortion evaluation",
    )
    # No abbreviations: `--xi` would otherwise be read as `--xi-cap`.
    exact = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)
    _add_gen(sub)
    _add_embed(sub)
    _add_frt(sub)
    _add_eval(sub)
    _add_experiment(sub)
    return parser


def _pairs_arg(value: str, n: int) -> int | str:
    """The pair count, refused when its distances and report would not fit
    the memory budget; checked before any distance is computed."""
    count = value if value == "all" else int(value)
    total = n * (n - 1) // 2
    held = total if count == "all" else min(count, total)
    limit = MEMORY_BUDGET // PAIR_BYTES
    if held > limit:
        raise _InputProblem(f"{held} pairs exceed the limit of {limit}")
    return count


def _gen_edge_count(args) -> int:
    """Edges of the instance `gen` would build; bad sizes count none here
    and are refused by `generate`."""
    if args.kind == "grid":
        rows, cols = max(args.rows, 0), max(args.cols, 0)
        return rows * (cols - 1) + (rows - 1) * cols
    if args.kind == "path":
        return args.n - 1
    return args.n  # a cycle of n vertices or a star of n leaves


def _cmd_gen(args) -> int:
    _refuse_bad_outputs(args.out)
    edges = _gen_edge_count(args)
    limit = MEMORY_BUDGET // LOAD_EDGE_BYTES
    if edges > limit:
        raise _InputProblem(f"{args.kind} of {edges} edges exceeds the limit of {limit}")
    g = generate(
        args.kind,
        rows=args.rows,
        cols=args.cols,
        size=args.n,
        weights=args.weights,
        seed=args.seed,
    )
    with _outputs() as claim:
        claim(args.out)
        save_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _cmd_embed(args) -> int:
    _refuse_bad_outputs(args.out)
    g = _load(args.input, MAX_EMBED_N)
    kwargs = dict(mode=args.mode, xi_cap=args.xi_cap)
    try:
        emb = embed_top(g, args.epsilon, seed=args.seed, **kwargs)
    except DisconnectedGraph:
        # `embed_top` walks a connected input once; only a refused one is
        # walked again for its components. The empty graph has none.
        comps = connected_components(g)
        if len(comps) <= 1:
            raise
    else:
        with _outputs() as claim:
            claim(args.out)
            depth = save_embedding(emb, args.out)
        print(
            f"wrote {args.out}: host n={emb.host.n} depth={depth} "
            f"fallback={emb.meta.fallback_used}"
        )
        return 0
    # Components embedded independently, emitted as a JSON array.
    parts = []
    for k, (sub, verts) in enumerate(zip(induced_subgraphs(g, comps), comps)):
        emb = embed_top(sub, args.epsilon, seed=derive_seed(args.seed, "component", k), **kwargs)
        parts.append((emb, verts))
    with _outputs() as claim:
        claim(args.out)
        save_components(parts, args.out)
    print(f"wrote {args.out}: {len(parts)} components")
    return 0


def _cmd_frt(args) -> int:
    _refuse_bad_outputs(args.out)
    g = _load(args.input)
    emb = frt_embed(g, args.seed)
    with _outputs() as claim:
        claim(args.out)
        depth = save_embedding(emb, args.out)
    print(f"wrote {args.out}: host n={emb.host.n} depth={depth}")
    return 0


def _emit(report: dict, out: str, csv: str | None) -> None:
    """Write the JSON report and, if asked, its CSV table; neither is left
    behind when either write fails."""
    with _outputs() as claim:
        claim(out)
        harness.emit(report, "json", out)
        if csv:
            claim(csv)
            harness.emit(report, "csv", csv)


def _cmd_eval(args) -> int:
    _refuse_bad_outputs(args.out, args.csv)
    g = _load(args.input)
    count = _pairs_arg(args.pairs, g.n)
    try:
        emb = load_embedding(args.embedding)
    except MfembedError as exc:
        raise _InputProblem(str(exc)) from exc
    if not is_connected(g):
        raise _InputProblem("eval needs a connected graph")
    pairs = harness.sample_pairs(g.n, count, args.seed)
    dist_g, dist_h = harness.evaluate(g, emb, pairs)
    distortion = harness.aggregate_records(pairs, dist_g, [dist_h])
    report = {
        "schema_version": harness.SCHEMA_VERSION,
        "config": {"instance": args.input, "embedding": args.embedding, "pairs": args.pairs},
        "n": g.n,
        "pairs": [[u, v] for u, v in pairs],
        "distortion": distortion,
    }
    _emit(report, args.out, args.csv)
    print(f"wrote {args.out}: max ratio={distortion['max_mean_ratio']}")
    if distortion["violations"]:
        print(f"non-contraction violations: {distortion['violations']}", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    _refuse_bad_outputs(args.out, args.csv)
    g = _load(args.input, MAX_EMBED_N)
    config = harness.ExperimentConfig(
        epsilon=args.epsilon,
        mode=args.mode,
        runs=args.runs,
        pairs=_pairs_arg(args.pairs, g.n),
        seed=args.seed,
        baseline=args.baseline,
        instance_label=args.input,
        xi_cap=args.xi_cap,
    )
    report = harness.run_experiment(g, config)
    _emit(report, args.out, args.csv)
    print(
        f"wrote {args.out}: max mean ratio={report['distortion']['max_mean_ratio']} "
        f"fallback rate={report['structural']['fallback_rate']}"
    )
    if report["distortion"]["violations"]:
        print("non-contraction violations detected", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "embed": _cmd_embed,
    "frt": _cmd_frt,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped reading; nothing is wrong with the input. Point
        # stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _InputProblem as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Not a broken invariant: the input outgrew this machine's memory.
        print("error: out of memory", file=sys.stderr)
        return 2
    except MfembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
