"""Plain-text graph files.

Format: optional `#` comment lines, one header `p <n> <m>`, then exactly m
lines `e <u> <v> <length>` with 0-based ids. Parallel edges collapse to the
minimum length on load; only the induced metric matters.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import BadSize, InvariantViolation, ParseError
from .graphs import WeightedGraph


# Edge lines go out in batches of this many, so that `save_graph` holds one
# batch of text at a time.
_EDGE_BATCH = 4096


def save_graph(g: WeightedGraph, path: str | Path) -> None:
    edges = g.edges
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p {g.n} {g.m}\n")
        for i in range(0, len(edges), _EDGE_BATCH):
            fh.write("".join([f"e {u} {v} {w!r}\n" for u, v, w in edges[i : i + _EDGE_BATCH]]))


def load_graph(
    path: str | Path, max_n: int | None = None, *, max_m: int | None = None
) -> WeightedGraph:
    """Read a graph file line by line. A header with more than `max_n`
    vertices or more than `max_m` edges raises `BadSize` before any edge
    line is read, and the first edge line past the header's count raises
    `ParseError` before it is kept."""
    n = None
    m = None
    # Keyed by canonical pair in first-seen order; a lower duplicate keeps the slot.
    best: dict[tuple[int, int], float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if n is None:
                if fields[0] != "p" or len(fields) != 3:
                    raise ParseError("expected header `p <n> <m>`", lineno)
                try:
                    n, m = int(fields[1]), int(fields[2])
                except ValueError:
                    raise ParseError("non-integer header fields", lineno) from None
                if n < 0 or m < 0:
                    raise ParseError("negative counts in header", lineno)
                if max_n is not None and n > max_n:
                    raise BadSize(f"n={n}, limit {max_n}")
                if max_m is not None and m > max_m:
                    raise BadSize(f"m={m}, limit {max_m}")
                left = m
                continue
            if fields[0] != "e" or len(fields) != 4:
                raise ParseError("expected edge line `e <u> <v> <length>`", lineno)
            if left == 0:
                raise ParseError(f"more edge lines than the header's {m}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise ParseError("malformed edge fields", lineno) from None
            if not 0 <= u < n or not 0 <= v < n:
                raise ParseError(f"vertex id out of range 0..{n - 1}", lineno)
            if u == v:
                raise InvariantViolation(f"line {lineno}: self-loop at {u}")
            if not 0 < w < math.inf:
                raise InvariantViolation(
                    f"line {lineno}: edge length {w} must be positive and finite"
                )
            key = (min(u, v), max(u, v))
            best[key] = min(best.get(key, w), w)
            left -= 1
    if n is None:
        raise ParseError("missing header", 1)
    if left != 0:
        raise ParseError(f"{left} fewer edge lines than the header's {m}", lineno)
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in best.items()))
