"""Benchmark instance generators. All shapes are planar by construction."""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import chain, repeat

from .errors import BadSize
from .graphs import WeightedGraph

KINDS = ("grid", "cycle", "star", "path")


def _weights(model: str, seed: int) -> Iterator[float]:
    """Edge lengths, one per edge in edge order; uniform ones from one RNG."""
    if model == "unit":
        return repeat(1.0)
    if model.startswith("uniform:"):
        try:
            _, lo_s, hi_s = model.split(":")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise BadSize(f"bad weight model {model!r}") from exc
        if not 0 < lo <= hi < math.inf:
            raise BadSize("uniform weights need finite bounds 0 < lo <= hi")
        return map(random.Random(seed).uniform, repeat(lo), repeat(hi))
    raise BadSize(f"unknown weight model {model!r}")


def grid_edges(rows: int, cols: int) -> Iterator[tuple[int, int]]:
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                yield v, v + 1
            if r + 1 < rows:
                yield v, v + cols


def generate(
    kind: str,
    *,
    rows: int = 0,
    cols: int = 0,
    size: int = 0,
    weights: str = "unit",
    seed: int = 0,
) -> WeightedGraph:
    """Build a named instance; deterministic for a given seed.

    grid uses rows x cols; cycle/path use `size` vertices; star uses `size`
    leaves around center vertex 0. The edges are made one at a time into the
    graph's edge tuple, with no list of endpoints or lengths beside it.
    """
    if kind == "grid":
        if rows < 1 or cols < 1:
            raise BadSize("grid needs rows >= 1 and cols >= 1")
        n = rows * cols
        edges = grid_edges(rows, cols)
    elif kind == "cycle":
        if size < 3:
            raise BadSize("cycle needs at least 3 vertices")
        n = size
        edges = chain(zip(range(size - 1), range(1, size)), [(0, size - 1)])
    elif kind == "star":
        if size < 1:
            raise BadSize("star needs at least 1 leaf")
        n = size + 1
        edges = zip(repeat(0), range(1, n))
    elif kind == "path":
        if size < 1:
            raise BadSize("path needs at least 1 vertex")
        n = size
        edges = zip(range(size - 1), range(1, size))
    else:
        raise BadSize(f"unknown kind {kind!r}")
    ws = _weights(weights, seed)
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(edges, ws)))
