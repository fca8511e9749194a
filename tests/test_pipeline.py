"""Seeded end-to-end stress tests over random connected instances."""

import math
import random

from oracles import all_pairs, check_leaf_rows

from mfembed.embedder import embed_top
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import WeightedGraph, dijkstra
from mfembed.hosts import check_forest_validity, embedding_to_json

TOL = 1e-9


def random_connected_graph(rng, n_max=24, w_lo=0.5, w_hi=5.0):
    n = rng.randint(2, n_max)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    extra = rng.randint(0, n)
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in {(a, b) for a, b in edges}:
            extra -= 1
            continue
        edges.append(key)
        extra -= 1
    return WeightedGraph(n, tuple((u, v, rng.uniform(w_lo, w_hi)) for u, v in edges))


def check_embedding(g, emb):
    dm = all_pairs(g)
    for u in range(g.n):
        row = dijkstra(emb.host, emb.eta[u])
        for v in range(g.n):
            if u == v:
                continue
            assert row[emb.eta[v]] >= dm[u][v] * (1 - TOL)
            assert row[emb.eta[v]] < math.inf
    check_forest_validity(emb)


def test_embed_random_instances():
    rng = random.Random(99)
    for trial in range(60):
        g = random_connected_graph(rng)
        emb = embed_top(g, 0.5, "practical", seed=trial)
        check_embedding(g, emb)
        if not emb.meta.fallback_used:
            bound = 1 + emb.meta.params.tau * emb.meta.hat_ell * max(
                1, (g.n - 1).bit_length()
            )
            assert emb.depth <= bound


def test_embed_random_instances_deterministic():
    rng = random.Random(7)
    for trial in range(8):
        g = random_connected_graph(rng, n_max=14)
        a = embed_top(g, 0.5, "practical", seed=1000 + trial)
        b = embed_top(g, 0.5, "practical", seed=1000 + trial)
        assert embedding_to_json(a) == embedding_to_json(b)


def test_frt_random_instances():
    rng = random.Random(4242)
    for trial in range(30):
        g = random_connected_graph(rng, n_max=20)
        emb = frt_embed(g, trial)
        check_embedding(g, emb)
        assert emb.host.m == emb.host.n - 1


def test_frt_wide_stretch():
    # distance scales spanning three orders of magnitude
    rng = random.Random(5)
    edges = []
    for v in range(1, 16):
        edges.append((rng.randrange(v), v, rng.choice([1.0, 7.0, 130.0, 999.0])))
    g = WeightedGraph(16, tuple(edges))
    for seed in range(6):
        emb = frt_embed(g, seed)
        check_embedding(g, emb)


def test_leaf_rows_on_random_instances():
    rng = random.Random(41)
    differ = 0
    for trial in range(30):
        g = random_connected_graph(rng, n_max=40)
        emb = embed_top(g, 0.5, "practical", seed=trial, leaf_rows=True)
        assert not emb.meta.fallback_used
        differ += check_leaf_rows(g, emb)
    assert differ > 0


def test_leaf_rows_on_long_fractional_paths():
    # Along a path or cycle, a label of the pruned host sums a detour's
    # lengths in another order than the row does, and on these inputs the
    # gap passes 1e-15 relative (2.4e-15 on the cycle). To first order, a
    # row lies within n roundings of the exact fragment distance, and a label
    # (at most 2n hops of such rows, summed) within 3n + 2, so the gap stays
    # under (6n + 4) * 2**-53 relative.
    for g in (
        generate("path", size=300, weights="uniform:1:4", seed=1),
        generate("cycle", size=512, weights="uniform:1:4", seed=1),
    ):
        emb = embed_top(g, 0.5, "practical", seed=2, leaf_rows=True)
        assert not emb.meta.fallback_used
        assert check_leaf_rows(g, emb, rel=(6 * g.n + 4) * 2.0**-53) > 0


def test_fallback_injection_random_points(monkeypatch, fail_chain_at):
    rng = random.Random(31)
    for trial in range(12):
        g = random_connected_graph(rng, n_max=16)
        monkeypatch.undo()
        probe = embed_top(g, 0.5, "practical", seed=trial)
        if probe.meta.split_calls == 0:
            continue
        fail_at = rng.randrange(probe.meta.split_calls)
        fail_chain_at(fail_at)
        emb = embed_top(g, 0.5, "practical", seed=trial)
        assert emb.meta.fallback_used
        check_embedding(g, emb)
