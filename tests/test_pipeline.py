"""Seeded end-to-end stress tests over random connected instances: every
field of `embed_top`'s embedding against the reference composition
`oracles.embed_by_reference`, and FRT trees."""

import math
import random

import oracles
import pytest
from oracles import all_pairs, check_leaf_rows, embed_by_reference

import mfembed.hierarchy as hierarchy
import mfembed.partition as partition
from mfembed.embedder import embed_top
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import WeightedGraph, dijkstra
from mfembed.hierarchy import ClusteringChain
from mfembed.hosts import check_forest_validity, embedding_to_json

TOL = 1e-9


def random_connected_graph(rng, n_max=24, w_lo=0.5, w_hi=5.0):
    n = rng.randint(2, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        while u == v:
            u, v = rng.randrange(n), rng.randrange(n)
        if (min(u, v), max(u, v)) not in edges:
            edges.append((min(u, v), max(u, v)))
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


def reference_cases(rng, count):
    """(graph, mode, seed) of `count` random connected graphs of 2 to 40
    vertices: unit, uniform(1, 4) and uniform(0.5, 5) lengths in turn, each
    mode on every other pair, and seeds 0 to 2 on every third triple."""
    for i in range(count):
        g = random_connected_graph(rng, 40, *((1.0, 1.0), (1.0, 4.0), (0.5, 5.0))[i % 3])
        yield g, ("practical", "theory")[i // 2 % 2], i // 3 % 3


def assert_is_the_reference(g, mode, seed):
    """`embed_top(..., leaf_rows=True)` of g, required to equal the reference
    composition field by field; with no fallback its depth stays within
    1 + tau * hat_ell * ceil(log2 n)."""
    got = embed_top(g, 0.5, mode, seed, leaf_rows=True)
    want = embed_by_reference(g, 0.5, mode, seed)
    # the lengths are nonnegative floats, equal exactly when their bits are
    assert got.forest == want.forest
    assert got.eta == want.eta
    assert got.host == want.host
    assert got.meta == want.meta
    assert got.leaf_rows == want.leaf_rows
    if not got.meta.fallback_used:
        meta = got.meta
        assert got.depth <= 1 + meta.params.tau * meta.hat_ell * max(1, (g.n - 1).bit_length())
    return got


@pytest.mark.parametrize("scenario", ["plain", "wide-balls", "small-sigma"])
def test_embed_top_is_the_reference_composition(monkeypatch, scenario):
    # With every radius draw ten times too large, many chains are not flat
    # and some fail a diameter; with sigma at 6.5, some fail a quotient
    # below the root. Every fallback and every fifth embedding pass
    # `check_embedding`; every fifth is also made twice, to the same JSON,
    # and has its leaf rows checked against the labels built on its host.
    if scenario == "wide-balls":
        real_draw = partition.sample_exponential
        monkeypatch.setattr(partition, "sample_exponential", lambda rng: 10.0 * real_draw(rng))
    elif scenario == "small-sigma":
        real_constants = hierarchy.chain_constants
        monkeypatch.setattr(
            hierarchy, "chain_constants", lambda *a: (real_constants(*a)[0], 6.5)
        )
    flat = []
    real_chain = oracles.chain_by_subgraphs

    def recorded(g, delta, rng):
        chain = real_chain(g, delta, rng)
        flat.append(not isinstance(chain, ClusteringChain) or chain.flat)
        return chain

    monkeypatch.setattr(oracles, "chain_by_subgraphs", recorded)
    nonflat = fallbacks = below_root = differ = 0
    cases = reference_cases(random.Random(36), 300 if scenario == "plain" else 60)
    for i, (g, mode, seed) in enumerate(cases):
        before = len(flat)
        emb = assert_is_the_reference(g, mode, seed)
        nonflat += not all(flat[before:])
        fallbacks += emb.meta.fallback_used
        below_root += emb.meta.fallback_used and emb.meta.split_calls > 1
        if emb.meta.fallback_used:
            check_embedding(g, emb)
        elif i % 5 == 0:
            check_embedding(g, emb)
            again = embed_top(g, 0.5, mode, seed)
            assert embedding_to_json(again) == embedding_to_json(emb)
            differ += check_leaf_rows(g, emb)
    if scenario == "plain":
        assert fallbacks == 0 and differ > 0 and nonflat >= 5
    elif scenario == "wide-balls":
        assert nonflat >= 30 and fallbacks >= 10 and below_root > 0
    else:
        assert fallbacks >= 10 and below_root > 0


def test_fallback_hand_over_is_the_reference_composition(monkeypatch, fail_chain_at):
    # Each chain build of a random split fails in both routes.
    rng = random.Random(31)
    for g, mode, seed in reference_cases(rng, 40):
        monkeypatch.undo()
        probe = embed_top(g, 0.5, mode, seed)
        fail_chain_at(rng.randrange(probe.meta.split_calls))
        emb = assert_is_the_reference(g, mode, seed)
        assert emb.meta.fallback_used and emb.meta.fallback_reason.reason == "Injected"
        check_embedding(g, emb)


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
