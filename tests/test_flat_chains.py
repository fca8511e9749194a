"""Flat chains: carving's per-center test, the chain built directly when the
root's carving leaves only singletons, and the split that takes its one cut
without a packing, each against the references in `oracles`: the heap
carving, the chain carved on one subgraph per cluster and the split through
a packing on every chain."""

import math
import random
from dataclasses import fields, replace

import pytest
import oracles
from oracles import carve_by_heap, split_by_packing

import mfembed.cutpack as cutpack
import mfembed.hierarchy as hierarchy
from mfembed.embedder import SplitResult, prepare, split
from mfembed.errors import InvariantViolation
from mfembed.graphs import WeightedGraph
from mfembed.hierarchy import ChainFailure, ClusteringChain, build_chain
from mfembed.partition import carve


def random_connected(rng, n, unit):
    """A random spanning tree on n vertices plus up to n more edges, with
    unit or uniform(1, 4) lengths."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n) if n > 2 else 0):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return WeightedGraph(n, tuple((u, v, 1.0 if unit else rng.uniform(1.0, 4.0))
                                  for u, v in sorted(pairs)))


def prepared_graphs(count, seed):
    """`count` random connected graphs of 2 to 40 vertices, alternately
    with unit and uniform(1, 4) lengths, as every split starts from them:
    closed and rescaled, with their practical-mode parameters."""
    rng = random.Random(seed)
    for i in range(count):
        g = random_connected(rng, rng.randint(2, 40), unit=i % 2 == 0)
        prepared = prepare(g, 0.5)
        yield prepared.scaled, prepared.params


def is_flat(chain):
    return isinstance(chain, ClusteringChain) and chain.flat


def assert_same_chain(got, want):
    if isinstance(want, ChainFailure):
        assert got == want
        return
    assert isinstance(got, ClusteringChain)
    for f in fields(ClusteringChain):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def reference_chains(monkeypatch):
    """The list of each chain or failure that `split_by_packing` builds."""
    chains = []
    real = oracles.chain_by_subgraphs

    def recorded(*args):
        chains.append(real(*args))
        return chains[-1]

    monkeypatch.setattr(oracles, "chain_by_subgraphs", recorded)
    return chains


class FirstDrawHuge(random.Random):
    """A stream whose first `random()` is the largest float below 1, so the
    first exponential drawn from it is -ln(2**-53), about 36.7."""

    def __init__(self, seed):
        super().__init__(seed)
        self.fresh = True

    def random(self):
        if self.fresh:
            self.fresh = False
            return 1.0 - 2.0**-53
        return super().random()


class ZeroDraws(random.Random):
    """A stream whose exponentials are all -ln(1.0) = -0.0, so every
    carving radius r * (1 + x) is r itself."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_chain_and_split_match_the_level_by_level_references(monkeypatch, seed):
    # 130 graphs per seed, three streams each; most chains are flat, and
    # every flat one must be the chain and split the references build. The
    # second and third streams split with tau at 1 and 2, so that bags of
    # one to three members fall on both sides of it.
    chains = reference_chains(monkeypatch)
    flat = other = oversize = 0
    for g, params in prepared_graphs(130, seed):
        for stream in range(3):
            got = build_chain(g, params.delta, random.Random(stream))
            at = replace(params, tau=stream) if stream else params
            want = split_by_packing(g, at, random.Random(stream))
            assert_same_chain(got, chains[-1])
            flat += is_flat(got)
            other += not is_flat(got)
            assert split(g, at, random.Random(stream)) == want
            oversize += sum(len(cut) > at.tau for cut, _ in want.cuts)
    assert flat > 100 and other > 10 and oversize > 100


def test_flat_split_refuses_an_unbalanced_bag_as_the_packing_does(monkeypatch):
    # A separator that returns the one vertex at a third of the ids leaves a
    # component of more than half the vertices on some graphs, and both
    # routes must refuse the same cuts.
    monkeypatch.setattr(
        cutpack, "centroid_separator", lambda adjacency, weights: frozenset({len(adjacency) // 3})
    )
    outcomes = []
    for g, params in prepared_graphs(200, 8):
        pair = []
        for route in (split, split_by_packing):
            try:
                pair.append(route(g, params, random.Random(0)))
            except InvariantViolation as exc:
                pair.append(str(exc))
        assert pair[0] == pair[1]
        outcomes.append(pair[0])
    assert "constructed cut is not balanced" in outcomes
    assert any(isinstance(result, SplitResult) for result in outcomes)


def test_chains_forced_past_the_root_carving_match_the_reference(monkeypatch):
    # The first exponential of the stream is huge, so the root's first ball
    # is wide and the levels below go on from the root's carving.
    chains = reference_chains(monkeypatch)
    flat = other = 0
    for g, params in prepared_graphs(150, 5):
        got = build_chain(g, params.delta, FirstDrawHuge(0))
        want = split_by_packing(g, params, FirstDrawHuge(0))
        assert_same_chain(got, chains[-1])
        flat += is_flat(got)
        other += not is_flat(got)
        assert split(g, params, FirstDrawHuge(0)) == want
    assert other > 100


@pytest.mark.parametrize("sigma", [0.5, 2.5, 6.5])
def test_flat_chains_are_checked_when_sigma_is_below_n_minus_1(monkeypatch, sigma):
    # With sigma < n - 1 a flat chain is not returned as built: the
    # goodness check measures the root's quotient, which is the graph.
    real = hierarchy.chain_constants
    monkeypatch.setattr(hierarchy, "chain_constants", lambda *a: (real(*a)[0], sigma))
    chains = reference_chains(monkeypatch)
    outcomes = {"flat": 0, "failure": 0}
    for g, params in prepared_graphs(120, 6):
        for stream in range(2):
            got = build_chain(g, params.delta, random.Random(stream))
            want = split_by_packing(g, params, random.Random(stream))
            assert_same_chain(got, chains[-1])
            outcomes["flat"] += is_flat(got) and g.n - 1 > sigma
            outcomes["failure"] += isinstance(got, ChainFailure)
            assert split(g, params, random.Random(stream)) == want
    assert outcomes["failure"] > 0
    if sigma > 1:
        assert outcomes["flat"] > 0


def test_carving_matches_the_heap_near_the_incident_lengths():
    # Fractional lengths, radii at, just below and just above each center's
    # incident lengths, with every radius draw zero, and in place on masked
    # vertex subsets in shuffled orders.
    rng = random.Random(7)
    singles = searched = 0
    for i in range(120):
        g = random_connected(rng, rng.randint(2, 30), unit=False)
        lengths = sorted({w for _, _, w in g.edges})
        radii = [f(w) for w in rng.sample(lengths, min(4, len(lengths)))
                 for f in (lambda w: w, lambda w: math.nextafter(w, 0.0),
                           lambda w: math.nextafter(w, math.inf))]
        for r in radii:
            order = rng.sample(range(g.n), rng.randint(1, g.n))
            free = [False] * g.n
            for v in order:
                free[v] = True
            heap_free = list(free)
            got = carve(g, order, free, r, ZeroDraws())
            assert got == carve_by_heap(g, order, heap_free, r, ZeroDraws())
            assert free == heap_free == [False] * g.n
            singles += sum(len(members) == 1 for _, members, _ in got)
            searched += sum(len(members) > 1 for _, members, _ in got)
            # and with the radius drawn, on the whole graph
            got = carve(g, range(g.n), [True] * g.n, r / 2.0, random.Random(i))
            assert got == carve_by_heap(g, range(g.n), [True] * g.n, r / 2.0, random.Random(i))
    assert singles > 100 and searched > 100
