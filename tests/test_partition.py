import math
import random

import pytest
from oracles import (
    EdgeNotInGraph,
    check_partition_validity,
    count_cut_edges,
    diameter,
    max_cluster_diameter,
)

from mfembed.errors import DisconnectedGraph, InvariantViolation
from mfembed.generators import generate
from mfembed.graphs import WeightedGraph
from mfembed.partition import sample_exponential, single_level_partition


class FixedUniform:
    """Stands in for random.Random; yields scripted random() values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def five_path():
    return WeightedGraph(5, tuple((i, i + 1, 1.1) for i in range(4)))


def zero_x(_rng):
    return 0.0


# --------------------------------------------------------------- exponential


def test_sample_exponential_endpoints():
    assert sample_exponential(FixedUniform([0.0])) == 0.0
    assert sample_exponential(FixedUniform([1.0 - math.exp(-1.0)])) == pytest.approx(1.0, rel=1e-12)


def test_sample_exponential_mean():
    rng = random.Random(123)
    n = 100_000
    mean = sum(sample_exponential(rng) for _ in range(n)) / n
    assert abs(mean - 1.0) <= 0.02


def test_sample_exponential_reproducible():
    a = [sample_exponential(random.Random(7)) for _ in range(3)]
    b = [sample_exponential(random.Random(7)) for _ in range(3)]
    assert a == b


# ------------------------------------------------------------------- carving


def test_single_vertex_single_cluster():
    c = single_level_partition(WeightedGraph(1, ()), 5.0, random.Random(0))
    assert c.clusters == ((0,),) and c.centers == (0,)


def test_radius_at_least_diameter_gives_one_part():
    g = generate("grid", rows=3, cols=3)
    c = single_level_partition(g, diameter(g), random.Random(0))
    assert len(c) == 1 and set(c.clusters[0]) == set(range(g.n))
    assert c.centers == (0,) and c.radii[0] >= diameter(g)


def test_five_path_hand_simulation(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    c = single_level_partition(five_path(), 1.2, random.Random(0))
    assert c.clusters == ((0, 1), (2, 3), (4,))
    assert c.centers == (0, 2, 4)
    assert c.radii == (1.2, 1.2, 1.2)


def test_order_controls_first_center(monkeypatch):
    # carving from the middle first changes the outcome
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    c = single_level_partition(five_path(), 1.2, random.Random(0), order=[2, 0, 1, 3, 4])
    assert c.centers[0] == 2
    assert set(c.clusters[0]) == {1, 2, 3}


class ScriptedX:
    def __init__(self, values):
        self.values = list(values)

    def __call__(self, _rng):
        return self.values.pop(0)


def test_ball_uses_free_subgraph_distances(monkeypatch):
    # v0 and v2 are joined only through v1. Carve v1 alone first; then a
    # huge ball around v0 must not reach v2 because the connecting vertex
    # is no longer free.
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    monkeypatch.setattr("mfembed.partition.sample_exponential", ScriptedX([0.0, 5.0, 0.0]))
    c = single_level_partition(g, 0.5, random.Random(0), order=[1, 0, 2])
    assert c.clusters == ((1,), (0,), (2,))
    assert c.radii[1] == 3.0


def test_tie_at_exact_radius_included(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = WeightedGraph(2, ((0, 1, 1.5),))
    c = single_level_partition(g, 1.5, random.Random(0))
    assert len(c) == 1  # also covered by the r >= diameter rule
    c = single_level_partition(five_path(), 1.1, random.Random(0))
    assert c.clusters[0] == (0, 1)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        single_level_partition(WeightedGraph(3, ((0, 1, 1.0),)), 1.0, random.Random(0))


def test_bad_radius_and_missing_rng(monkeypatch):
    g = five_path()
    with pytest.raises(InvariantViolation):
        single_level_partition(g, 0.0, random.Random(0))
    with pytest.raises(InvariantViolation):  # NaN would carve empty balls forever
        single_level_partition(g, float("nan"), random.Random(0))
    with pytest.raises(TypeError):  # the rng is a required argument
        single_level_partition(g, 1.0)
    monkeypatch.setattr("mfembed.partition.sample_exponential", lambda _rng: -0.5)
    with pytest.raises(InvariantViolation):  # a negative radius sample is refused
        single_level_partition(g, 1.0, random.Random(0))


def test_partition_validity_and_p1_across_seeds():
    instances = [
        generate("grid", rows=5, cols=5),
        generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=3),
        generate("cycle", size=12),
        generate("star", size=8),
    ]
    for g in instances:
        d = diameter(g)
        for seed in range(30):
            c = single_level_partition(g, d / 4, random.Random(seed))
            check_partition_validity(g, c)


def test_determinism_same_seed():
    g = generate("grid", rows=5, cols=5)
    a = single_level_partition(g, 2.0, random.Random(42))
    b = single_level_partition(g, 2.0, random.Random(42))
    assert a == b
    c = single_level_partition(g, 2.0, random.Random(43))
    assert a != c


def test_cluster_diameter_monte_carlo_smoke():
    # light version of the radius tail bound: fraction of runs with any
    # cluster of induced diameter above 2r(t+1+ln n) at t=2
    g = generate("grid", rows=5, cols=5)
    d = diameter(g)
    r = d / 5
    t = 2.0
    bound = 2 * r * (t + 1 + math.log(g.n))
    n_runs = 200
    bad = 0
    for seed in range(n_runs):
        c = single_level_partition(g, r, random.Random(seed))
        if max_cluster_diameter(g, c) > bound:
            bad += 1
    assert bad / n_runs <= math.exp(-t) + 3 * math.sqrt(math.exp(-t) / n_runs)


# ------------------------------------------------------------ cut edge count


def test_count_cut_edges_whole_graph_cluster():
    g = five_path()
    c = single_level_partition(g, diameter(g) + 1, random.Random(0))
    assert count_cut_edges(g, [0, 1, 2, 3, 4], c) == 0


def test_count_cut_edges_discrete(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    c = single_level_partition(g, 0.5, random.Random(0))
    assert [len(x) for x in c.clusters] == [1] * 5
    assert count_cut_edges(g, [0, 1, 2, 3, 4], c) == 4


def test_count_cut_edges_hand_example(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    c = single_level_partition(g, 1.2, random.Random(0))
    assert count_cut_edges(g, [0, 1, 2, 3, 4], c) == 2


def test_count_cut_edges_rejects_non_edges(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    c = single_level_partition(g, 1.2, random.Random(0))
    with pytest.raises(EdgeNotInGraph):
        count_cut_edges(g, [0, 2], c)
