import math
import random

import pytest
from oracles import (
    EdgeNotInGraph,
    carve_by_heap,
    check_partition_validity,
    count_cut_edges,
    diameter,
    max_cluster_diameter,
)

from mfembed.errors import InvariantViolation
from mfembed.generators import generate
from mfembed.graphs import WeightedGraph
from mfembed.partition import carve, sample_exponential


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


def carve_all(g, r, rng, order=None):
    """One carving of the whole graph, in vertex order unless `order` is given."""
    return carve(g, range(g.n) if order is None else order, [True] * g.n, r, rng)


def members_of(balls):
    return [members for _, members, _ in balls]


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
    assert carve_all(WeightedGraph(1, ()), 5.0, random.Random(0))[0][:2] == (0, [0])


def test_carving_the_uniform_grid3_gives_the_recorded_balls():
    # the balls that the former `mfembed partition --r 1.5 --seed 2` printed
    g = generate("grid", rows=3, cols=3, weights="uniform:1:4", seed=1)
    balls = carve_all(g, 1.5, random.Random(2))
    assert [(center, members, f"{rv:.6g}") for center, members, rv in balls] == [
        (0, [0, 1, 2, 3, 4, 7], "6.18652"),
        (5, [5, 8], "5.9298"),
        (6, [6], "1.58732"),
    ]


def test_radius_at_least_diameter_gives_one_part():
    g = generate("grid", rows=3, cols=3)
    (ball,) = carve_all(g, diameter(g), random.Random(0))
    assert ball[:2] == (0, list(range(g.n))) and ball[2] >= diameter(g)


def test_five_path_hand_simulation(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    balls = carve_all(five_path(), 1.2, random.Random(0))
    assert balls == [(0, [0, 1], 1.2), (2, [2, 3], 1.2), (4, [4], 1.2)]


def test_order_controls_first_center(monkeypatch):
    # carving from the middle first changes the outcome
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    balls = carve_all(five_path(), 1.2, random.Random(0), order=[2, 0, 1, 3, 4])
    assert balls[0][:2] == (2, [1, 2, 3])


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
    balls = carve_all(g, 0.5, random.Random(0), order=[1, 0, 2])
    assert members_of(balls) == [[1], [0], [2]]
    assert balls[1][2] == 3.0


def test_carving_a_cluster_in_place_leaves_the_rest_alone(monkeypatch):
    # Only 1, 2 and 3 of the path are free: a huge ball from 1 stops at the
    # free vertices and unmarks exactly them.
    monkeypatch.setattr("mfembed.partition.sample_exponential", ScriptedX([9.0]))
    free = [False, True, True, True, False]
    balls = carve(five_path(), [1, 2, 3], free, 1.0, random.Random(0))
    assert balls == [(1, [1, 2, 3], 10.0)]
    assert free == [False] * 5


def test_tie_at_exact_radius_included(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = WeightedGraph(2, ((0, 1, 1.5),))
    assert members_of(carve_all(g, 1.5, random.Random(0))) == [[0, 1]]
    assert carve_all(five_path(), 1.1, random.Random(0))[0][1] == [0, 1]


def test_negative_sample_and_missing_rng_are_refused(monkeypatch):
    g = five_path()
    with pytest.raises(TypeError):  # the rng is a required argument
        carve(g, range(5), [True] * 5, 1.0)
    monkeypatch.setattr("mfembed.partition.sample_exponential", lambda _rng: -0.5)
    with pytest.raises(InvariantViolation):  # a negative radius sample is refused
        carve_all(g, 1.0, random.Random(0))


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
            check_partition_validity(g, carve_all(g, d / 4, random.Random(seed)))


@pytest.mark.parametrize("length", [1.0, 2.0, 0.1, 1 / 3])
def test_carving_matches_the_heap_on_equal_lengths(length):
    # In place on a vertex subset in a shuffled order, as a chain carves a
    # cluster, with radii below, at and above the edge length.
    rng = random.Random(repr(length))
    shapes = [
        generate("cycle", size=64),
        generate("grid", rows=8, cols=8),
        generate("path", size=50),
        generate("star", size=15),
    ]
    for shape in shapes:
        g = WeightedGraph(shape.n, tuple((u, v, length) for u, v, _ in shape.edges))
        for seed in range(6):
            order = rng.sample(range(g.n), rng.randint(1, g.n))
            for r in (0.3 * length, length, 2.5 * length, 10.0 * length):
                free = [False] * g.n
                for v in order:
                    free[v] = True
                heap_free = list(free)
                got = carve(g, order, free, r, random.Random(seed))
                assert got == carve_by_heap(g, order, heap_free, r, random.Random(seed))
                assert free == heap_free == [False] * g.n


def test_determinism_same_seed():
    g = generate("grid", rows=5, cols=5)
    a = carve_all(g, 2.0, random.Random(42))
    assert a == carve_all(g, 2.0, random.Random(42))
    assert a != carve_all(g, 2.0, random.Random(43))


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
        if max_cluster_diameter(g, carve_all(g, r, random.Random(seed))) > bound:
            bad += 1
    assert bad / n_runs <= math.exp(-t) + 3 * math.sqrt(math.exp(-t) / n_runs)


# ------------------------------------------------------------ cut edge count


def test_count_cut_edges_whole_graph_cluster():
    g = five_path()
    balls = carve_all(g, diameter(g) + 1, random.Random(0))
    assert count_cut_edges(g, [0, 1, 2, 3, 4], balls) == 0


def test_count_cut_edges_discrete(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    balls = carve_all(g, 0.5, random.Random(0))
    assert members_of(balls) == [[v] for v in range(5)]
    assert count_cut_edges(g, [0, 1, 2, 3, 4], balls) == 4


def test_count_cut_edges_hand_example(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    assert count_cut_edges(g, [0, 1, 2, 3, 4], carve_all(g, 1.2, random.Random(0))) == 2


def test_count_cut_edges_rejects_non_edges(monkeypatch):
    monkeypatch.setattr("mfembed.partition.sample_exponential", zero_x)
    g = five_path()
    balls = carve_all(g, 1.2, random.Random(0))
    with pytest.raises(EdgeNotInGraph):
        count_cut_edges(g, [0, 2], balls)
