"""The FRT tree from least-element lists against its former matrix construction."""

import random
import tracemalloc

import pytest
from oracles import diameter, frt_by_matrix, least_element_lists_by_heap
from test_hierarchy import count_runs
from test_pipeline import random_connected_graph

import mfembed.frt as frt
from mfembed.cli import main
from mfembed.errors import DisconnectedGraph, PreconditionViolation
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphio import save_graph
from mfembed.graphs import WeightedGraph
from mfembed.hierarchy import diameter_level, level_count_for_diameter
from mfembed.hosts import embedding_to_json


def assert_same_as_matrix(g, seeds):
    for seed in seeds:
        assert embedding_to_json(frt_embed(g, seed)) == embedding_to_json(frt_by_matrix(g, seed))


def test_matches_matrix_on_random_float_graphs():
    rng = random.Random(17)
    for trial in range(40):
        g = random_connected_graph(rng, n_max=40)
        assert_same_as_matrix(g, [trial, trial + 100])


def test_matches_matrix_on_wide_float_scales():
    rng = random.Random(3)
    for trial in range(10):
        g = random_connected_graph(rng, n_max=30, w_lo=1e-3, w_hi=1e3)
        assert_same_as_matrix(g, [trial])


@pytest.mark.parametrize(
    "instance",
    [
        dict(kind="grid", rows=9, cols=9),
        dict(kind="grid", rows=5, cols=12),
        dict(kind="cycle", size=40),
        dict(kind="cycle", size=37),
        dict(kind="star", size=30),
        dict(kind="grid", rows=6, cols=6, weights="uniform:1:4", seed=2),
    ],
    ids=["grid9", "grid5x12", "cycle40", "cycle37", "star30", "grid6-uniform"],
)
def test_matches_matrix_on_unit_weights_with_ties(instance):
    assert_same_as_matrix(generate(**instance), range(6))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_matches_matrix_when_scaled_diameter_is_a_power_of_two(k):
    # 2 * diam / dmin = 2**(k+1) exactly, on the level boundary
    g = generate("path", size=2**k + 1)
    assert diameter_level(g, dmin=g.min_edge_length()) == k + 1
    assert_same_as_matrix(g, range(4))


def test_matches_matrix_on_unit_cycle_512():
    g = generate("cycle", size=512)
    assert diameter_level(g, dmin=1.0) == 9  # 2 * 256 / 1 = 2**9
    assert_same_as_matrix(g, [1, 2])


@pytest.mark.parametrize("length", [1.0, 0.1, 1 / 3])
def test_lists_and_trees_match_the_heap_on_equal_lengths(length, monkeypatch):
    shapes = [
        generate("cycle", size=64),
        generate("grid", rows=7, cols=7),
        generate("path", size=30),
        generate("star", size=10),
    ]
    for shape in shapes:
        g = WeightedGraph(shape.n, tuple((u, v, length) for u, v, _ in shape.edges))
        trees = []
        for seed in range(3):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            lists = frt._least_element_lists(g, perm, length)
            assert lists == least_element_lists_by_heap(g, perm, length)
            trees.append(embedding_to_json(frt_embed(g, seed)))
        monkeypatch.setattr(frt, "_least_element_lists", least_element_lists_by_heap)
        assert [embedding_to_json(frt_embed(g, seed)) for seed in range(3)] == trees
        monkeypatch.undo()


def test_matches_matrix_with_a_distance_exactly_at_the_radius():
    # frt_embed draws perm, then beta, from Random(seed). With perm[0] == 1
    # and an edge (1, 2) of length beta, vertex 2 lies exactly at the
    # level-2 radius 2 * beta from vertex 1, which must still be its center.
    seed = 0
    while True:
        rng = random.Random(seed)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        beta = 2.0 ** rng.random()
        if perm[0] == 1:
            break
        seed += 1
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, beta)))
    assert_same_as_matrix(g, [seed])
    # root 3 above one level-2 cluster 4 = {0, 1, 2}, which splits into singletons
    assert frt_embed(g, seed).forest == [4, 4, 4, None, 3]


def test_diameter_level_at_frt_scale():
    rng = random.Random(8)
    for _ in range(20):
        g = random_connected_graph(rng)
        dmin = g.min_edge_length()
        expected = max(1, level_count_for_diameter(2.0 * diameter(g) / dmin))
        assert diameter_level(g, dmin=dmin) == expected


def test_diameter_level_at_frt_scale_on_integer_lengths():
    # Integer lengths take the exact comparison; a closest pair of 3 makes
    # 2 * sum / dmin round.
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_graph(rng, n_max=40)
        g = WeightedGraph(g.n, tuple((u, v, float(round(3 * w))) for u, v, w in g.edges))
        assert g.exact_path_sums
        dmin = g.min_edge_length()
        expected = max(1, level_count_for_diameter(2.0 * diameter(g) / dmin))
        assert diameter_level(g, dmin=dmin) == expected


def boundary_graphs():
    """Graphs whose 2 * diam / dmin is small or sits next to a power of two,
    where a floor of 1 on the tree's top level could matter: single edges
    (diam = dmin), stars (diam = 2 * dmin), and 3-vertex paths of lengths
    dmin and w with 2 * (dmin + w) / dmin just below or just above 2**k.
    dmin is a power of two, so that quotient is exact."""
    out = [WeightedGraph(2, ((0, 1, w),)) for w in (1.0, 0.3, 5e-7)]
    out.append(generate("star", size=9))
    out.append(WeightedGraph(6, tuple((0, v, 0.3) for v in range(1, 6))))
    for dmin in (1.0, 0.25):
        for k in (3, 4, 6):
            w = (2.0 ** (k - 1) - 1.0) * dmin
            for step in (-1, 1):
                g = WeightedGraph(3, ((0, 1, dmin), (1, 2, w * (1.0 + step * 2.0**-50))))
                assert (2.0 * diameter(g) / dmin > 2.0**k) == (step > 0)
                out.append(g)
    return out


def test_diameter_level_at_frt_scale_needs_no_floor():
    # The first run's eccentricity is at least dmin, so the top level is at
    # least 1 without a floor, and the tree matches the matrix construction.
    for g in boundary_graphs():
        dmin = g.min_edge_length()
        want = max(1, level_count_for_diameter(2.0 * diameter(g) / dmin))
        assert diameter_level(g, dmin=dmin) == want
        assert_same_as_matrix(g, range(4))


def test_diameter_level_at_frt_scale_takes_two_runs_on_unit_cycle_512(monkeypatch):
    g = generate("cycle", size=512)
    runs = count_runs(monkeypatch)
    assert diameter_level(g, dmin=1.0) == 9
    assert len(runs) == 2


@pytest.mark.parametrize(
    "g",
    [
        WeightedGraph(2, ()),
        WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0))),
        WeightedGraph(4, ((0, 1, 1e308), (2, 3, 1.0))),
    ],
    ids=["edgeless-pair", "path-plus-isolated", "huge-edge-plus-edge"],
)
def test_disconnected_input_raises(g, tmp_path):
    with pytest.raises(DisconnectedGraph):
        frt_embed(g, 0)
    save_graph(g, tmp_path / "g.txt")
    assert main(["frt", "-i", str(tmp_path / "g.txt"), "-o", str(tmp_path / "t.json")]) == 2
    assert not (tmp_path / "t.json").exists()


def test_diameter_whose_level_overflows_is_refused(tmp_path):
    # 2 * diam / dmin is about 1e308: finite, but above 2**1023, so the
    # tree's top level would be 1024 and 2.0**1024 overflows a float
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 5e307)))
    with pytest.raises(PreconditionViolation, match="overflows a float"):
        diameter_level(g, dmin=1.0)
    with pytest.raises(PreconditionViolation, match="overflows a float"):
        frt_embed(g, 0)


def test_peak_memory_on_grid30_holds_no_distance_matrix():
    # A 900 x 900 matrix of floats alone takes over 20 MB.
    g = generate("grid", rows=30, cols=30)
    g.adjacency
    tracemalloc.start()
    try:
        frt_embed(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_frt_embed_walks_for_connectivity_only_when_it_measures_its_top(connectivity_walks):
    g = generate("grid", rows=5, cols=6, weights="uniform:1:4", seed=2)
    top = frt.top_level(g, g.min_edge_length())
    walks = connectivity_walks(g)
    for seed in range(3):
        frt_embed(g, seed, top=top)
    assert walks == []
    frt_embed(g, 0)
    assert len(walks) == 1


def test_frt_embed_with_the_shared_top_level_equals_frt_embed_without():
    rng = random.Random(5)
    instances = [
        generate("cycle", size=64),
        generate("grid", rows=5, cols=6, weights="uniform:1:4", seed=2),
        WeightedGraph(2, ((0, 1, 0.5),)),
    ] + [random_connected_graph(rng, n_max=30) for _ in range(4)]
    for g in instances:
        top = frt.top_level(g, g.min_edge_length())
        for seed in range(3):
            want = frt_embed(g, seed)
            assert frt_embed(g, seed, top=top) == want
            assert embedding_to_json(frt_embed(g, seed, top=top)) == embedding_to_json(want)
