import math
import random

import pytest
from oracles import (
    InvalidPartition,
    all_pairs,
    bellman_ford,
    check_derived_graph,
    components_without,
    diameter,
    diameter_by_enumeration,
    dijkstra_by_heap,
    floyd_warshall,
    induced_subgraph,
    min_distance,
    quotient,
    shortest_by_path_enumeration,
    stretch_exponent,
)

from mfembed.errors import (
    BadSize,
    DisconnectedGraph,
    InvariantViolation,
    NoEdges,
    ParseError,
)
import mfembed.graphs as graphs
from mfembed.generators import generate
from mfembed.graphio import load_graph, save_graph
from mfembed.graphs import (
    WeightedGraph,
    connected_components,
    dijkstra,
    hat_ell,
    induced_subgraphs,
    is_connected,
    metric_closure_weights,
    normalize,
    quotient_adjacency,
    search,
    search_to,
    settle,
)

INF = math.inf


def path_graph(weights):
    return WeightedGraph(len(weights) + 1, tuple((i, i + 1, w) for i, w in enumerate(weights)))


# ---------------------------------------------------------------- construction


def test_edges_canonicalized_and_validated():
    g = WeightedGraph(3, ((2, 0, 1.0),))
    assert g.edges == ((0, 2, 1.0),)
    # a canonical edge is kept as given; any other is rebuilt canonical
    kept = (1, 2, 2.5)
    g = WeightedGraph(4, (kept, [0, 1, 3], (3, 1, 1.0), (0, 3, 2)))
    assert g.edges[0] is kept
    assert g.edges == ((1, 2, 2.5), (0, 1, 3.0), (1, 3, 1.0), (0, 3, 2.0))
    assert {type(e) for e in g.edges} == {tuple}
    assert {type(w) for _, _, w in g.edges} == {float}
    with pytest.raises(InvariantViolation):
        WeightedGraph(2, ((0, 0, 1.0),))
    with pytest.raises(InvariantViolation):
        WeightedGraph(2, ((0, 1, 0.0),))
    with pytest.raises(InvariantViolation, match=r"duplicate edge \(0,1\)"):
        WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(InvariantViolation, match=r"duplicate edge \(1,3\)"):
        WeightedGraph(4, ((0, 3, 1.0), (1, 3, 1.0), (0, 2, 1.0), (3, 1, 2.0), (2, 0, 1.0)))
    with pytest.raises(InvariantViolation):
        WeightedGraph(2, ((0, 3, 1.0),))
    # a fractional id would key like another pair, (0, 3) here
    with pytest.raises(InvariantViolation, match="integers"):
        WeightedGraph(4, ((0.5, 1, 1.0), (0, 3, 1.0)))


def test_zero_lengths_only_when_allowed():
    g = WeightedGraph(2, ((0, 1, 0.0),), allow_zero=True)
    assert dijkstra(g, 0)[1] == 0.0


# ------------------------------------------------------------------- dijkstra


def test_dijkstra_two_edge_path():
    g = path_graph([2.0, 3.0])
    assert dijkstra(g, 0) == [0.0, 2.0, 5.0]


def test_dijkstra_single_vertex():
    assert dijkstra(WeightedGraph(1, ()), 0) == [0.0]


def test_dijkstra_grid_corner_matches_enumeration():
    g = generate("grid", rows=3, cols=3)
    dist = dijkstra(g, 0)
    assert dist[8] == shortest_by_path_enumeration(g, 0, 8) == 4.0


def test_dijkstra_unreachable_is_inf():
    g = WeightedGraph(3, ((0, 1, 1.0),))
    assert dijkstra(g, 0)[2] == INF


def test_dijkstra_restricted_to_allowed():
    g = generate("cycle", size=4)
    dist = [INF] * 4
    assert settle(g.adjacency, 0, dist, [True, True, True, False]) == [0, 1, 2]
    assert dist == [0.0, 1.0, 2.0, INF]  # the short way around is blocked


# ---------------------------------------------------------------- walks


def heap_runs(monkeypatch):
    """Sources of the `settle` runs that `dijkstra` makes from now on; the
    reference `dijkstra_by_heap` calls its own import, which is not counted."""
    sources = []
    real = graphs.settle

    def counted(adj, src, *args, **kwargs):
        sources.append(src)
        return real(adj, src, *args, **kwargs)

    monkeypatch.setattr(graphs, "settle", counted)
    return sources


def assert_dijkstra_matches_the_heap(g):
    """`dijkstra` from every source equals one heap run of `settle`, bit
    for bit."""
    for src in range(g.n):
        got = dijkstra(g, src)
        want = dijkstra_by_heap(g, src)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (g, src)


def random_tree(rng, n, length):
    return WeightedGraph(
        n, tuple((rng.randrange(v), v, length()) for v in range(1, n)), allow_zero=True
    )


@pytest.mark.parametrize("seed", range(20))
def test_dijkstra_matches_the_heap_on_trees_with_fractional_and_zero_lengths(seed):
    rng = random.Random(seed)
    lengths = (
        lambda: rng.uniform(0.1, 3.0),
        lambda: rng.choice((0.0, rng.uniform(0.1, 3.0))),
        lambda: rng.choice((0.1, 0.7, 1 / 3, 2.0)),
    )
    for length in lengths:
        g = random_tree(rng, rng.randint(1, 40), length)
        assert_dijkstra_matches_the_heap(g)


@pytest.mark.parametrize("length", [1.0, 3.0, 0.1, 1 / 3, 0.0])
def test_hop_walk_matches_the_heap_on_equal_lengths(length, monkeypatch):
    # Rounded sums grow along a path of 0.1s or 1/3s, and every k-edge path
    # folds to the same float, so the hop count decides each distance.
    rng = random.Random(int(length * 1000))
    shapes = [
        generate("cycle", size=300),
        generate("grid", rows=9, cols=13),
        generate("path", size=200),
        generate("star", size=12),
    ]
    shapes += [random_connected_graph(rng, rng.randint(2, 30)) for _ in range(10)]
    runs = heap_runs(monkeypatch)
    for shape in shapes:
        g = WeightedGraph(shape.n, tuple((u, v, length) for u, v, _ in shape.edges), allow_zero=True)
        assert g.common_length == length
        assert_dijkstra_matches_the_heap(g)
    assert runs == []


def assert_search_is_settle(g, src, dist, allowed=None, limit=INF):
    """`search` on `dist` lowers the entries that `settle` lowers on a copy,
    to the same bits, and returns the same vertices, nearest first."""
    heap_dist = list(dist)
    want = settle(g.adjacency, src, heap_dist, allowed, limit)
    got = search(g, src, dist, allowed, limit)
    assert list(map(float.hex, dist)) == list(map(float.hex, heap_dist)), (g, src, limit)
    assert sorted(got) == sorted(want)
    assert [dist[v] for v in got] == [heap_dist[v] for v in want]


@pytest.mark.parametrize("length", [1.0, 2.0, 0.1, 1 / 3, 0.0, 1e308])
def test_search_matches_settle_on_equal_lengths(length, monkeypatch):
    # Masks, inclusive and short limits, arrays that earlier runs lowered
    # as the least-element lists leave them or that hold arbitrary entries,
    # and 1e308 lengths, whose two-hop sums overflow to INF.
    rng = random.Random(repr(length))
    shapes = [
        generate("cycle", size=60),
        generate("grid", rows=6, cols=7),
        generate("path", size=40),
        generate("star", size=12),
    ]
    shapes += [random_connected_graph(rng, rng.randint(2, 30)) for _ in range(8)]
    runs = heap_runs(monkeypatch)
    for shape in shapes:
        g = WeightedGraph(shape.n, tuple((u, v, length) for u, v, _ in shape.edges), allow_zero=True)
        sums = sorted({d for d in dijkstra_by_heap(g, 0) if d < INF})
        for _ in range(4):
            src = rng.randrange(g.n)
            allowed = [rng.random() < 0.7 for _ in range(g.n)]
            for limit in (INF, rng.choice(sums), rng.uniform(0.0, sums[-1]), length / 2):
                assert_search_is_settle(g, src, [INF] * g.n, None, limit)
                assert_search_is_settle(g, src, [INF] * g.n, allowed, limit)
            dist = [INF] * g.n
            for x in rng.sample(range(g.n), g.n // 3):
                dist[x] = rng.choice((rng.choice(sums), rng.uniform(0.0, sums[-1])))
            assert_search_is_settle(g, src, dist, allowed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        dist = [INF] * g.n
        for src in perm:
            assert_search_is_settle(g, src, dist)
    assert runs == []


def test_search_runs_settle_on_unequal_lengths(monkeypatch):
    g = path_graph([1.0, 2.0, 1.0])
    runs = heap_runs(monkeypatch)
    dist = [INF] * 4
    assert search(g, 1, dist, [True, True, True, False], 2.5) == [1, 0, 2]
    assert dist == [1.0, 0.0, 2.0, INF]
    assert runs == [1]


# ----------------------------------------------------------- stopped walks

STOP_WEIGHTS = ("unit", "uniform:1:4", "uniform:0.5:5")


def random_graph_with(rng, n, weights):
    """A random connected graph of n vertices, a random spanning tree plus
    up to n more edges, its lengths drawn like `generate`'s `weights`."""
    if weights == "unit":
        length = lambda: 1.0  # noqa: E731
    else:
        lo, hi = map(float, weights.split(":")[1:])
        length = lambda: rng.uniform(lo, hi)  # noqa: E731
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(n):
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return WeightedGraph(n, tuple((u, v, length()) for u, v in sorted(pairs)))


def assert_stopped_walk_reads_dijkstra(g, src, targets):
    """`search_to` gives each target `dijkstra`'s entry bit for bit, settles
    only final entries, nearest first, and stops past no more than the
    farthest target (the breadth-first walk may reach one hop further)."""
    row = dijkstra(g, src)
    dist = [INF] * g.n
    settled = search_to(g, src, dist, targets)
    assert [float.hex(dist[t]) for t in targets] == [float.hex(row[t]) for t in targets]
    assert [dist[v] for v in settled] == [row[v] for v in settled]
    assert [row[v] for v in settled] == sorted(row[v] for v in settled)
    bound = max((row[t] for t in targets), default=0.0)
    if g.common_length is not None:
        bound += g.common_length
    assert all(row[v] <= bound for v in settled), (g, src, targets)
    return settled


@pytest.mark.parametrize("seed", range(12))
def test_stopped_walk_reads_each_target_as_dijkstra(seed):
    # Random connected graphs, paths and stars of 2 to 40 vertices in each
    # length model, with all targets, a sample, the farthest vertex (alone
    # and repeated), targets tied at one distance, and none.
    rng = random.Random(seed)
    for weights in STOP_WEIGHTS:
        n = rng.randint(2, 40)
        shapes = [
            random_graph_with(rng, n, weights),
            generate("path", size=n, weights=weights, seed=seed),
            generate("star", size=n - 1, weights=weights, seed=seed),
        ]
        for g in shapes:
            for src in rng.sample(range(g.n), min(g.n, 4)):
                row = dijkstra(g, src)
                others = [v for v in range(g.n) if v != src]
                farthest = max(others, key=row.__getitem__)
                tied_at = row[rng.choice(others)]
                cases = [
                    others,
                    rng.sample(others, min(3, len(others))),
                    [farthest],
                    [farthest, others[0], farthest],
                    [v for v in others if row[v] == tied_at],
                    [src],
                    [],
                ]
                for targets in cases:
                    assert_stopped_walk_reads_dijkstra(g, src, targets)


def test_stopped_walk_stops_at_its_last_target():
    # From one end of a path the walk to the next vertex settles two
    # vertices in either walk, and a target beyond a gap stays INF.
    for weights in STOP_WEIGHTS:
        g = generate("path", size=40, weights=weights, seed=1)
        dist = [INF] * g.n
        assert search_to(g, 0, dist, [1]) == [0, 1]
        assert dist[2:] == [INF] * 38
        assert search_to(g, 0, [INF] * g.n, []) == [0]
    gap = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.5)))
    unit_gap = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    for g in (gap, unit_gap):
        dist = [INF] * 4
        assert search_to(g, 0, dist, [1, 3]) == [0, 1]
        assert dist == [0.0, 1.0, INF, INF]


def test_common_length():
    assert path_graph([2.0, 2.0, 2.0]).common_length == 2.0
    assert path_graph([2.0, 2.0, 3.0]).common_length is None
    assert WeightedGraph(3, ()).common_length is None


def test_dijkstra_on_n_minus_1_edges_with_a_cycle():
    # A triangle with the path 3-4-5 hanging off vertex 2, and an isolated
    # 6: 6 edges on 7 vertices, the cycle in the component of sources 0-5.
    # In the second graph the path 3-4-5-6 is apart from the cycle.
    g = WeightedGraph(
        7, ((0, 1, 1.5), (1, 2, 2.5), (0, 2, 3.0), (3, 4, 0.7), (4, 5, 1 / 3), (2, 3, 0.25))
    )
    forest_and_cycle = WeightedGraph(
        7, ((0, 1, 1.5), (1, 2, 2.5), (0, 2, 3.0), (3, 4, 0.7), (4, 5, 1 / 3), (5, 6, 0.25))
    )
    for h in (g, forest_and_cycle):
        assert h.m == h.n - 1
        assert_dijkstra_matches_the_heap(h)
    assert dijkstra(forest_and_cycle, 4) == [INF, INF, INF, 0.7, 0.0, 1 / 3, 1 / 3 + 0.25]


@pytest.mark.parametrize("seed", range(10))
def test_dijkstra_matches_the_heap_on_random_n_minus_1_edge_graphs(seed):
    # Two components: one with a cycle (k vertices, k edges) and a tree
    # (n - k vertices, n - k - 1 edges), so n - 1 edges in all.
    rng = random.Random(seed)
    k = rng.randint(3, 12)
    n = k + rng.randint(1, 12)
    pairs = {(rng.randrange(v), v) for v in range(1, k)}
    while len(pairs) < k:
        u, v = sorted(rng.sample(range(k), 2))
        pairs.add((u, v))
    pairs |= {(k + rng.randrange(v - k), v) for v in range(k + 1, n)}
    perm = list(range(n))
    rng.shuffle(perm)
    edges = tuple((perm[u], perm[v], rng.uniform(0.1, 3.0)) for u, v in pairs)
    g = WeightedGraph(n, edges)
    assert g.m == n - 1
    assert_dijkstra_matches_the_heap(g)


def test_dijkstra_on_disconnected_graphs_and_a_single_vertex(monkeypatch):
    fewer = WeightedGraph(5, ((0, 1, 1.5), (3, 4, 2.5)))
    equal = WeightedGraph(5, ((0, 1, 0.1), (3, 4, 0.1), (2, 4, 0.1)))
    single = WeightedGraph(1, ())
    for g in (fewer, equal, single):
        assert_dijkstra_matches_the_heap(g)
    assert dijkstra(single, 0) == [0.0]
    assert dijkstra(equal, 3) == [INF, INF, 0.2, 0.0, 0.1]
    runs = heap_runs(monkeypatch)
    dijkstra(fewer, 0)
    dijkstra(equal, 0)
    assert runs == [0]


def test_dijkstra_keeps_overflowing_sums_unreached():
    # The heap never lowers an entry to INF, so a sum that overflows leaves
    # its vertex, and all beyond it, at INF. The breadth-first walk keeps
    # the same strict-below rule, so it gives the same rows.
    equal = WeightedGraph(6, tuple((i, (i + 1) % 6, 1e308) for i in range(6)))
    tree = WeightedGraph(5, ((0, 1, 1e308), (1, 2, 1.5e308), (2, 3, 1.0), (0, 4, 1.0)))
    for g in (equal, tree):
        assert_dijkstra_matches_the_heap(g)
    assert dijkstra(equal, 0) == [0.0, 1e308, INF, INF, INF, 1e308]
    assert dijkstra(tree, 0) == [0.0, 1e308, INF, INF, 1.0]


def random_connected_graph(rng, n):
    """A random spanning tree plus up to n more edges, integer lengths so
    every path sum is exact whatever order it is added in."""
    edges = {(rng.randrange(v), v): float(rng.randint(1, 9)) for v in range(1, n)}
    for _ in range(n):
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), float(rng.randint(1, 9)))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


def masked(g, allowed):
    """g with every edge at a vertex outside `allowed` removed."""
    return WeightedGraph(g.n, tuple(e for e in g.edges if allowed[e[0]] and allowed[e[1]]))


@pytest.mark.parametrize("seed", range(25))
def test_settle_returns_the_masked_ball_nearest_first(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 14))
    src = rng.randrange(g.n)
    allowed = [v == src or rng.random() < 0.7 for v in range(g.n)]
    true = bellman_ford(masked(g, allowed), src)
    reached = sorted(d for d in true if d < INF)
    # The middle limit equals some vertex's distance: the limit is inclusive.
    for limit in (INF, rng.choice(reached[1:] or reached), rng.uniform(0.0, reached[-1])):
        dist = [INF] * g.n
        settled = settle(g.adjacency, src, dist, allowed, limit)
        assert sorted(settled) == [v for v, d in enumerate(true) if d <= limit and d < INF]
        found = [dist[v] for v in settled]
        assert found == [true[v] for v in settled]
        assert found == sorted(found)
        for v in settled:
            dist[v] = INF
        assert dist == [INF] * g.n


@pytest.mark.parametrize("seed", range(25))
def test_settle_keeps_the_least_element_rule(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(3, 14))
    src, x = rng.sample(range(g.n), 2)
    dist = [INF] * g.n
    # An earlier run reached x at or below its distance from src.
    dist[x] = bellman_ford(g, src)[x] - rng.choice([0.0, 0.5])
    held = dist[x]
    settled = settle(g.adjacency, src, dist)
    around = bellman_ford(masked(g, [v != x for v in range(g.n)]), src)
    assert x not in settled and dist[x] == held
    assert sorted(settled) == [v for v in range(g.n) if around[v] < INF]
    assert all(dist[v] == around[v] for v in range(g.n) if v != x)


def test_triangle_inequality_exhaustive():
    for g in [generate("grid", rows=8, cols=8), generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=5)]:
        dm = all_pairs(g)
        n = g.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert dm[a][c] <= dm[a][b] + dm[b][c] + 1e-9


# ------------------------------------------------------------------ all_pairs


def test_all_pairs_isolated_vertices():
    dm = all_pairs(WeightedGraph(2, ()))
    assert dm[0][1] == INF and dm[1][0] == INF


def test_all_pairs_triangle():
    g = WeightedGraph(3, ((0, 1, 1.5), (1, 2, 1.5), (0, 2, 1.5)))
    dm = all_pairs(g)
    for u in range(3):
        for v in range(3):
            assert dm[u][v] == (0.0 if u == v else 1.5)


def test_all_pairs_four_cycle_opposite():
    dm = all_pairs(generate("cycle", size=4))
    assert dm[0][2] == 2.0 and dm[1][3] == 2.0


@pytest.mark.parametrize(
    "g",
    [
        generate("grid", rows=4, cols=5),
        generate("cycle", size=17),
        generate("star", size=9),
        # halves keep every partial sum exactly representable, so the two
        # algorithms must agree bit for bit
        WeightedGraph(6, tuple((u, v, 0.5 + 0.5 * ((u + v) % 5)) for u in range(6) for v in range(u + 1, 6))),
    ],
)
def test_all_pairs_matches_floyd_warshall(g):
    assert all_pairs(g) == floyd_warshall(g)


def test_all_pairs_random_weights_close_to_oracle():
    g = generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=11)
    dm = all_pairs(g)
    fw = floyd_warshall(g)
    for u in range(g.n):
        for v in range(g.n):
            assert dm[u][v] == pytest.approx(fw[u][v], rel=1e-12)


# ------------------------------------------------------------------- diameter


def test_diameter_examples():
    assert diameter(WeightedGraph(1, ())) == 0.0
    assert diameter(path_graph([1.0, 1.0, 1.0])) == 3.0
    g = generate("grid", rows=3, cols=3)
    assert diameter(g) == diameter_by_enumeration(g) == 4.0


def test_diameter_disconnected_raises():
    with pytest.raises(DisconnectedGraph):
        diameter(WeightedGraph(3, ((0, 1, 1.0),)))


# ----------------------------------------------------------- stretch exponent


def test_stretch_exponent_examples():
    assert stretch_exponent(WeightedGraph(2, ((0, 1, 1.0),))) == 1
    assert stretch_exponent(path_graph([1.5, 1.5])) == 2  # stretch exactly 2
    assert stretch_exponent(generate("path", size=5)) == 3  # stretch 4
    with pytest.raises(DisconnectedGraph):
        stretch_exponent(WeightedGraph(3, ((0, 1, 1.0),)))


# -------------------------------------------------------------------- hat_ell


def test_hat_ell_examples():
    assert hat_ell(WeightedGraph(2, ((0, 1, 3.0),))) == 1
    assert hat_ell(path_graph([1.0, 1.0, 2.0])) == 3
    assert hat_ell(path_graph([1.0, 7.0])) == 4
    with pytest.raises(NoEdges):
        hat_ell(WeightedGraph(2, ()))


def test_hat_ell_at_powers_of_two_and_past_the_last_one():
    # the least ell with total / min < 2**ell, also when 2**ell overflows
    assert hat_ell(path_graph([1.0, 1.0])) == 2
    assert hat_ell(path_graph([1.0, 3.0])) == 3
    assert hat_ell(path_graph([1.5, 1.5e308])) == 1024


# ------------------------------------------------------------------ normalize


def test_normalize_untouched_when_already_big():
    g = path_graph([1.5, 2.0])
    scaled, scale = normalize(g)
    assert scale == 1.0 and scaled == g


def test_normalize_small_edge():
    g = WeightedGraph(2, ((0, 1, 0.5),))
    scaled, scale = normalize(g)
    assert scale == 4.0
    assert min_distance(scaled) > 1.0


def random_non_metric_graph(rng, n):
    """Connected graph with lengths below and above 1 and one long chord."""
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.uniform(0.05, 1.0 if v == 1 else 3.0)
    for _ in range(n // 2):  # leaves a non-edge for the chord when n >= 5
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.uniform(0.05, 3.0))
    g = WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))
    # make the chord longer than the detour between its ends
    dm = all_pairs(g)
    u, v = next((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges)
    edges[(u, v)] = dm[u][v] + rng.uniform(0.5, 5.0)
    return WeightedGraph(n, tuple((a, b, w) for (a, b), w in edges.items()))


def test_normalize_and_stretch_match_all_pairs_on_non_metric_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = random_non_metric_graph(rng, rng.randint(5, 12))
        dm = all_pairs(g)
        assert any(dm[u][v] < w for u, v, w in g.edges)
        dmin = min_distance(g)
        assert dmin <= 1.0
        assert normalize(g)[1] == 2.0 / dmin
        stretch = max(max(row) for row in dm) / dmin
        assert stretch < 2.0 ** stretch_exponent(g)
        assert not stretch < 2.0 ** (stretch_exponent(g) - 1)


def test_normalize_unit_four_path():
    g = generate("path", size=5)
    scaled, scale = normalize(g)
    assert scale == 2.0
    dm = all_pairs(scaled)
    assert sorted({dm[u][v] for u in range(5) for v in range(u + 1, 5)}) == [2.0, 4.0, 6.0, 8.0]


# ----------------------------------------------------------- metric closure


def test_metric_closure_examples():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)))
    closed = metric_closure_weights(g)
    assert dict(((u, v), w) for u, v, w in closed.edges)[(0, 2)] == 2.0

    square = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 10.0)))
    closed = metric_closure_weights(square)
    assert dict(((u, v), w) for u, v, w in closed.edges)[(0, 2)] == 2.0


def test_metric_closure_idempotent():
    for g in [generate("grid", rows=3, cols=4, weights="uniform:1:4", seed=3), generate("star", size=5)]:
        once = metric_closure_weights(g)
        assert metric_closure_weights(once) == once


def test_metric_closure_equals_all_pairs_exactly():
    # per-source Dijkstra cut off at the longest edge must give the very
    # floats the full matrix holds, also where an edge loses to a detour
    rng = random.Random(7)
    graphs = [random_non_metric_graph(rng, rng.randint(5, 12)) for _ in range(10)]
    for _ in range(20):
        n = rng.randint(2, 40)
        edges = {(rng.randrange(v), v): rng.uniform(0.1, 10.0) for v in range(1, n)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.setdefault((u, v), rng.uniform(0.1, 10.0))
        graphs.append(WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items())))
    shortened = 0
    for g in graphs:
        dm = all_pairs(g)
        closed = metric_closure_weights(g)
        assert closed.edges == tuple((u, v, dm[u][v]) for u, v, _ in g.edges)
        shortened += sum(dm[u][v] < w for u, v, w in g.edges)
    assert shortened > len(graphs)


def test_closure_and_rescale_of_a_disconnected_graph_work_per_component():
    # neither helper checks connectivity: each reads only inside an edge's
    # own component, or only the minimum edge
    rng = random.Random(24)
    for trial in range(20):
        parts = [random_non_metric_graph(rng, rng.randint(5, 9)) for _ in range(rng.randint(2, 3))]
        if trial % 2:  # a component far from rescaling
            parts.append(WeightedGraph(2, ((0, 1, 40.0),)))
        parts += [WeightedGraph(1, ())] * rng.randint(0, 2)
        n = sum(h.n for h in parts)
        ids = rng.sample(range(n), n)  # components interleaved over the ids
        edges, offset = [], 0
        for h in parts:
            edges += [(ids[offset + u], ids[offset + v], w) for u, v, w in h.edges]
            offset += h.n
        g = WeightedGraph(n, tuple(edges))
        comps = connected_components(g)
        assert len(comps) == len(parts)
        subs = induced_subgraphs(g, comps)
        want = {}
        for comp, sub in zip(comps, subs):
            want.update(((comp[u], comp[v]), w) for u, v, w in metric_closure_weights(sub).edges)
        assert {(u, v): w for u, v, w in metric_closure_weights(g).edges} == want
        scaled, scale = normalize(g)
        assert scale == max(normalize(sub)[1] for sub in subs)
        assert scaled.edges == tuple((u, v, w * scale) for u, v, w in g.edges)
        assert all(w > 1.0 for _, _, w in scaled.edges)
    assert normalize(WeightedGraph(3, ())) == (WeightedGraph(3, ()), 1.0)


# ------------------------------------------------------------------- quotient


def test_quotient_discrete_partition_is_identity():
    g = generate("grid", rows=3, cols=3)
    q = quotient(g, [[v] for v in range(g.n)])
    assert set(q.edges) == {(u, v) for u, v, _ in g.edges}
    assert quotient_adjacency(g, list(range(g.n)), g.n) == [
        {v for v, _ in adj} for adj in g.adjacency
    ]


def test_quotient_merging():
    tri = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
    q = quotient(tri, [[0, 1], [2]])
    assert q.n == 2 and q.edges == ((0, 1),)
    assert quotient_adjacency(tri, [0, 0, 1], 2) == [{1}, {0}]

    p4 = generate("path", size=4)
    q = quotient(p4, [[0, 1], [2, 3]])
    assert q.edges == ((0, 1),)
    assert quotient_adjacency(p4, [0, 0, 1, 1], 2) == [{1}, {0}]
    assert quotient_adjacency(p4, [0, 0, 0, 0], 1) == [set()]


def test_quotient_adjacency_matches_the_oracle_on_random_partitions():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 30)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 3 * n))}
        g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in sorted(pairs)))
        count = rng.randint(1, n)
        # every part gets a vertex, the rest go anywhere; parts are then
        # numbered by smallest vertex, as the oracle numbers them
        labels = list(range(count)) + [rng.randrange(count) for _ in range(n - count)]
        rng.shuffle(labels)
        order = sorted(range(count), key=lambda k: labels.index(k))
        part_of = [order.index(k) for k in labels]
        parts = [[v for v in range(n) if part_of[v] == k] for k in range(count)]
        want = [set(adj) for adj in quotient(g, parts).adjacency]
        assert quotient_adjacency(g, part_of, count) == want


def test_quotient_invalid_partition():
    g = generate("path", size=3)
    with pytest.raises(InvalidPartition):
        quotient(g, [[0, 1]])
    with pytest.raises(InvalidPartition):
        quotient(g, [[0, 1], [1, 2]])
    with pytest.raises(InvalidPartition):
        quotient(g, [[0, 1, 2], []])


def test_connectivity_of_a_graph_with_too_few_edges_needs_no_adjacency():
    # a header may name far more vertices than the file has edges for; the
    # answer must come before any per-vertex list is built
    g = WeightedGraph(10**6, ())
    assert not is_connected(g)
    assert "adjacency" not in vars(g)
    path = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    assert is_connected(path) and is_connected(WeightedGraph(1, ()))
    assert not is_connected(WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))))


# ----------------------------------------------------------------- generators


def test_generate_shapes():
    g = generate("grid", rows=2, cols=2)
    assert g.n == 4 and g.m == 4
    assert diameter(generate("cycle", size=5)) == 2.0
    assert diameter(generate("star", size=6)) == 2.0
    assert generate("path", size=1).n == 1


def test_generate_reproducible():
    a = generate("grid", rows=3, cols=3, weights="uniform:1:4", seed=9)
    b = generate("grid", rows=3, cols=3, weights="uniform:1:4", seed=9)
    c = generate("grid", rows=3, cols=3, weights="uniform:1:4", seed=10)
    assert a == b
    assert a != c
    assert all(1.0 <= w <= 4.0 for _, _, w in a.edges)


def test_generate_draws_one_length_per_edge_in_edge_order():
    grid = []
    for v in range(12):  # 3 rows of 4: right, then down, vertex by vertex
        if v % 4 < 3:
            grid.append((v, v + 1))
        if v < 8:
            grid.append((v, v + 4))
    cases = [
        (dict(kind="grid", rows=3, cols=4), grid),
        (dict(kind="cycle", size=5), [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        (dict(kind="star", size=4), [(0, 1), (0, 2), (0, 3), (0, 4)]),
        (dict(kind="path", size=4), [(0, 1), (1, 2), (2, 3)]),
    ]
    for shape, pairs in cases:
        assert generate(**shape).edges == tuple((u, v, 1.0) for u, v in pairs)
        rng = random.Random(7)
        want = tuple((u, v, rng.uniform(1.0, 4.0)) for u, v in pairs)
        assert generate(**shape, weights="uniform:1:4", seed=7).edges == want


def test_generate_bad_sizes():
    with pytest.raises(BadSize):
        generate("grid", rows=0, cols=2)
    with pytest.raises(BadSize):
        generate("cycle", size=2)
    with pytest.raises(BadSize):
        generate("nonsense", size=3)
    with pytest.raises(BadSize):
        generate("path", size=3, weights="uniform:0:2")


# ------------------------------------------------------------------- file i/o


def test_load_simple(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\np 2 1\ne 0 1 1.5\n")
    g = load_graph(p)
    assert g.n == 2 and g.edges == ((0, 1, 1.5),)


def test_round_trip(tmp_path):
    g = generate("grid", rows=3, cols=4, weights="uniform:1:4", seed=2)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    assert load_graph(p) == g
    # more edges than one batch of lines, and none
    for g in (generate("path", size=9000, weights="uniform:1:4"), WeightedGraph(3, ())):
        save_graph(g, p)
        lines = [f"p {g.n} {g.m}"] + [f"e {u} {v} {w!r}" for u, v, w in g.edges]
        assert p.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
        assert load_graph(p) == g


def test_zero_weight_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("p 2 1\ne 0 1 0\n")
    with pytest.raises(InvariantViolation):
        load_graph(p)


def test_parse_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("p 2 x\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line == 1

    p.write_text("p 2 1\nq 0 1 1\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line == 2

    p.write_text("p 2 2\ne 0 1 1\n")
    with pytest.raises(ParseError):
        load_graph(p)

    # the first edge line past the header's count is refused, before the
    # lines after it are read
    p.write_text("# one edge\np 3 1\ne 0 1 1\n\ne 1 2 1\ne 0 2 x\n")
    with pytest.raises(ParseError, match="line 5: more edge lines than the header's 1"):
        load_graph(p)
    p.write_text("p 2 0\ne 0 1 1\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line == 2


def test_parallel_edges_collapse_to_min(tmp_path):
    p = tmp_path / "par.txt"
    p.write_text("p 2 2\ne 0 1 3\ne 1 0 1.5\n")
    assert load_graph(p).edges == ((0, 1, 1.5),)
    # a later duplicate that lowers an earlier edge keeps that edge's slot
    p.write_text("p 3 3\ne 0 1 3\ne 1 2 2\ne 1 0 1.5\n")
    assert load_graph(p).edges == ((0, 1, 1.5), (1, 2, 2.0))


def test_crlf_line_endings_load(tmp_path):
    p = tmp_path / "crlf.txt"
    p.write_bytes(b"# made elsewhere\r\np 3 2\r\ne 0 1 1.5\r\ne 2 1 2\r\n")
    assert load_graph(p).edges == ((0, 1, 1.5), (1, 2, 2.0))


def test_vertex_limit_refuses_the_header(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("p 5 1\ne 0 x 1\n")
    with pytest.raises(BadSize, match="n=5, limit 4"):
        load_graph(p, 4)
    with pytest.raises(ParseError, match="line 2"):
        load_graph(p, 5)


# ----------------------------------------------------------- induced subgraph


def test_induced_subgraph_relabels():
    g = generate("path", size=5)
    sub, verts = induced_subgraph(g, [1, 2, 4])
    assert verts == [1, 2, 4]
    assert sub.n == 3 and sub.edges == ((0, 1, 1.0),)
    assert induced_subgraphs(g, [verts]) == [sub]


@pytest.mark.parametrize("seed", range(20))
def test_induced_subgraphs_match_one_reference_scan_per_part(seed):
    # One part, every component left by a random mask, and singletons: each
    # subgraph equals the reference's, edge order included, comes with its
    # adjacency lists, and is a graph that the public constructor keeps as
    # it is, with the length facts a fresh graph computes. The parents have
    # integer lengths, one length, and mixed fractional lengths under which
    # the first part has one length.
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    g = random_connected_graph(rng, n)
    allowed = [rng.random() < 0.7 for _ in range(n)]
    families = [
        [sorted(rng.sample(range(n), rng.randint(1, n)))],
        connected_components(g, allowed),
        [[v] for v in range(n) if allowed[v]],
    ]
    inside = set(families[0][0])
    parents = [
        g,
        WeightedGraph(n, tuple((u, v, 2.0) for u, v, _ in g.edges)),
        WeightedGraph(
            n,
            tuple(
                (u, v, 2.0 if u in inside and v in inside else w + 0.5) for u, v, w in g.edges
            ),
        ),
    ]
    for parent in parents:
        for parts in families:
            got = induced_subgraphs(parent, parts)
            assert len(got) == len(parts)
            for sub, part in zip(got, parts):
                want, _ = induced_subgraph(parent, part)
                assert sub == want
                assert "adjacency" in vars(sub)
                assert sub.adjacency == want.adjacency
                check_derived_graph(sub)


@pytest.mark.parametrize("seed", range(10))
def test_closed_and_rescaled_graphs_are_valid_graphs(seed):
    g = random_non_metric_graph(random.Random(seed), 12)
    closed = metric_closure_weights(g)
    scaled, scale = normalize(closed)
    assert scale != 1.0
    check_derived_graph(closed)
    check_derived_graph(scaled)


def test_components_after_edge_removal():
    # Cycle 0-1-2-3-4-5-0. Masking out 2 and 4 removes their edges and
    # leaves the components {0, 1, 5} and {3}, ordered by smallest vertex.
    g = generate("cycle", size=6)
    allowed = [True, True, False, True, False, True]
    assert connected_components(g, allowed=allowed) == [[0, 1, 5], [3]]
    assert connected_components(g, allowed=[False] * 6) == []
    assert connected_components(g) == [[0, 1, 2, 3, 4, 5]]


@pytest.mark.parametrize("seed", range(30))
def test_connected_components_match_the_reference_walk(seed):
    # Sparse random graphs, often disconnected, under no mask, an all-False,
    # an all-True and a random mask: the components are those of the
    # reference walk on g without the masked vertices' edges, restricted to
    # the allowed vertices, each sorted and ordered by smallest vertex.
    rng = random.Random(seed)
    n = rng.randint(0, 25)
    edges = {}
    for _ in range(rng.randint(0, 2 * n)):
        if n > 1:
            edges[tuple(sorted(rng.sample(range(n), 2)))] = 1.0
    g = WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))
    for allowed in (None, [False] * n, [True] * n, [rng.random() < 0.6 for _ in range(n)]):
        keep = [True] * n if allowed is None else allowed
        want = sorted(
            sorted(comp)
            for comp in components_without(masked(g, keep), set())
            if all(keep[v] for v in comp)
        )
        assert connected_components(g, allowed) == want
    assert is_connected(g) == (len(connected_components(g)) <= 1)
