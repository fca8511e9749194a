import collections
import math
import random
import sys

import pytest
from oracles import (
    EdgeNotInGraph,
    chain_by_subgraphs,
    chain_from_levels,
    chain_levels,
    chain_sigma,
    check_derived_graph,
    children_hop_diameter,
    diameter,
    diameter_by_enumeration,
    diameter_level_by_bounds,
    edge_level,
    floyd_warshall,
    has_edge,
    induced_subgraph,
    level_cut_counts,
    level_quotient_hops,
    node_members,
    tree_parents,
)

import mfembed.hierarchy as hierarchy
import mfembed.partition as partition
from mfembed.errors import DisconnectedGraph, PreconditionViolation
from mfembed.generators import generate
from mfembed.graphs import (
    INF,
    WeightedGraph,
    dijkstra,
    induced_subgraphs,
    metric_closure_weights,
    normalize,
    quotient_adjacency,
    settle,
)
from mfembed.hierarchy import (
    DIAMETER_EXCEEDED,
    QUOTIENT_DIAMETER_EXCEEDED,
    ChainFailure,
    ClusteringChain,
    _check_goodness,
    build_chain,
    diameter_level,
    level_count_for_diameter,
)


def scaled_grid(rows, cols):
    g = generate("grid", rows=rows, cols=cols)
    return WeightedGraph(g.n, tuple((u, v, 2.0 * w) for u, v, w in g.edges))


def build(g, delta=0.1, seed=0):
    out = build_chain(g, delta, random.Random(seed))
    assert isinstance(out, ClusteringChain), out
    return out


# ------------------------------------------------------------------ structure


def test_two_vertex_chain_is_forced():
    g = WeightedGraph(2, ((0, 1, 1.5),))
    for seed in range(25):
        chain = build(g, delta=0.1, seed=seed)
        assert chain.top_level == 1
        levels = chain_levels(chain).levels
        assert levels[1] == (frozenset({0, 1}),)
        assert levels[0] == (frozenset({0}), frozenset({1}))


def test_radius_formula_direct_evaluation(monkeypatch):
    # r_i = 2**(i-1) / (ln(2 l n^2 / delta) + 1), and a carved cluster's
    # radius is r_i * (1 + X). On the path 0-1-2 with lengths 1.5 (l = 2,
    # n = 3, delta = 0.1) and X fixed at 15, level 1 carves {0, 1} with
    # radius 16 / (ln 360 + 1).
    monkeypatch.setattr(partition, "sample_exponential", lambda rng: 15.0)
    chain = build(WeightedGraph(3, ((0, 1, 1.5), (1, 2, 1.5))), delta=0.1)
    assert chain.top_level == 2
    lam = math.log(2.0 * 2 * 3 * 3 / 0.1) + 1.0
    k = next(k for k in range(len(chain.start)) if node_members(chain, k) == {0, 1})
    assert chain.lo[k] == chain.hi[k] == 1
    assert chain.radius[k] == 2.0 ** (1 - 1) / lam * (1.0 + 15.0)
    assert chain.radius[k] == pytest.approx(16.0 / (math.log(360.0) + 1.0), rel=1e-15)
    assert chain.radius[k] == pytest.approx(2.3235, abs=5e-5)


def test_level_count_boundaries():
    assert level_count_for_diameter(1.5) == 1
    assert level_count_for_diameter(2.0) == 1
    assert level_count_for_diameter(2.01) == 2
    assert level_count_for_diameter(2.0**1023) == 1023


def test_level_count_reads_the_exponents_as_the_quotient_would():
    # Where 2 * diam / dmin is a finite float within 2**1023, the level off
    # the exponents is the least L with that quotient <= 2**L, ties at
    # powers of two included.
    rng = random.Random(3)
    cases = [(2.0**k, 2.0**j) for k in range(-40, 40, 3) for j in range(-20, 20, 3)]
    cases += [(rng.uniform(1, 2) * 2.0 ** rng.randint(-60, 60),
               rng.uniform(1, 2) * 2.0 ** rng.randint(-30, 30)) for _ in range(2000)]
    cases += [(3.0 * 2.0**k, 3.0) for k in range(10)]
    for diam, dmin in cases:
        bound = 2.0 * diam / dmin
        want = 0
        while bound > 2.0**want:
            want += 1
        assert level_count_for_diameter(diam, dmin) == want, (diam, dmin)


def test_level_count_needs_no_quotient_that_overflows():
    # 2 * 1e308 overflows, but 2 * 1e308 / 4 = 5e307 lies within 2**1023
    assert level_count_for_diameter(1e308, 4.0) == 1023
    with pytest.raises(PreconditionViolation, match="eccentricity 1e.308 needs level 1024"):
        level_count_for_diameter(1e308, 2.0)
    assert level_count_for_diameter(0.0, 1e-300) == 0


@pytest.mark.parametrize(
    "diam", [math.nextafter(2.0**1023, INF), 1e308, sys.float_info.max, INF, math.nan]
)
def test_level_count_refuses_a_level_whose_bound_overflows(diam):
    # L would be 1024, and 2.0**1024 overflows a float
    with pytest.raises(PreconditionViolation, match="overflows a float"):
        level_count_for_diameter(diam)


# ------------------------------------------------------------ diameter level


def random_connected(rng, n, step=None):
    """Random tree plus extra edges; lengths are multiples of `step` if given."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    if step is None:
        return WeightedGraph(n, tuple((u, v, rng.uniform(0.5, 5.0)) for u, v in sorted(pairs)))
    return WeightedGraph(n, tuple((u, v, step * rng.randint(1, 4)) for u, v in sorted(pairs)))


def count_runs(monkeypatch):
    runs = []
    real = hierarchy.dijkstra

    def counted(*args, **kwargs):
        runs.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "dijkstra", counted)
    return runs


def test_diameter_level_matches_full_sweep():
    rng = random.Random(4)
    graphs = [random_connected(rng, rng.randint(2, 40)) for _ in range(40)]
    graphs += [random_connected(rng, rng.randint(2, 40), step=0.5) for _ in range(40)]
    graphs += [generate("grid", rows=r, cols=c, weights="uniform:1:4", seed=r * c)
               for r, c in ((1, 9), (3, 7), (6, 6), (9, 4))]
    graphs += [generate("star", size=k) for k in (1, 2, 7, 30)]
    for g in graphs:
        assert diameter_level(g) == level_count_for_diameter(diameter(g))


def test_diameter_level_ties_at_powers_of_two():
    cycle = WeightedGraph(512, tuple((i, (i + 1) % 512, 2.0) for i in range(512)))
    assert diameter(cycle) == 512.0
    assert diameter_level(cycle) == 9
    for k in range(6):
        path = WeightedGraph(2**k + 1, tuple((i, i + 1, 1.0) for i in range(2**k)))
        assert diameter_level(path) == level_count_for_diameter(float(2**k)) == k
        doubled = WeightedGraph(path.n, tuple((u, v, 2.0) for u, v, _ in path.edges))
        assert diameter_level(doubled) == k + 1


def test_diameter_level_trivial_and_disconnected():
    assert diameter_level(WeightedGraph(1, ())) == 0
    with pytest.raises(DisconnectedGraph):
        diameter_level(WeightedGraph(4, ((0, 1, 2.0), (2, 3, 2.0))))


def test_diameter_level_grid_top_takes_few_runs(monkeypatch):
    g = generate("grid", rows=20, cols=20, weights="uniform:1:4", seed=1)
    runs = count_runs(monkeypatch)
    assert diameter_level(g) == level_count_for_diameter(diameter(g))
    assert len(runs) <= 4


def random_tree(rng, n, length):
    return WeightedGraph(n, tuple((rng.randrange(v), v, length()) for v in range(1, n)))


def assert_level_in_no_more_runs(g, monkeypatch, dmin=2.0):
    """diameter_level(g, dmin) gives the former loop's level in at most its
    runs; returns the level and the runs it made."""
    want, former_runs = diameter_level_by_bounds(g, dmin)
    runs = count_runs(monkeypatch)
    level = diameter_level(g, dmin=dmin)
    monkeypatch.undo()
    assert level == want
    assert len(runs) <= former_runs
    return level, runs


@pytest.mark.parametrize("seed", range(12))
def test_tree_level_matches_enumeration_in_two_runs(seed, monkeypatch):
    rng = random.Random(seed)
    for length, exact in (
        (lambda: rng.uniform(0.5, 5.0), False),
        (lambda: 2.0 * rng.randint(1, 4), True),
        (lambda: rng.choice((1.1, 1 / 3, 2.7)), False),
    ):
        g = random_tree(rng, rng.randint(1, 30), length)
        assert g.exact_path_sums == exact or g.n == 1
        diam = diameter_by_enumeration(g) if g.n > 1 else 0.0
        # the chain's scale, and FRT's closest-pair distance
        for dmin in (2.0, g.min_edge_length() if g.edges else 2.0):
            level, runs = assert_level_in_no_more_runs(g, monkeypatch, dmin)
            assert level == level_count_for_diameter(diam, dmin)
            assert len(runs) <= 2 or not exact


@pytest.mark.parametrize("k", range(1, 8))
def test_tree_at_exactly_a_power_of_two_ends_after_two_runs(k, monkeypatch):
    # integer lengths summing to 2**k along a shuffled path
    rng = random.Random(k)
    cuts = sorted(rng.sample(range(1, 2**k), min(2**k - 1, 9)))
    lengths = [float(b - a) for a, b in zip([0] + cuts, cuts + [2**k])]
    perm = list(range(len(lengths) + 1))
    rng.shuffle(perm)
    g = WeightedGraph(len(perm), tuple((perm[i], perm[i + 1], w) for i, w in enumerate(lengths)))
    assert g.exact_path_sums and diameter_by_enumeration(g) == 2.0**k
    for dmin, want in ((2.0, k), (1.0, k + 1), (g.min_edge_length(), None)):
        level, runs = assert_level_in_no_more_runs(g, monkeypatch, dmin)
        if want is not None:
            assert level == want
        if len(g.adjacency[0]) == 1:
            # the path ends at vertex 0, so the first run ends the call
            assert runs == [0]
        else:
            # the second run starts at an end of the path, and ends the call
            assert len(runs) == 2 and g.adjacency[runs[1]][1:] == []


def path_through(order, lengths):
    """The path that visits `order`, its i-th edge of length lengths[i]."""
    return WeightedGraph(
        len(order), tuple((order[i], order[i + 1], w) for i, w in enumerate(lengths))
    )


@pytest.mark.parametrize("seed", range(10))
def test_path_level_matches_enumeration(seed, monkeypatch):
    # Vertex 0 at an end takes one run when the sums are exact, inside it
    # takes two; two-vertex paths have 0 at an end.
    rng = random.Random(seed)
    n = 2 if seed < 2 else rng.randint(3, 25)
    for length, exact in (
        (lambda: 1.0, True),
        (lambda: rng.uniform(0.5, 5.0), False),
        (lambda: rng.choice((1.1, 1 / 3, 2.7)), False),
    ):
        lengths = [length() for _ in range(n - 1)]
        inner = list(range(1, n))
        rng.shuffle(inner)
        ends = [[0] + inner, inner + [0]]
        middle = [inner[: n // 2] + [0] + inner[n // 2 :]] if n > 2 else []
        for order in ends + middle:
            g = path_through(order, lengths)
            assert g.exact_path_sums == exact
            diam = diameter_by_enumeration(g)
            for dmin in (2.0, g.min_edge_length()):
                level, runs = assert_level_in_no_more_runs(g, monkeypatch, dmin)
                assert level == level_count_for_diameter(diam, dmin)
                if exact:
                    assert len(runs) == (1 if len(g.adjacency[0]) == 1 else 2)


def test_path_from_0_within_slack_of_a_power_of_two(monkeypatch):
    # As below, on paths that end at vertex 0: a first-run eccentricity
    # above 2**5 clears 2**6 and ends the call after that run; one at or
    # below 2**5 goes on to the loop.
    rng = random.Random(6)
    calls_by_runs = collections.Counter()
    for _ in range(40):
        n = rng.randint(20, 40)
        order = [0] + rng.sample(range(1, n), n - 1)
        g = path_through(order, [rng.uniform(0.1, 1.0) for _ in range(n - 1)])
        factor = 2.0**5 / diameter(g)
        for j in range(-3, 4):
            near = WeightedGraph(
                n, tuple((u, v, w * factor * (1 + j * 2.0**-52)) for u, v, w in g.edges)
            )
            level, runs = assert_level_in_no_more_runs(near, monkeypatch)
            assert level == level_count_for_diameter(diameter(near))
            assert (len(runs) == 1) == (max(dijkstra(near, 0)) > 2.0**5)
            calls_by_runs[len(runs) == 1] += 1
    assert calls_by_runs[True] > 0 and calls_by_runs[False] > 0


def test_tree_within_slack_of_a_power_of_two_continues_the_bound_loop(monkeypatch):
    # Fractional paths rescaled so the computed diameter lands within a few
    # ulps of 2**5. A second run's eccentricity at or below 2**5 does not
    # clear it by BOUND_SLACK, so the call goes on with both runs' bounds;
    # one above 2**5 clears 2**6 and ends the call.
    rng = random.Random(5)
    calls_by_runs = collections.Counter()
    for _ in range(40):
        n = rng.randint(20, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        lengths = [rng.uniform(0.1, 1.0) for _ in range(n - 1)]
        g = WeightedGraph(n, tuple((perm[i], perm[i + 1], w) for i, w in enumerate(lengths)))
        factor = 2.0**5 / diameter(g)
        for j in range(-3, 4):
            near = WeightedGraph(
                n, tuple((u, v, w * factor * (1 + j * 2.0**-52)) for u, v, w in g.edges)
            )
            assert not near.exact_path_sums
            level, runs = assert_level_in_no_more_runs(near, monkeypatch)
            assert level == level_count_for_diameter(diameter(near))
            calls_by_runs[len(runs) == 2] += 1
    assert calls_by_runs[True] > 0 and calls_by_runs[False] > 0


def test_no_call_makes_more_runs_than_the_former_loop(monkeypatch):
    rng = random.Random(8)
    graphs = [random_connected(rng, rng.randint(2, 30)) for _ in range(20)]
    graphs += [random_connected(rng, rng.randint(2, 30), step=2.0) for _ in range(20)]
    graphs += [normalize(generate(kind, size=64))[0] for kind in ("path", "cycle", "star")]
    graphs += [normalize(generate("grid", rows=6, cols=9))[0]]
    for g in graphs:
        assert_level_in_no_more_runs(g, monkeypatch)
        assert_level_in_no_more_runs(g, monkeypatch, g.min_edge_length())


def assert_subgraph_level_matches_floyd_warshall(g, members):
    """diameter_level on the subgraph that `members` induce, as the goodness
    check measures a cluster, against its Floyd-Warshall diameter."""
    sub, _ = induced_subgraph(g, members)
    diam = max(x for row in floyd_warshall(sub) for x in row)
    if diam == math.inf:
        with pytest.raises(DisconnectedGraph):
            diameter_level(sub)
        return
    assert diameter_level(sub) == level_count_for_diameter(diam)


def test_cluster_level_matches_all_members_sweep():
    rng = random.Random(9)
    for _ in range(60):
        g = random_connected(rng, rng.randint(3, 30), step=0.5)
        members = sorted(rng.sample(range(g.n), rng.randint(2, g.n)))
        assert_subgraph_level_matches_floyd_warshall(g, members)


def test_two_row_certificate_matches_full_sweep_on_integer_lengths():
    # Integer lengths take the exact comparison.
    rng = random.Random(12)
    for step in (1.0, 2.0, 3.0):
        for _ in range(30):
            g = random_connected(rng, rng.randint(2, 40), step=step)
            assert g.exact_path_sums
            assert diameter_level(g) == level_count_for_diameter(diameter(g))
            members = sorted(rng.sample(range(g.n), rng.randint(2, g.n)))
            assert_subgraph_level_matches_floyd_warshall(g, members)


@pytest.mark.parametrize("k", range(1, 9))
def test_two_row_certificate_at_exact_powers_of_two(k):
    # Diameter exactly 2**k, at the chain's scale (length 2, dmin 2) and at
    # FRT's (length 1, dmin 1, so 2 * diam / dmin = 2**(k+1)).
    graphs = [generate("path", size=2**k + 1)]
    if k >= 2:
        graphs.append(generate("cycle", size=2 ** (k + 1)))
        graphs.append(generate("cycle", size=2 ** (k + 1) + 1))
    for unit in graphs:
        chain_scale = WeightedGraph(unit.n, tuple((u, v, 2.0) for u, v, _ in unit.edges))
        assert diameter_level(chain_scale) == level_count_for_diameter(diameter(chain_scale))
        want = max(1, level_count_for_diameter(2.0 * diameter(unit)))
        assert diameter_level(unit, dmin=1.0) == want
    assert diameter_level(graphs[0], dmin=1.0) == k + 1


def test_two_row_certificate_on_unit_grids():
    for rows, cols in ((1, 2), (2, 2), (3, 5), (8, 8), (7, 12), (16, 16)):
        g = generate("grid", rows=rows, cols=cols)
        scaled, _ = normalize(g)
        assert diameter_level(scaled) == level_count_for_diameter(diameter(scaled))
        want = max(1, level_count_for_diameter(2.0 * diameter(g)))
        assert diameter_level(g, dmin=1.0) == want


def test_two_row_certificate_within_ulps_of_a_power_of_two():
    # Fractional lengths rescaled so the computed diameter lands within a
    # few ulps of 2**5. Row sums then round differently from the distances
    # they bound, so only the slack comparison keeps the level exact.
    rng = random.Random(1)
    for trial in range(160):
        n = rng.randint(20, 40)
        cyclic = trial % 4 != 3
        lengths = [rng.uniform(0.1, 1.0) for _ in range(n if cyclic else n - 1)]
        g = WeightedGraph(n, tuple((i, (i + 1) % n, w) for i, w in enumerate(lengths)))
        factor = 2.0**5 / diameter(g)
        for j in range(-3, 4):
            near = WeightedGraph(
                n, tuple((u, v, w * factor * (1 + j * 2.0**-52)) for u, v, w in g.edges)
            )
            assert not near.exact_path_sums
            assert diameter_level(near) == level_count_for_diameter(diameter(near))


def test_two_row_certificate_takes_two_runs_on_unit_cycle_512(monkeypatch):
    # Every eccentricity sits exactly on 2**9, so no single bound settles a
    # vertex; the two rows certify every pair.
    cycle = normalize(generate("cycle", size=512))[0]
    runs = count_runs(monkeypatch)
    assert diameter_level(cycle) == 9
    assert runs == [0, 256]


def test_diameter_level_rejects_empty_members():
    with pytest.raises(PreconditionViolation):
        diameter_level(WeightedGraph(0, ()))


def path_chain(level2, level1):
    # path 0-1-2-3-4 with lengths 1.5 (diameter 6, three levels); level 2
    # holds two clusters centred at 0 and 4
    g = WeightedGraph(5, tuple((i, i + 1, 1.5) for i in range(4)))
    levels = [[frozenset({v}) for v in range(5)], level1, level2, [frozenset(range(5))]]
    centers = [list(range(5)), [min(c) for c in level1], [0, 4], [0]]
    return g, chain_from_levels(g, levels, centers)


def test_cluster_check_falls_back_when_center_is_an_endpoint(monkeypatch):
    # cluster {0,1,2} centred at its endpoint 0: 2 * ecc(0) = 6 exceeds 2**2,
    # yet its diameter 3 does not, so the check must run further sources
    g, chain = path_chain(
        [frozenset({0, 1, 2}), frozenset({3, 4})],
        [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})],
    )
    runs = count_runs(monkeypatch)
    assert _check_goodness(chain, 100.0) is None
    assert runs[0] == 0 and len([r for r in runs if r in (0, 1, 2)]) > 1
    # {0,1,2,3} has diameter 4.5 > 4: the same check rejects it
    g, chain = path_chain(
        [frozenset({0, 1, 2, 3}), frozenset({4})],
        [frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({4})],
    )
    failure = _check_goodness(chain, 100.0)
    assert failure == ChainFailure(level=2, reason=DIAMETER_EXCEEDED, cluster_index=0)


def test_uncertified_cluster_is_measured_on_its_own_subgraph(monkeypatch):
    # A hand-made chain has no radii, so every non-singleton below the top
    # gets a diameter_level call on the subgraph it induces. Local vertex 0
    # is the smallest member, where the runs start, whatever the stored
    # center ({3, 4} keeps its level-2 center 4); the level is the one the
    # member subgraph's Floyd-Warshall diameter gives.
    g, chain = path_chain(
        [frozenset({0, 1, 2}), frozenset({3, 4})],
        [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})],
    )
    real_subgraphs, real_level = hierarchy.induced_subgraphs, hierarchy.diameter_level
    built, measured = [], []

    def subgraphs(graph, parts):
        assert graph is g and len(parts) == 1
        built.append(list(parts[0]))
        return real_subgraphs(graph, parts)

    def level(graph, **kwargs):
        assert kwargs == {}
        start = len(runs)
        got = real_level(graph)
        measured.append((got, runs[start:]))
        return got

    runs = count_runs(monkeypatch)
    monkeypatch.setattr(hierarchy, "induced_subgraphs", subgraphs)
    monkeypatch.setattr(hierarchy, "diameter_level", level)
    assert _check_goodness(chain, 100.0) is None
    assert built == [[0, 1], [3, 4], [0, 1, 2]]
    assert chain.center[next(k for k in range(len(chain.start)) if chain.lo[k] == 1
                             and node_members(chain, k) == {3, 4})] == 4
    for members, (got, sources) in zip(built, measured):
        sub, _ = induced_subgraph(g, members)
        diam = max(x for row in floyd_warshall(sub) for x in row)
        assert got == level_count_for_diameter(diam)
        # each member subgraph is a path that ends at local vertex 0, where
        # the one run that measures it starts
        assert sources == [0]
    # each level is at most the cluster's own (1, 1, 2), so all three pass
    assert [got for got, _ in measured] == [1, 1, 2]


def test_cluster_check_rejects_a_disconnected_cluster():
    g = WeightedGraph(3, ((0, 1, 1.5), (1, 2, 1.5)))
    levels = [[frozenset({0}), frozenset({1}), frozenset({2})],
              [frozenset({0, 2}), frozenset({1})],
              [frozenset({0, 1, 2})]]
    centers = [[0, 1, 2], [0, 1], [0]]
    failure = _check_goodness(chain_from_levels(g, levels, centers), 100.0)
    assert failure == ChainFailure(level=1, reason=DIAMETER_EXCEEDED, cluster_index=0)


def test_goodness_tiny_sigma_runs_quotient_bfs():
    g = scaled_grid(5, 5)
    chain = build(g, delta=0.15, seed=1)
    view = chain_levels(chain)
    assert _check_goodness(chain, chain_sigma(chain, 0.15)) is None
    # the first cluster split into two or more parts fails at sigma 0.5
    level, idx = next(
        (i + 1, idx)
        for i in range(chain.top_level)
        for idx in range(len(view.levels[i + 1]))
        if view.parents[i].count(idx) > 1
    )
    failure = _check_goodness(chain, 0.5)
    assert failure == ChainFailure(level=level, reason=QUOTIENT_DIAMETER_EXCEEDED, cluster_index=idx)
    # a sigma at the largest hop-diameter passes, though the quotient BFS runs
    hop = 0
    most_parts = 0
    for i in range(chain.top_level):
        for idx in range(len(view.levels[i + 1])):
            parts_of = view.parents[i].count(idx)
            most_parts = max(most_parts, parts_of)
            if parts_of > 1:
                hop = max(hop, children_hop_diameter(g, view.levels, view.parents, i, idx))
    assert most_parts - 1 > hop
    assert _check_goodness(chain, float(hop)) is None
    assert _check_goodness(chain, hop - 0.5) is not None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "instance",
    [dict(kind="grid", rows=8, cols=8), dict(kind="cycle", size=64), dict(kind="star", size=40)],
    ids=["grid8", "cycle64", "star40"],
)
def test_goodness_passes_at_the_largest_quotient_hop_diameter_only(instance, seed):
    # sigma at the former check's largest hop-diameter over every cluster
    # with two or more children passes; half a hop less fails, and since
    # every cluster diameter is within bounds the failure is the quotient's.
    # Each cluster's BFS, run on a quotient of the whole graph, must also
    # give the former hop-diameter: the top cluster alone would not show a
    # BFS that strays into other clusters.
    g, _ = normalize(metric_closure_weights(generate(**instance)))
    chain = build(g, delta=0.1, seed=seed)
    view = chain_levels(chain)
    hop = 0
    below_top = 0
    split = 0
    for i in range(chain.top_level):
        nbrs = quotient_adjacency(g, view.vertex_to_cluster[i], len(view.levels[i]))
        for idx in range(len(view.levels[i + 1])):
            if view.parents[i].count(idx) > 1:
                d = children_hop_diameter(g, view.levels, view.parents, i, idx)
                assert level_quotient_hops(nbrs, view.parents[i], idx) == d
                node = next(k for k in range(len(chain.start))
                            if chain.lo[k] == i + 1
                            and node_members(chain, k) == view.levels[i + 1][idx])
                assert hierarchy._child_quotient_hops(chain, node) == d
                split += 1
                hop = max(hop, d)
                below_top += i + 1 < chain.top_level
    assert split == sum(len(c) > 1 for c in chain.children)
    # the star's top cluster splits straight into singletons
    assert hop > 0 and (below_top > 0 or instance["kind"] == "star")
    assert _check_goodness(chain, float(hop)) is None
    failure = _check_goodness(chain, hop - 0.5)
    assert failure is not None and failure.reason == QUOTIENT_DIAMETER_EXCEEDED


def test_precondition_distances_above_one():
    with pytest.raises(PreconditionViolation):
        build_chain(generate("path", size=4), 0.1, random.Random(0))


def check_chain_structure(g, chain):
    n = g.n
    view = chain_levels(chain)
    assert view.levels[chain.top_level] == (frozenset(range(n)),)
    # as sets: `<` on frozensets is the subset order, so sorted() keeps
    # the singletons in carving order
    assert set(view.levels[0]) == {frozenset({v}) for v in range(n)}
    for i in range(chain.top_level + 1):
        seen = set()
        for cluster in view.levels[i]:
            assert cluster and not (seen & cluster)
            seen |= cluster
        assert seen == set(range(n))
    # refinement via parent links and directly
    for i in range(chain.top_level):
        for j, cluster in enumerate(view.levels[i]):
            parent = view.levels[i + 1][view.parents[i][j]]
            assert cluster <= parent
    # every cluster connected (in the induced subgraph)
    for level in view.levels:
        for cluster in level:
            sub, _ = induced_subgraph(g, sorted(cluster))
            fw = floyd_warshall(sub)
            assert all(x < math.inf for row in fw for x in row)


def check_goodness_oracle(g, chain, delta):
    view = chain_levels(chain)
    sigma = chain_sigma(chain, delta)
    for i, level in enumerate(view.levels):
        for cluster in level:
            sub, _ = induced_subgraph(g, sorted(cluster))
            fw = floyd_warshall(sub)
            diam = max(x for row in fw for x in row) if sub.n > 1 else 0.0
            assert diam <= 2.0**i
    for i in range(chain.top_level):
        for idx in range(len(view.levels[i + 1])):
            if view.parents[i].count(idx) < 2:
                continue
            assert children_hop_diameter(g, view.levels, view.parents, i, idx) <= sigma


@pytest.mark.parametrize("seed", range(6))
def test_chain_invariants_on_grid(seed):
    g = scaled_grid(5, 5)
    chain = build(g, delta=0.15, seed=seed)
    check_chain_structure(g, chain)
    check_goodness_oracle(g, chain, 0.15)


def test_chain_invariants_weighted():
    g = generate("grid", rows=4, cols=4, weights="uniform:1.5:4", seed=2)
    chain = build(g, delta=0.2, seed=5)
    check_chain_structure(g, chain)
    check_goodness_oracle(g, chain, 0.2)


def test_determinism():
    g = scaled_grid(4, 4)
    a = build(g, delta=0.1, seed=11)
    b = build(g, delta=0.1, seed=11)
    assert a == b
    # small radii leave most clusters alike, so one seed pair may agree
    views = {chain_levels(build(g, delta=0.1, seed=seed))[:2] for seed in range(11, 19)}
    assert len(views) > 1


def test_centers_lie_in_their_clusters():
    g = scaled_grid(4, 4)
    chain = build(g, delta=0.1, seed=3)
    view = chain_levels(chain)
    for level, centers in zip(view.levels, view.centers):
        for cluster, center in zip(level, centers):
            assert center in cluster


# ------------------------------------------------------------------ level 0


def test_derived_mode_never_fails_on_forced_chain():
    g = WeightedGraph(2, ((0, 1, 1.5),))
    for seed in range(200):
        assert isinstance(build_chain(g, 0.5, random.Random(seed)), ClusteringChain)


# ------------------------------------------------------------------ edge level


def fabricate_chain():
    # path 0-..-5 with lengths 2.2; partitions chosen by hand
    g = WeightedGraph(6, tuple((i, i + 1, 2.2) for i in range(5)))
    levels = (
        tuple(frozenset({v}) for v in range(6)),
        (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})),
        (frozenset({0, 1, 2, 3}), frozenset({4, 5})),
        (frozenset(range(6)),),
    )
    centers = (tuple(range(6)), (0, 2, 4), (0, 4), (0,))
    chain = chain_from_levels(g, levels, centers)
    view = chain_levels(chain)
    assert view.levels == levels and view.centers == centers
    assert view.vertex_to_cluster == (
        tuple(range(6)),
        (0, 0, 1, 1, 2, 2),
        (0, 0, 0, 0, 1, 1),
        (0,) * 6,
    )
    assert view.parents == ((0, 0, 1, 1, 2, 2), (0, 0, 1), (0, 0))
    return g, chain


def test_edge_level_definition():
    g, chain = fabricate_chain()
    assert edge_level(chain, 0, 1) == 0  # together from level 1 upward
    assert edge_level(chain, 1, 2) == 1  # split at 1, together at 2
    assert edge_level(chain, 3, 4) == 2  # split at 1 and 2, together at 3
    with pytest.raises(EdgeNotInGraph):
        edge_level(chain, 0, 5)


def test_edge_level_on_minimal_chain():
    g = WeightedGraph(2, ((0, 1, 1.5),))
    chain = build(g)
    assert edge_level(chain, 0, 1) == 0


def test_level_cut_counts():
    g, chain = fabricate_chain()
    assert level_cut_counts(chain, [0, 1]) == [1, 0, 0]
    assert level_cut_counts(chain, [3, 4]) == [0, 0, 1]
    # edge levels along the path: 0, 1, 0, 2, 0
    assert level_cut_counts(chain, [0, 1, 2, 3, 4, 5]) == [3, 1, 1]


def test_level_cut_counts_inside_one_cluster():
    g = scaled_grid(3, 3)
    chain = build(g, delta=0.1, seed=1)
    # a path inside a single level-1 cluster has only level-0 edges
    for cluster in chain_levels(chain).levels[1]:
        members = sorted(cluster)
        if len(members) >= 2:
            for u in members:
                for v in members:
                    if u < v and has_edge(g, u, v):
                        assert edge_level(chain, u, v) == 0


# ------------------------------------------------------ carving in place


def test_disconnected_input_raises():
    with pytest.raises(DisconnectedGraph):  # no edge: not NoEdges from min_edge_length
        build_chain(WeightedGraph(2, ()), 0.1, random.Random(0))
    path_and_isolated = WeightedGraph(4, ((0, 1, 1.5), (1, 2, 1.5)))
    with pytest.raises(DisconnectedGraph):
        build_chain(path_and_isolated, 0.1, random.Random(0))


def test_chain_matches_per_cluster_subgraph_carving():
    rng = random.Random(17)
    for seed in range(40):
        base = random_connected(rng, rng.randint(2, 40))
        g = WeightedGraph(base.n, tuple((u, v, 0.6 + w) for u, v, w in base.edges))
        assert build(g, delta=0.3, seed=seed) == chain_by_subgraphs(g, 0.3, random.Random(seed))


def test_chain_builds_no_subgraph_and_no_connectivity_pass(monkeypatch):
    instances = [
        generate("grid", rows=8, cols=8, weights="uniform:1:4", seed=1),
        generate("cycle", size=64),
    ]
    prepared = [normalize(metric_closure_weights(g))[0] for g in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("build_chain must not call this")

    # every cluster here is certified by its carving radius, so the goodness
    # check builds no cluster subgraph
    monkeypatch.setattr(hierarchy, "induced_subgraphs", refuse)
    monkeypatch.setattr("mfembed.graphs.connected_components", refuse)
    for g in prepared:
        chain = build(g, delta=0.1, seed=1)
        assert chain.top_level >= 3


# ------------------------------------------------------------ cluster tree


def matrix_graphs():
    """The acceptance matrix's eight instances, prepared as the embedder
    prepares them."""
    out = []
    for weights in ("unit", "uniform:1:4"):
        out.append(generate("grid", rows=4, cols=4, weights=weights, seed=1))
        out.append(generate("grid", rows=8, cols=8, weights=weights, seed=2))
        out.append(generate("cycle", size=16, weights=weights, seed=3))
        out.append(generate("star", size=15, weights=weights, seed=4))
    return [normalize(metric_closure_weights(g))[0] for g in out]


def count_cluster_checks(monkeypatch):
    """The sizes of the cluster subgraphs that the goodness check builds for
    its diameter_level runs; each must be a valid derived graph."""
    calls = []
    real = hierarchy.induced_subgraphs

    def counted(g, parts):
        subs = real(g, parts)
        for sub in subs:
            check_derived_graph(sub)
            calls.append(sub.n)
        return subs

    monkeypatch.setattr(hierarchy, "induced_subgraphs", counted)
    return calls


def matrix_outcomes(extra=(), seeds=range(5)):
    """(build_chain, chain_by_subgraphs) outcomes over the matrix and `extra`,
    `seeds` and a strict and a lax delta."""
    for g in matrix_graphs() + list(extra):
        for seed in seeds:
            for delta in (0.1, 0.9):
                yield (build_chain(g, delta, random.Random(seed)),
                       chain_by_subgraphs(g, delta, random.Random(seed)))


def test_goodness_matches_the_per_cluster_check_on_the_acceptance_matrix(monkeypatch):
    # every cluster's carving radius certifies its diameter here, so the
    # check builds no cluster subgraph and makes no diameter_level run
    calls = count_cluster_checks(monkeypatch)
    for got, want in matrix_outcomes():
        assert got == want
        assert not isinstance(want, ChainFailure)
    assert calls == []


def test_goodness_matches_the_per_cluster_check_when_x_is_huge(monkeypatch):
    # X drawn ten times too large: radii outgrow the certificate, the check
    # falls back to diameter_level on each such cluster's induced subgraph,
    # and both verdicts occur. On the paths with lengths 1.0000001, a
    # 3-vertex cluster's diameter 2.0000002 lies just above level 1's bound 2.
    real = partition.sample_exponential
    monkeypatch.setattr(partition, "sample_exponential", lambda rng: 10.0 * real(rng))
    calls = count_cluster_checks(monkeypatch)
    near_one = [WeightedGraph(k, tuple((i, i + 1, 1.0000001) for i in range(k - 1)))
                for k in (2, 5, 9)]
    reasons = collections.Counter()
    for got, want in matrix_outcomes(near_one, seeds=range(25)):
        assert got == want
        reasons[want.reason if isinstance(want, ChainFailure) else "chain"] += 1
    assert sum(reasons.values()) >= 500
    assert reasons["chain"] > 0 and reasons[DIAMETER_EXCEEDED] > 0
    assert len(calls) > 500 and max(calls) > 2


def test_cluster_subgraph_from_adjacency_matches_the_edge_scan(monkeypatch):
    # X drawn ten times too large leaves clusters that their radius does not
    # certify; each is measured on the subgraph that the library's scan of
    # every edge builds, which must hold the edges that its members'
    # adjacency lists give and give the chain or failure that the subgraph
    # built from those lists gives.
    real = partition.sample_exponential
    monkeypatch.setattr(partition, "sample_exponential", lambda rng: 10.0 * real(rng))
    near_one = [WeightedGraph(k, tuple((i, i + 1, 1.0000001) for i in range(k - 1)))
                for k in (2, 5, 9)]
    built = []

    def by_edge_scan(g, parts):
        return induced_subgraphs(g, parts)

    def from_adjacency(g, parts):
        (members,) = parts
        local = {v: i for i, v in enumerate(members)}
        edges = [(i, local[x], w) for i, v in enumerate(members)
                 for x, w in g.adjacency[v] if local.get(x, -1) > i]
        sub = WeightedGraph(len(members), tuple(edges))
        (scanned,) = by_edge_scan(g, parts)
        check_derived_graph(scanned)
        assert sorted(sub.edges) == sorted(scanned.edges)
        built.append(sub.n)
        return [sub]

    chains = 0
    reasons = collections.Counter()
    for g in matrix_graphs() + near_one:
        for seed in range(25):
            for delta in (0.1, 0.9):
                monkeypatch.setattr(hierarchy, "induced_subgraphs", from_adjacency)
                got = build_chain(g, delta, random.Random(seed))
                monkeypatch.setattr(hierarchy, "induced_subgraphs", by_edge_scan)
                want = build_chain(g, delta, random.Random(seed))
                assert got == want
                reasons[want.reason if isinstance(want, ChainFailure) else "chain"] += 1
                chains += 1
    assert chains >= 500
    assert reasons["chain"] > 0 and reasons[DIAMETER_EXCEEDED] > 0
    assert len(built) > 500 and max(built) > 2


def test_cluster_tree_slices_levels_and_radii():
    for g in matrix_graphs() + [normalize(generate("cycle", size=128))[0]]:
        chain = build(g, delta=0.5, seed=3)
        count = len(chain.start)
        sets = [node_members(chain, k) for k in range(count)]
        assert len(set(sets)) == count and sets[0] == frozenset(range(g.n))
        assert sorted(chain.order) == list(range(g.n))
        parent = tree_parents(chain)
        assert chain.lo[0] <= chain.hi[0] == chain.top_level and parent[0] == -1
        assert all(p >= 0 for p in parent[1:])
        for k in range(count):
            first, last = chain.start[k], chain.stop[k]
            # a slice starts at its smallest vertex, the carving center
            assert chain.order[first] == min(sets[k]) == chain.center[k]
            if chain.children[k]:
                pieces = [(chain.start[c], chain.stop[c]) for c in chain.children[k]]
                assert pieces[0][0] == first and pieces[-1][1] == last
                assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
                assert len(pieces) > 1
                for c in chain.children[k]:
                    assert parent[c] == k and chain.hi[c] == chain.lo[k] - 1
            else:
                assert len(sets[k]) == 1 and chain.lo[k] == 0
            if len(sets[k]) == 1:
                assert chain.radius[k] == 0.0
                continue
            if k == 0 and chain.lo[0] == chain.top_level:
                assert chain.radius[0] == INF
                continue
            allowed = [v in sets[k] for v in range(g.n)]
            dist = [INF] * g.n
            assert set(settle(g.adjacency, chain.center[k], dist, allowed)) == sets[k]
            assert max(dist[v] for v in sets[k]) <= chain.radius[k]
            lam = math.log(2.0 * chain.top_level * g.n**2 / 0.5) + 1.0
            assert chain.radius[k] >= 2.0 ** (chain.lo[k] - 1) / lam


def test_level_index_is_the_position_in_the_level():
    g = normalize(generate("cycle", size=128))[0]
    chain = build(g, delta=0.5, seed=1)
    view = chain_levels(chain)
    for k in range(len(chain.start)):
        for i in range(chain.lo[k], chain.hi[k] + 1):
            assert view.levels[i][chain.level_index(i, k)] == node_members(chain, k)
