import bisect
import dataclasses
import gc
import itertools
import json
import math
import random
import re
import weakref
from collections.abc import Sequence

import pytest
from oracles import aggregate_records_by_pair, all_pairs, load_report, strip_timing
from test_graphs import STOP_WEIGHTS, random_graph_with

import mfembed.embedder as embedder
import mfembed.frt as frt
import mfembed.graphs as graphs
import mfembed.harness as harness
import mfembed.hosts as hosts
from mfembed.embedder import derive_params, embed_top
from mfembed.errors import (
    DisconnectedGraph,
    InvariantViolation,
    MfembedError,
    PairOutOfRange,
    PreconditionViolation,
)
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import INF, WeightedGraph, dijkstra, search_to
from mfembed.harness import (
    RATIO_TOLERANCE,
    ExperimentConfig,
    aggregate_records,
    emit,
    evaluate,
    run_experiment,
    sample_pairs,
)
from mfembed.hierarchy import ChainFailure
from mfembed.hosts import EmbeddingMeta, ForestLabels, HostEmbedding
from mfembed.rng import derive_seed


def identity_embedding(g):
    # a path-shaped forest is a valid elimination forest for a path graph
    forest = [None] + list(range(g.n - 1))
    return HostEmbedding(
        host=g,
        eta=list(range(g.n)),
        forest=forest,
        meta=EmbeddingMeta(n=g.n, seed=0, mode="identity", params=None, fallback_used=False),
    )


# -------------------------------------------------------------------- evaluate


def test_identity_embedding_all_ratios_one():
    g = generate("path", size=6)
    emb = identity_embedding(g)
    pairs = sample_pairs(g.n, "all", 0)
    dist_g, dist_h = evaluate(g, emb, pairs)
    assert len(dist_g) == len(dist_h) == 15
    assert all(h / d == 1.0 for d, h in zip(dist_g, dist_h))
    assert aggregate_records(pairs, dist_g, [dist_h])["violations"] == 0


def test_evaluate_two_vertex_host():
    g = WeightedGraph(2, ((0, 1, 2.0),))
    emb = embed_top(g, 0.5, seed=0)
    ([d_g], [d_h]) = evaluate(g, emb, [(0, 1)])
    assert d_g == 2.0 and d_h == 2.0 and d_h / d_g == 1.0


def test_evaluate_frt_ratio_at_least_one():
    g = WeightedGraph(2, ((0, 1, 1.5),))
    emb = frt_embed(g, 5)
    ([d_g], [d_h]) = evaluate(g, emb, [(0, 1)])
    assert d_h / d_g >= 1.0


def test_evaluate_names_a_pair_that_the_host_leaves_in_two_trees():
    # 2 is a root of its own: no host path joins it to 0 or 1
    g = generate("path", size=3)
    host = WeightedGraph(3, ((0, 1, 1.0),))
    meta = EmbeddingMeta(n=3, seed=0, mode="hand", params=None, fallback_used=False)
    emb = HostEmbedding(host=host, eta=[0, 1, 2], forest=[None, 0, None], meta=meta)
    assert evaluate(g, emb, [(0, 1)]) == ([1.0], [1.0])
    with pytest.raises(InvariantViolation, match=r"^the host does not connect pair \(1,2\)$"):
        evaluate(g, emb, [(0, 1), (1, 2), (0, 2)])


def test_emit_refuses_a_report_that_strict_json_cannot_hold(tmp_path):
    report = {"distortion": {"per_pair": [], "max_mean_ratio": INF}}
    with pytest.raises(ValueError, match="JSON compliant"):
        emit(report, "json", tmp_path / "report.json")


def test_evaluate_pair_validation():
    g = generate("path", size=3)
    emb = identity_embedding(g)
    with pytest.raises(PairOutOfRange):
        evaluate(g, emb, [(0, 0)])
    with pytest.raises(PairOutOfRange):
        evaluate(g, emb, [(0, 5)])


def test_evaluate_any_pair_order_and_given_graph_distances(monkeypatch):
    from mfembed import harness

    g = generate("grid", rows=3, cols=4, weights="uniform:1:4", seed=2)
    emb = embed_top(g, 0.5, "practical", seed=3)
    dm_g, dm_h = all_pairs(g), all_pairs(emb.host)
    calls = []

    def counted(graph, source, dist, targets):
        calls.append((graph, source, list(targets)))
        return search_to(graph, source, dist, targets)

    monkeypatch.setattr(harness, "search_to", counted)
    pairs = [(5, 1), (0, 7), (5, 2), (0, 11), (5, 9), (3, 4)]  # u repeats, not grouped
    dist_g, dist_h = evaluate(g, emb, pairs)
    assert dist_g == [dm_g[u][v] for u, v in pairs]
    assert dist_h == [dm_h[emb.eta[u]][emb.eta[v]] for u, v in pairs]
    # a graph search each time u changes; host distances come from forest labels
    assert calls == [
        (g, 5, [1]), (g, 0, [7]), (g, 5, [2]), (g, 0, [11]), (g, 5, [9]), (g, 3, [4])
    ]

    # An experiment computes the graph distances once and gives them to
    # every run and baseline host.
    calls.clear()
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=3, pairs="all", seed=1, baseline="frt"
    )
    report = run_experiment(g, config)
    # one search per distinct source for all six hosts
    assert calls == [(g, u, list(range(u + 1, g.n))) for u in range(g.n - 1)]
    assert len(report["distortion"]["per_pair"]) == g.n * (g.n - 1) // 2


def test_aggregate_records_by_hand():
    pairs = [(0, 1), (0, 2)]
    dist_g = [2.0, 4.0]
    runs = [[2.0, 4.0 * (1 - 2 * RATIO_TOLERANCE)], [4.0, 4.0 * (1 - RATIO_TOLERANCE / 2)]]
    block = aggregate_records(pairs, dist_g, runs)
    first, second = block["per_pair"]
    assert first == dict(u=0, v=1, dist_g=2.0, mean_dist_h=3.0, mean_ratio=1.5, max_ratio=2.0)
    assert (second["u"], second["v"], second["dist_g"]) == (0, 2, 4.0)
    assert second["max_ratio"] == 1 - RATIO_TOLERANCE / 2
    assert block["max_mean_ratio"] == 1.5
    assert block["max_single_run_ratio"] == 2.0
    assert block["global_mean_ratio"] == pytest.approx((1 + 2 + 2 - 1.5 * RATIO_TOLERANCE) / 4)
    assert block["violations"] == 1  # only the (0, 2) pair in run 0 falls below the tolerance
    empty = aggregate_records([], [], [[], []])
    assert empty["per_pair"] == [] and empty["global_mean_ratio"] is None
    assert empty["max_mean_ratio"] is None and empty["violations"] == 0


def random_block(rng):
    """Pairs in any order, 1-5 runs and host distances at, just below and
    far above the non-contraction floor, some of them INF."""
    runs = rng.randint(1, 5)
    count = rng.choice([0, 1, rng.randint(2, 60)])
    pairs = [tuple(rng.sample(range(40), 2)) for _ in range(count)]
    dist_g = [rng.choice([float(rng.randint(1, 9)), rng.uniform(0.5, 50.0)]) for _ in pairs]
    floor = 1.0 - RATIO_TOLERANCE
    inf_rate = rng.choice([0.0, 0.0, 0.05])  # an INF makes the global mean INF

    def host(d_g):
        if rng.random() < inf_rate:
            return INF
        at_floor = d_g * floor  # not a violation
        below = math.nextafter(at_floor, 0.0)  # a violation
        return rng.choice([at_floor, below, d_g, d_g * rng.uniform(1.0, 3.0)])

    return pairs, dist_g, [[host(d_g) for d_g in dist_g] for _ in range(runs)]


def test_aggregate_records_matches_pair_by_pair_reference():
    rng = random.Random(23)
    seen = {"empty": 0, "violations": 0, "inf": 0}
    for _ in range(400):
        block = random_block(rng)
        got = aggregate_records(*block)
        want = aggregate_records_by_pair(*block, RATIO_TOLERANCE)
        assert got == want
        assert json.dumps(got) == json.dumps(want)
        # the runs may come from a one-shot iterator, as an experiment gives them
        pairs, dist_g, runs = block
        assert json.dumps(aggregate_records(pairs, dist_g, iter(runs))) == json.dumps(want)
        seen["empty"] += not block[0]
        seen["violations"] += got["violations"] > 0
        seen["inf"] += got["max_single_run_ratio"] == INF
    assert min(seen.values()) > 10, seen


class HostDistances(list):
    """A host-distance list that a weak set can hold, known by identity."""

    __hash__ = object.__hash__


def test_experiment_holds_at_most_two_runs_of_host_distances(monkeypatch):
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=5)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=4, pairs="all", seed=2, baseline="frt"
    )
    want = strip_timing(run_experiment(g, config))
    original = ForestLabels.distances
    alive = weakref.WeakSet()
    peaks = []
    from_rows = []

    def tracked(self, pairs):
        dist_h = HostDistances(original(self, pairs))
        alive.add(dist_h)
        peaks.append(len(alive))
        # leaf-row labels leave the copies' labels empty
        from_rows.append(None in self.labels)
        return dist_h

    monkeypatch.setattr(ForestLabels, "distances", tracked)
    report = run_experiment(g, config)
    assert strip_timing(report) == want
    # eight runs' lists were made (four embeddings, read from their leaf
    # rows, then four FRT trees), and each was folded in before the one
    # after the next was made
    assert from_rows == [True] * 4 + [False] * 4, from_rows
    assert len(peaks) == 8 and max(peaks) <= 2, peaks


def labels_built_on_the_host(emb):
    return ForestLabels(dataclasses.replace(emb, leaf_rows=None))


@pytest.mark.parametrize(
    "instance",
    [
        dict(kind="grid", rows=6, cols=6),
        dict(kind="cycle", size=128),
        dict(kind="star", size=30),
        dict(kind="grid", rows=8, cols=8, weights="uniform:1:4", seed=3),
    ],
    ids=["grid6", "cycle128", "star30", "grid8-uniform"],
)
def test_experiment_reads_embedder_hosts_from_leaf_rows(instance, monkeypatch):
    # Reports from the leaf rows against reports from labels built on each
    # host: the same bytes at unit lengths. At fractional lengths the rows
    # give the full wiring's distances, which no mean falls below and which
    # stay within 1e-15 relative on this grid.
    g = generate(**instance)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=3, pairs="all", seed=4, baseline="frt"
    )
    got = strip_timing(run_experiment(g, config))
    monkeypatch.setattr(harness, "ForestLabels", labels_built_on_the_host)
    want = strip_timing(run_experiment(g, config))
    if "weights" not in instance:
        assert json.dumps(got) == json.dumps(want)
        return
    assert got["baseline"] == want["baseline"] and got["structural"] == want["structural"]
    moved = 0
    for row, ref in zip(got["distortion"]["per_pair"], want["distortion"]["per_pair"]):
        assert (row["u"], row["v"], row["dist_g"]) == (ref["u"], ref["v"], ref["dist_g"])
        for key in ("mean_dist_h", "mean_ratio", "max_ratio"):
            assert ref[key] <= row[key] <= ref[key] * (1 + 1e-15), (key, row, ref)
        moved += row["mean_dist_h"] != ref["mean_dist_h"]
    assert moved


def test_experiment_answers_a_fallback_from_labels_built_on_its_tree(monkeypatch):
    g = generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=2)
    failure = ChainFailure(level=-1, reason="Injected", cluster_index=-1)
    monkeypatch.setattr(embedder, "build_chain", lambda *args, **kwargs: failure)
    built = []

    def tracked(emb):
        labels = ForestLabels(emb)
        built.append((emb.leaf_rows is None, labels.forest_shaped))
        return labels

    monkeypatch.setattr(harness, "ForestLabels", tracked)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=2, pairs="all", seed=1)
    got = strip_timing(run_experiment(g, config))
    assert got["structural"]["fallback_rate"] == 1.0
    # the HST comes without rows, and its labels are path sums
    assert built == [(True, True)] * 2
    monkeypatch.setattr(harness, "ForestLabels", labels_built_on_the_host)
    assert json.dumps(strip_timing(run_experiment(g, config))) == json.dumps(got)


def test_unit_cycle_experiment_runs_no_heap_search(monkeypatch):
    # Every graph that an experiment on the unit cycle searches (the input,
    # its closure, the fragments, FRT's input) has one edge length, so
    # every search walks breadth-first and no host needs labels from heap
    # runs (`scripts/search_split.py --cycle 64` exits 1 otherwise).
    def refused(*args, **kwargs):
        raise AssertionError("a heap search ran")

    monkeypatch.setattr(graphs, "settle", refused)
    monkeypatch.setattr(hosts, "settle", refused)
    # the stopped walk of the pair runs keeps its heap in `graphs` itself
    monkeypatch.setattr(graphs, "heappush", refused)
    monkeypatch.setattr(graphs, "heappop", refused)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=2, pairs="all", seed=1, baseline="frt"
    )
    report = run_experiment(generate("cycle", size=64), config)
    assert not any(run["fallback"] for run in report["structural"]["per_run"])


def test_unit_cycle_experiment_pair_runs_stop_before_full_rows(monkeypatch):
    # 200 sampled pairs of the unit cycle of 512 have 153 distinct first
    # vertices; each search stops at its block's last target, so together
    # they settle 43449 vertices instead of 153 full rows of 512.
    settled = []

    def counted(graph, source, dist, targets):
        out = search_to(graph, source, dist, targets)
        settled.append(len(out))
        return out

    monkeypatch.setattr(harness, "search_to", counted)
    g = generate("cycle", size=512)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs=200, seed=1)
    run_experiment(g, config)
    pairs = sample_pairs(g.n, 200, 1)
    assert len(settled) == len({u for u, _ in pairs})
    assert 3 * sum(settled) < 2 * len(settled) * g.n


@pytest.mark.parametrize("seed", range(6))
def test_pair_distances_are_dijkstra_entries_in_any_pair_order(seed):
    # All pairs, a sample, an unsorted list whose first vertices repeat
    # apart, and duplicated pairs, on random graphs, paths and stars of each
    # length model: every distance is `dijkstra`'s entry bit for bit.
    rng = random.Random(seed)
    for weights in STOP_WEIGHTS:
        n = rng.randint(2, 40)
        for g in (
            random_graph_with(rng, n, weights),
            generate("path", size=n, weights=weights, seed=seed),
            generate("star", size=n - 1, weights=weights, seed=seed),
        ):
            emb = frt_embed(g, seed)
            every = sample_pairs(g.n, "all", seed)
            shuffled = rng.sample(every, len(every))
            orders = [
                every,
                sample_pairs(g.n, max(1, len(every) // 3), seed),
                shuffled,
                [p for p in shuffled[:5] for _ in range(2)] + shuffled[:3],
                [(v, u) for u, v in shuffled],
            ]
            for pairs in orders:
                dist_g, _ = evaluate(g, emb, pairs)
                want = [dijkstra(g, u)[v] for u, v in pairs]
                assert list(map(float.hex, dist_g)) == list(map(float.hex, want)), (g, pairs)


def test_evaluate_reads_inf_between_components():
    # Two triangles: pairs across them read INF in either walk, and pairs
    # within one read their distance. `evaluate` does not ask for
    # connectivity; the commands do.
    for lengths in ((1.0, 1.0, 1.0), (0.5, 1.25, 3.0)):
        a, b, c = lengths
        g = WeightedGraph(6, ((0, 1, a), (1, 2, b), (0, 2, c), (3, 4, a), (4, 5, b), (3, 5, c)))
        emb = frt_embed(generate("path", size=6), 1)
        pairs = [(0, 4), (2, 1), (5, 0), (3, 5), (0, 2), (4, 3), (1, 5)]
        dist_g, _ = evaluate(g, emb, pairs)
        want = [dijkstra(g, u)[v] for u, v in pairs]
        assert [d == INF for d in dist_g] == [(u < 3) != (v < 3) for u, v in pairs]
        assert list(map(float.hex, dist_g)) == list(map(float.hex, want))


def test_grid_experiment_reads_frt_trees_as_forests_and_embedder_hosts_from_rows(monkeypatch):
    # As `scripts/read_path_split.py --grid 6` requires: the embedder's runs
    # come first, each host with its leaf rows, then the FRT trees, each
    # labelled by path sums.
    built = []

    def tracked(emb):
        labels = ForestLabels(emb)
        built.append((emb.leaf_rows is not None, labels.forest_shaped))
        return labels

    monkeypatch.setattr(harness, "ForestLabels", tracked)
    g = generate("grid", rows=6, cols=6, weights="uniform:1:4", seed=1)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=2, pairs="all", seed=1, baseline="frt"
    )
    run_experiment(g, config)
    assert built == [(True, False)] * 2 + [(False, True)] * 2


@pytest.mark.parametrize(
    "settings",
    [
        dict(epsilon=1.5),
        dict(epsilon=0.0),
        dict(mode="exact"),
        dict(xi_cap=0),
        dict(mode="theory", xi_cap=4),
    ],
    ids=["epsilon-above-1", "epsilon-0", "unknown-mode", "xi-cap-0", "theory-with-cap"],
)
def test_experiment_refuses_bad_settings_before_any_pair_work(settings, monkeypatch):
    def no_pair_work(*args, **kwargs):
        raise AssertionError("pair work ran before the settings were checked")

    monkeypatch.setattr(harness, "sample_pairs", no_pair_work)
    monkeypatch.setattr(harness, "search_to", no_pair_work)
    monkeypatch.setattr(embedder, "metric_closure_weights", no_pair_work)
    monkeypatch.setattr(harness, "embed_top", no_pair_work)
    full = dict(epsilon=0.5, mode="practical", xi_cap=None) | settings
    config = ExperimentConfig(runs=1, pairs="all", seed=0, **full)
    with pytest.raises(MfembedError) as refused:
        run_experiment(generate("path", size=1000), config)
    # the same error and message as `derive_params`, which `embed_top` calls
    with pytest.raises(type(refused.value), match=f"^{re.escape(str(refused.value))}$"):
        derive_params(1000, 1, full["epsilon"], full["mode"], xi_cap=full["xi_cap"])


@pytest.mark.parametrize("pairs", [0, -3, "some"])
def test_experiment_refuses_a_pair_count_below_one_before_any_work(pairs, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the pair count was checked")

    monkeypatch.setattr(harness, "prepare", no_work)
    monkeypatch.setattr(harness, "embed_top", no_work)
    monkeypatch.setattr(harness, "search_to", no_work)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs=pairs, seed=0)
    with pytest.raises(PreconditionViolation, match="^pair sample size must be >= 1 or 'all'$"):
        run_experiment(generate("grid", rows=4, cols=4), config)
    # the error and message that `sample_pairs` gives
    with pytest.raises(PreconditionViolation, match="^pair sample size must be >= 1 or 'all'$"):
        sample_pairs(16, pairs, 0)


def test_experiment_refuses_a_disconnected_graph_before_any_pair_work(monkeypatch):
    def no_pair_work(*args, **kwargs):
        raise AssertionError("pair work ran before connectivity was checked")

    monkeypatch.setattr(harness, "sample_pairs", no_pair_work)
    monkeypatch.setattr(harness, "search_to", no_pair_work)
    # `embedder.prepare` is the gate: it refuses the graph before the closure
    monkeypatch.setattr(embedder, "metric_closure_weights", no_pair_work)
    monkeypatch.setattr(harness, "embed_top", no_pair_work)
    # two paths of 1000 and an isolated vertex
    edges = [(u, u + 1, 1.0) for u in range(999)] + [(u, u + 1, 1.0) for u in range(1000, 1999)]
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs="all", seed=0)
    # the error and message that `embed_top` gives
    with pytest.raises(DisconnectedGraph, match="^embed components separately$"):
        run_experiment(WeightedGraph(2001, tuple(edges)), config)
    with pytest.raises(DisconnectedGraph, match="^embed components separately$"):
        embed_top(WeightedGraph(2001, tuple(edges)), 0.5)


def test_experiment_drops_each_embedding_before_the_next_is_built(monkeypatch):
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=5)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=4, pairs="all", seed=2, baseline="frt"
    )
    want = strip_timing(run_experiment(g, config))
    built = []
    at_start = []

    def tracked(build):
        def wrapper(*args, **kwargs):
            # collecting frees cycles, not what a generator frame still holds
            gc.collect()
            at_start.append(sum(ref() is not None for ref in built))
            emb = build(*args, **kwargs)
            built.append(weakref.ref(emb))
            return emb

        return wrapper

    monkeypatch.setattr(harness, "embed_top", tracked(harness.embed_top))
    monkeypatch.setattr(harness, "frt_embed", tracked(harness.frt_embed))
    report = run_experiment(g, config)
    assert strip_timing(report) == want
    # four embeddings and four FRT trees, none built while another is alive
    assert at_start == [0] * 8, at_start


@pytest.mark.parametrize("baseline", ["none", "frt"])
def test_an_experiment_walks_its_graph_for_connectivity_once(baseline, connectivity_walks):
    # `embedder.prepare` is the one gate: the embedder runs take its record
    # and the FRT runs the top level measured once, and neither walks the
    # graph again (5 walks in all without the baseline, 9 with it, when
    # every run walked its input).
    g = generate("cycle", size=64)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=4, pairs=50, seed=1, baseline=baseline
    )
    want = strip_timing(run_experiment(g, config))
    walks = connectivity_walks(g)
    assert strip_timing(run_experiment(g, config)) == want
    assert len(walks) == 1


def test_experiment_hands_one_record_to_every_run_and_drops_it_after_them(monkeypatch):
    # One `prepare` call per experiment, before any pair work; every
    # embedder run gets its record and every FRT run its FRT top level, and
    # the record's graph is gone once the embedder runs are, before the
    # per-pair rows and the FRT runs.
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=5)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=3, pairs="all", seed=2, baseline="frt"
    )
    want = strip_timing(run_experiment(g, config))
    records, graphs_held, events = [], [], []
    real_prepare, real_embed, real_frt = harness.prepare, harness.embed_top, harness.frt_embed

    def tracked_prepare(*args, **kwargs):
        record = real_prepare(*args, **kwargs)
        records.append(id(record))
        graphs_held.append(weakref.ref(record.scaled))
        events.append("prepare")
        return record

    def tracked_pairs(*args):
        events.append("pairs")
        return real_pairs(*args)

    def tracked_embed(*args, prepared, **kwargs):
        events.append(("embed", id(prepared) == records[0]))
        return real_embed(*args, prepared=prepared, **kwargs)

    def tracked_frt(graph, seed, *, top):
        gc.collect()
        events.append(("frt", top == frt.top_level(g, g.min_edge_length()), graphs_held[0]() is None))
        return real_frt(graph, seed, top=top)

    real_pairs = harness._pair_distances
    monkeypatch.setattr(harness, "prepare", tracked_prepare)
    monkeypatch.setattr(harness, "_pair_distances", tracked_pairs)
    monkeypatch.setattr(harness, "embed_top", tracked_embed)
    monkeypatch.setattr(harness, "frt_embed", tracked_frt)
    assert strip_timing(run_experiment(g, config)) == want
    assert events == ["prepare", "pairs"] + [("embed", True)] * 3 + [("frt", True, True)] * 3


# ---------------------------------------------------------------- pair sampling


def test_sample_pairs_all_and_counted():
    assert sample_pairs(4, "all", 0) == [(u, v) for u in range(4) for v in range(u + 1, 4)]
    some = sample_pairs(10, 7, 3)
    assert len(some) == 7 and len(set(some)) == 7
    assert some == sample_pairs(10, 7, 3)
    assert all(u < v < 10 for u, v in some)
    assert sample_pairs(4, 100, 0) == sample_pairs(4, "all", 0)
    with pytest.raises(PreconditionViolation):
        sample_pairs(4, 0, 0)


class LazyPairList(Sequence):
    """The lexicographic pair list by bisecting row starts, not stored."""

    def __init__(self, n):
        self.starts = list(itertools.accumulate(range(n - 1, 0, -1), initial=0))

    def __len__(self):
        return self.starts[-1]

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        u = bisect.bisect_right(self.starts, i) - 1
        return u, u + 1 + i - self.starts[u]


def old_sample_pairs(n, count, seed, universe=None):
    """The former sampler, which drew from the materialized pair list."""
    if universe is None:
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if count >= len(universe):
        return list(universe)
    rng = random.Random(derive_seed(seed, "pairs"))
    return sorted(rng.sample(universe, count))


def test_sample_pairs_matches_universe_list_sampler():
    cases = [(2, 1), (50, 30), (300, 200), (50, 1224), (50, 1225), (50, 5000), (7, 20)]
    for n, k in cases:
        for seed in range(3):
            assert sample_pairs(n, k, seed) == old_sample_pairs(n, k, seed)
    # at n=3000 a lazy list stands in for the 4.5M-tuple universe (~400 MB)
    assert list(LazyPairList(300)) == [(u, v) for u in range(300) for v in range(u + 1, 300)]
    for seed in range(3):
        assert sample_pairs(3000, 200, seed) == old_sample_pairs(
            3000, 200, seed, universe=LazyPairList(3000)
        )


# ------------------------------------------------------------------ experiment


def test_single_vertex_experiment_trivial():
    g = WeightedGraph(1, ())
    report = run_experiment(g, ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs="all", seed=0))
    assert report["pairs"] == []
    assert report["distortion"]["per_pair"] == []
    assert report["distortion"]["max_mean_ratio"] is None
    assert report["distortion"]["violations"] == 0


def test_seed_hook_forces_identical_runs(monkeypatch):
    g = generate("grid", rows=3, cols=3)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=2, pairs="all", seed=1)
    monkeypatch.setattr("mfembed.harness.derive_seed", lambda *args: 42)
    report = run_experiment(g, config)
    a, b = report["structural"]["per_run"]
    assert a == b
    per_pair = report["distortion"]["per_pair"]
    for row in per_pair:
        assert row["max_ratio"] == pytest.approx(row["mean_ratio"], rel=1e-15)


def test_aggregates_match_independent_recomputation():
    g = generate("grid", rows=4, cols=4)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=6, pairs=20, seed=9, baseline="frt"
    )
    report = run_experiment(g, config)
    pairs = [tuple(p) for p in report["pairs"]]
    # recompute from scratch: rerun the same embeddings and rebuild the stats
    from mfembed.rng import derive_seed

    dm = all_pairs(g)
    ratios = {p: [] for p in pairs}
    for run in range(config.runs):
        emb = embed_top(g, 0.5, "practical", derive_seed(9, "run", run))
        cache = {}
        for u, v in pairs:
            if u not in cache:
                cache[u] = dijkstra(emb.host, emb.eta[u])
            ratios[(u, v)].append(cache[u][emb.eta[v]] / dm[u][v])
    for row in report["distortion"]["per_pair"]:
        mine = ratios[(row["u"], row["v"])]
        assert row["mean_ratio"] == pytest.approx(sum(mine) / len(mine), rel=1e-12)
        assert row["max_ratio"] == pytest.approx(max(mine), rel=1e-12)
    max_mean = max(sum(r) / len(r) for r in ratios.values())
    assert report["distortion"]["max_mean_ratio"] == pytest.approx(max_mean, rel=1e-12)
    global_mean = sum(x for r in ratios.values() for x in r) / (len(pairs) * config.runs)
    assert report["distortion"]["global_mean_ratio"] == pytest.approx(global_mean, rel=1e-12)
    assert report["baseline"] is not None
    assert report["distortion"]["violations"] == 0


@pytest.mark.parametrize("baseline", ["FRT", "", None])
def test_unknown_baseline_is_refused_before_any_embedding(monkeypatch, baseline):
    def no_embedding(*args, **kwargs):
        raise AssertionError("an embedding was built")

    monkeypatch.setattr("mfembed.harness.embed_top", no_embedding)
    monkeypatch.setattr("mfembed.harness.frt_embed", no_embedding)
    config = ExperimentConfig(
        epsilon=0.5, mode="practical", runs=2, pairs=5, seed=1, baseline=baseline
    )
    with pytest.raises(PreconditionViolation, match="unknown baseline"):
        run_experiment(generate("cycle", size=8), config)


def test_config_dict_names_the_instance_first_in_field_order():
    config = ExperimentConfig(
        epsilon=0.5, mode="theory", runs=2, pairs="all", seed=4, instance_label="g.txt"
    )
    assert list(config.to_dict().items()) == [
        ("instance", "g.txt"),
        ("epsilon", 0.5),
        ("mode", "theory"),
        ("runs", 2),
        ("pairs", "all"),
        ("seed", 4),
        ("baseline", "none"),
        ("xi_cap", None),
    ]


def test_report_deterministic_modulo_timing():
    g = generate("cycle", size=8)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=3, pairs="all", seed=123)
    a = strip_timing(run_experiment(g, config))
    b = strip_timing(run_experiment(g, config))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ------------------------------------------------------------------------ emit


def test_emit_json_round_trip(tmp_path):
    g = generate("path", size=4, weights="uniform:1.5:3", seed=2)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=2, pairs="all", seed=5)
    report = run_experiment(g, config)
    out = tmp_path / "report.json"
    emit(report, "json", out)
    assert load_report(out) == report


def test_emit_csv_rows(tmp_path):
    g = generate("grid", rows=3, cols=3)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=2, pairs=10, seed=5)
    report = run_experiment(g, config)
    out = tmp_path / "report.csv"
    emit(report, "csv", out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,dist_g,mean_dist_h,mean_ratio,max_ratio"
    assert len(lines) == 1 + 10


def test_emit_empty_pairs_valid_json(tmp_path):
    g = WeightedGraph(1, ())
    report = run_experiment(g, ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs="all", seed=0))
    out = tmp_path / "empty.json"
    emit(report, "json", out)
    parsed = json.loads(out.read_text())
    assert parsed["pairs"] == [] and parsed["distortion"]["per_pair"] == []


def test_emit_unknown_format(tmp_path):
    g = WeightedGraph(1, ())
    report = run_experiment(g, ExperimentConfig(epsilon=0.5, mode="practical", runs=1, pairs="all", seed=0))
    with pytest.raises(PreconditionViolation):
        emit(report, "xml", tmp_path / "nope")


def test_distortion_sanity_mean_ratio_at_least_one():
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=4)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=8, pairs="all", seed=2)
    report = run_experiment(g, config)
    assert report["distortion"]["violations"] == 0
    for row in report["distortion"]["per_pair"]:
        assert row["mean_ratio"] >= 1.0 - 1e-9


def test_evaluate_rejects_mismatched_embedding():
    g = generate("path", size=4, weights="uniform:1.5:3", seed=1)
    emb = identity_embedding(generate("path", size=3, weights="uniform:1.5:3", seed=1))
    with pytest.raises(PreconditionViolation):
        evaluate(g, emb, [(0, 1)])


def test_evaluate_after_json_round_trip(tmp_path):
    from mfembed.hosts import load_embedding, save_embedding

    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=6)
    emb = embed_top(g, 0.5, "practical", seed=5)
    path = tmp_path / "emb.json"
    save_embedding(emb, path)
    loaded = load_embedding(path)
    pairs = sample_pairs(g.n, "all", 0)
    dist_g, dist_h = evaluate(g, loaded, pairs)
    # 12-digit rounding stays within tolerance
    assert aggregate_records(pairs, dist_g, [dist_h])["violations"] == 0
