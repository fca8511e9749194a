"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and reported margins.
"""

import itertools
import json
import math
import random
import time

import pytest
from oracles import (
    all_pairs,
    balanced_predicate,
    bellman_ford,
    chain_cluster_sets,
    chain_levels,
    chain_sigma,
    check_derived_graph,
    check_forest_labels_by_dijkstra,
    check_labels_against_copy_edges,
    check_partition_validity,
    children_hop_diameter,
    count_cut_edges,
    cut_members,
    cuts_conflict,
    diameter,
    enumerate_balanced_chain_cuts,
    floyd_warshall,
    induced_subgraph,
    max_cluster_diameter,
    quotient,
    recording_derived_graphs,
    stretch_exponent,
    strip_timing,
)

from mfembed.cutpack import CutPacking, build_cut_packing, find_balanced_cut
from mfembed.embedder import derive_params, embed_top
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import (
    WeightedGraph,
    dijkstra,
    metric_closure_weights,
    normalize,
)
from mfembed.harness import ExperimentConfig, run_experiment, sample_pairs
from mfembed.hierarchy import ChainFailure, ClusteringChain, build_chain
from mfembed.hosts import embedding_to_json
from mfembed.partition import carve
from mfembed.rng import derive_seed

EPSILON = 0.5
MATRIX_SEEDS = 20
TOLERANCE = 1e-9


def matrix_instances():
    out = []
    for weights, tag in (("unit", "unit"), ("uniform:1:4", "uniform")):
        out.append((f"grid4x4-{tag}", generate("grid", rows=4, cols=4, weights=weights, seed=1)))
        out.append((f"grid8x8-{tag}", generate("grid", rows=8, cols=8, weights=weights, seed=2)))
        out.append((f"cycle16-{tag}", generate("cycle", size=16, weights=weights, seed=3)))
        out.append((f"star16-{tag}", generate("star", size=15, weights=weights, seed=4)))
    return out


@pytest.fixture(scope="module")
def matrix_runs():
    started = time.perf_counter()
    runs = {}
    for name, g in matrix_instances():
        dm = all_pairs(g)
        entries = []
        for seed in range(MATRIX_SEEDS):
            emb = embed_top(g, EPSILON, "practical", seed=seed)
            tree = frt_embed(g, derive_seed(seed, "frt-baseline"))
            entries.append((seed, emb, tree))
        runs[name] = (g, dm, entries)
    elapsed = time.perf_counter() - started
    return runs, elapsed


def host_rows(emb, sources):
    rows = {}
    for u in sources:
        rows[u] = dijkstra(emb.host, emb.eta[u])
    return rows


def forest_ancestors(forest):
    anc = []
    for v in range(len(forest)):
        seen = set()
        u = forest[v]
        while u is not None:
            if u in seen:
                raise AssertionError("cycle in forest")
            seen.add(u)
            u = forest[u]
        anc.append(seen)
    return anc


def forest_depth_independent(forest):
    anc = forest_ancestors(forest)
    return max(len(a) for a in anc) + 1


# -------------------------------------------------------------- criterion 1


def test_criterion_1_non_contraction(matrix_runs):
    runs, build_time = matrix_runs
    started = time.perf_counter()
    violations = 0
    pairs_checked = 0
    for name, (g, dm, entries) in runs.items():
        for _seed, emb, tree in entries:
            for e in (emb, tree):
                rows = host_rows(e, range(g.n))
                for u in range(g.n):
                    target = rows[u]
                    for v in range(u + 1, g.n):
                        pairs_checked += 1
                        if target[e.eta[v]] < dm[u][v] * (1 - TOLERANCE):
                            violations += 1
    elapsed = time.perf_counter() - started + build_time
    assert violations == 0
    assert elapsed <= 120, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: non-contraction, {pairs_checked} pair checks, "
        f"0 violations, {elapsed:.1f}s"
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_forest_validity_and_depth(matrix_runs):
    runs, _ = matrix_runs
    depth_checks = 0
    for name, (g, _dm, entries) in runs.items():
        log2n = math.ceil(math.log2(g.n))
        for _seed, emb, tree in entries:
            for e in (emb, tree):
                anc = forest_ancestors(e.forest)
                for x, y, _w in e.host.edges:
                    assert x in anc[y] or y in anc[x], (name, x, y)
            if not emb.meta.fallback_used:
                bound = 1 + emb.meta.params.tau * emb.meta.hat_ell * log2n
                assert forest_depth_independent(emb.forest) <= bound, name
                depth_checks += 1
    print(f"ACCEPTANCE 2 PASS: forests valid, {depth_checks} depth bounds satisfied")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_recursion_progress(matrix_runs):
    # the progress assertion raises InvariantViolation inside embed_top; all
    # matrix embeddings were built, so it never fired
    runs, _ = matrix_runs
    total_splits = 0
    for name, (_g, _dm, entries) in runs.items():
        for _seed, emb, _tree in entries:
            if not emb.meta.fallback_used:
                assert emb.meta.split_calls >= 1
                total_splits += emb.meta.split_calls
    assert total_splits > 0
    print(f"ACCEPTANCE 3 PASS: progress assertion never fired across {total_splits} splits")


# ----------------------------------------------------- criteria 4 and 5 data


GRID8 = generate("grid", rows=8, cols=8)
GRID8_PATH = list(range(8)) + [15, 23, 31, 39, 47, 55, 63]


@pytest.fixture(scope="module")
def partition_runs():
    g = GRID8
    d = diameter(g)
    r = d / 8
    started = time.perf_counter()
    stats = []
    for seed in range(2000):
        balls = carve(g, range(g.n), [True] * g.n, r, random.Random(seed))
        check_partition_validity(g, balls)  # P1 and partition exactness, every run
        worst = max_cluster_diameter(g, balls)
        qd = quotient(g, [members for _, members, _ in balls]).hop_diameter()
        cuts = count_cut_edges(g, GRID8_PATH, balls)
        stats.append((worst, qd, cuts))
    elapsed = time.perf_counter() - started
    return g, d, r, stats, elapsed


def test_criterion_4_single_level_bounds(partition_runs):
    g, d, r, stats, elapsed = partition_runs
    n_runs = len(stats)
    lines = []
    for t in (0.0, 1.0, 2.0):
        margin = 3 * math.sqrt(math.exp(-t) / n_runs)
        p2_bound = 2 * r * (t + 1 + math.log(g.n))
        p2_freq = sum(1 for w, _q, _c in stats if w > p2_bound) / n_runs
        assert p2_freq <= math.exp(-t) + margin, (t, p2_freq)
        p3_bound = 120 * (d / r) * (t + 1 + math.log(g.n))
        p3_freq = sum(1 for _w, q, _c in stats if q > p3_bound) / n_runs
        assert p3_freq <= math.exp(-t) + margin, (t, p3_freq)
        lines.append(f"t={t:.0f}: P2 {p2_freq:.4f} P3 {p3_freq:.4f} cap {math.exp(-t)+margin:.4f}")
    assert elapsed <= 300, f"criterion 4 exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 PASS: P1 exact on {n_runs} runs; " + "; ".join(lines) + f"; {elapsed:.1f}s")


def test_criterion_5_cut_rate(partition_runs):
    g, _d, r, stats, _elapsed = partition_runs
    ell = stretch_exponent(g)
    path_length = float(len(GRID8_PATH) - 1)  # unit edges
    bound = (path_length / r) * 4 * ell
    mean_cuts = sum(c for _w, _q, c in stats) / len(stats)
    assert mean_cuts <= bound
    print(
        f"ACCEPTANCE 5 PASS: mean cut edges {mean_cuts:.3f} <= {bound:.1f} "
        f"(margin {bound - mean_cuts:.1f})"
    )


# -------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def chain_runs():
    g = WeightedGraph(GRID8.n, tuple((u, v, 2.0 * w) for u, v, w in GRID8.edges))
    delta = 0.2
    outcomes = []
    for seed in range(2000):
        outcomes.append(build_chain(g, delta, random.Random(seed)))
    return g, delta, outcomes


def test_criterion_6_chain_goodness_and_failure_rate(chain_runs):
    g, delta, outcomes = chain_runs
    n_fail_window = 500
    failures = sum(1 for o in outcomes[:n_fail_window] if isinstance(o, ChainFailure))
    fail_cap = delta + 3 * math.sqrt(delta / n_fail_window)
    assert failures / n_fail_window <= fail_cap

    good = [o for o in outcomes if isinstance(o, ClusteringChain)]
    assert good, "no successful chains"
    # spot-check goodness with an independent metric oracle
    for chain in good[::200]:
        _assert_goodness_oracle(g, chain, delta)

    # Q3: per-level mean cut counts on a fixed shortest path
    path = GRID8_PATH
    length_q = 2.0 * (len(path) - 1)
    top = good[0].top_level
    sums = [0] * top
    for chain in good:
        assert chain.top_level == top
        counts = _level_counts(chain, path)
        for i in range(top):
            sums[i] += counts[i]
    n_ok = len(good)
    lam = math.log(2 * top * g.n * g.n / delta) + 1
    margins = []
    for i in range(1, top):
        mean = sums[i] / n_ok
        bound = 2.0**-i * 8 * top * lam * length_q
        assert mean <= bound, (i, mean, bound)
        margins.append(f"L{i}:{mean:.2f}<={bound:.0f}")
    print(
        f"ACCEPTANCE 6 PASS: failures {failures}/{n_fail_window} (cap {fail_cap:.3f}), "
        f"Q1/Q2 exact on {n_ok} chains, Q3 " + " ".join(margins)
    )


def _level_counts(chain, path):
    counts = [0] * (chain.top_level + 1)
    vtc = chain_levels(chain).vertex_to_cluster
    for u, v in zip(path, path[1:]):
        level = 0
        for i in range(chain.top_level - 1, 0, -1):
            if vtc[i][u] != vtc[i][v]:
                level = i
                break
        counts[level] += 1
    return counts


def _assert_goodness_oracle(g, chain, delta):
    view = chain_levels(chain)
    sigma = chain_sigma(chain, delta)
    for i, level in enumerate(view.levels):
        for cluster in level:
            members = sorted(cluster)
            if len(members) < 2:
                continue
            sub, _ = induced_subgraph(g, members)
            fw = floyd_warshall(sub)
            assert max(x for row in fw for x in row) <= 2.0**i
    for i in range(chain.top_level):
        for idx in range(len(view.levels[i + 1])):
            if view.parents[i].count(idx) > 1:
                assert children_hop_diameter(g, view.levels, view.parents, i, idx) <= sigma


# -------------------------------------------------------------- criterion 7


def test_criterion_7_balanced_cuts():
    checked_cuts = 0
    for name, g in matrix_instances():
        scaled, _ = normalize(metric_closure_weights(g))
        for seed in range(3):
            chain = build_chain(scaled, 0.1, random.Random(derive_seed(seed, name)))
            if isinstance(chain, ChainFailure):
                continue
            params = derive_params(g.n, 7, EPSILON, "practical")
            packing = build_cut_packing(chain, params.xi)
            chain_sets = set(chain_cluster_sets(chain))
            for cut in packing.cuts:
                members = cut_members(chain, cut)
                assert balanced_predicate(scaled, list(members)), name
                for member in members:
                    assert member in chain_sets
                checked_cuts += 1
            for a, b in itertools.combinations(packing.cuts, 2):
                assert not cuts_conflict(chain, a, b)
    # small instances: membership in the brute-force enumeration
    small = [
        generate("path", size=6),
        generate("cycle", size=8),
        generate("star", size=9),
        generate("grid", rows=2, cols=5),
    ]
    for g in small:
        scaled, _ = normalize(g)
        chain = build_chain(scaled, 0.2, random.Random(17))
        assert isinstance(chain, ClusteringChain)
        legal = enumerate_balanced_chain_cuts(scaled, chain)
        packing = CutPacking()
        for _ in range(5):
            cut = find_balanced_cut(chain, packing)
            family = frozenset(cut_members(chain, cut))
            assert family in legal
            if family in {frozenset(cut_members(chain, c)) for c in packing.cuts}:
                break
            packing.add(cut, chain)
    print(f"ACCEPTANCE 7 PASS: {checked_cuts} cuts balanced/chain-respecting, packings conflict-free")


# -------------------------------------------------------------- criterion 8


def small_catalog():
    """Deterministic catalog of connected weighted graphs, n <= 6."""
    catalog = []
    weights = [1.5, 2.0, 3.0]

    def weighted(n, edges, salt):
        ws = [weights[(i + salt) % 3] for i in range(len(edges))]
        return WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(edges, ws)))

    from oracles import all_connected_labeled_graphs

    for n in (2, 3, 4):
        for salt, edges in enumerate(all_connected_labeled_graphs(n)):
            catalog.append(weighted(n, edges, salt))
    rng = random.Random(2024)
    for n in (5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        made = 0
        while made < 8:
            edges = sorted(rng.sample(pairs, rng.randint(n - 1, len(pairs))))
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != n:
                continue
            catalog.append(weighted(n, edges, made))
            made += 1
    return catalog


def test_criterion_8_small_instance_oracle():
    from mfembed.harness import evaluate

    catalog = small_catalog()
    assert len(catalog) >= 50
    pair_checks = 0
    for idx, g in enumerate(catalog):
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        for seed in range(10):
            emb = embed_top(g, EPSILON, "practical", seed=derive_seed(idx, seed))
            dist_g, dist_h = evaluate(g, emb, pairs)
            assert len(dist_g) == len(dist_h) == len(pairs)
            oracle_rows = {}
            for (u, v), d_g, d_h in zip(pairs, dist_g, dist_h):
                src = emb.eta[u]
                if src not in oracle_rows:
                    oracle_rows[src] = bellman_ford(emb.host, src)
                assert d_h == oracle_rows[src][emb.eta[v]]  # exact
                assert d_h >= d_g  # exact non-contraction
                pair_checks += 1
    print(
        f"ACCEPTANCE 8 PASS: {len(catalog)} instances x 10 seeds, "
        f"{pair_checks} exact oracle matches"
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_9_distortion_trend():
    g = GRID8
    master_seeds = [101, 102, 103, 104, 105]
    arms = {}
    for xi_cap in (16, 2):
        values = []
        for master in master_seeds:
            config = ExperimentConfig(
                epsilon=EPSILON,
                mode="practical",
                runs=32,
                pairs="all",
                seed=master,
                xi_cap=xi_cap,
            )
            report = run_experiment(g, config)
            assert report["distortion"]["violations"] == 0
            values.append(report["distortion"]["max_mean_ratio"])
        arms[xi_cap] = sum(values) / len(values)
    assert arms[16] <= arms[2], arms
    print(
        f"ACCEPTANCE 9 PASS: max per-pair mean ratio xi_cap=16: {arms[16]:.4f} "
        f"<= xi_cap=2: {arms[2]:.4f}"
    )


# ------------------------------------------------------------- criterion 10


def test_criterion_10_frt_baseline():
    g2 = WeightedGraph(2, ((0, 1, 1.5),))
    for seed in range(64):
        emb = frt_embed(g2, seed)
        d = dijkstra(emb.host, emb.eta[0])[emb.eta[1]]
        assert 1.5 <= d <= 12.0
    g = GRID8
    dm = all_pairs(g)
    pairs = sample_pairs(g.n, 150, 7)
    ratios = []
    for seed in range(5):
        emb = frt_embed(g, seed)
        rows = host_rows(emb, {u for u, _ in pairs})
        for u, v in pairs:
            ratio = rows[u][emb.eta[v]] / dm[u][v]
            assert ratio >= 1 - TOLERANCE
            ratios.append(ratio)
    mean = sum(ratios) / len(ratios)
    assert math.isfinite(mean)
    print(f"ACCEPTANCE 10 PASS: n=2 bounds hold for all randomness; 8x8 mean distortion {mean:.3f}")


# ------------------------------------------------------------- criterion 11


def test_criterion_11_parameter_formulas():
    n, ell, eps, c = 100, 10, 0.5, 64.0
    ln_n = math.log(n)
    delta = eps / (c * ell * n * ln_n * ln_n)
    lam = math.log(2 * ell * n * n / delta) + 1
    xi = math.ceil(64 * ell**3 * math.ceil(math.log2(n)) * lam / eps)
    sigma = 480 * lam * lam
    tau = math.ceil((xi + 1) * 1.0 * ell**2 * sigma**2)
    p = derive_params(n, ell, eps, "theory")
    assert p.c_fallback == c
    assert abs(p.delta - delta) <= 1e-6 * abs(delta)
    assert p.xi == xi
    assert abs(p.sigma - sigma) <= 1e-6 * abs(sigma)
    assert p.tau == tau
    print(
        f"ACCEPTANCE 11 PASS: delta={p.delta:.6g} xi={p.xi} sigma={p.sigma:.6g} tau={p.tau}"
    )


def test_host_labels_are_the_copy_edge_weights(matrix_runs):
    # host distances two ways: the labels' subtree Dijkstra and the wiring
    runs, _ = matrix_runs
    outcomes = []
    for g, _dm, entries in runs.values():
        for _seed, emb, _tree in entries:
            if not emb.meta.fallback_used:
                outcomes.append(check_labels_against_copy_edges(g, emb))
    # both the exact and the relative comparison ran
    assert outcomes.count(True) and outcomes.count(False)
    print(f"host labels equal the copy edges on {len(outcomes)} embeddings")


def test_frt_tree_labels_are_the_dijkstra_labels(matrix_runs):
    # FRT trees take path sums read at the deepest common ancestor; so does
    # the embedder's host of a single edge, a copy wired to both ends
    runs, _ = matrix_runs
    trees = 0
    for _g, _dm, entries in runs.values():
        for _seed, _emb, tree in entries:
            check_forest_labels_by_dijkstra(tree)
            trees += 1
    check_forest_labels_by_dijkstra(embed_top(WeightedGraph(2, ((0, 1, 1.5),)), EPSILON, seed=0))
    print(f"FRT labels equal the Dijkstra labels on {trees} trees")


def test_derived_graphs_are_valid_graphs():
    # Every graph that the library builds without checks (the closed and
    # the rescaled input, each fragment and cluster subgraph, the embedder's
    # and the FRT tree's host) is one the public constructor keeps as it is.
    hosts = 0
    for _name, g in matrix_instances():
        for seed in range(MATRIX_SEEDS):
            with recording_derived_graphs() as built:
                emb = embed_top(g, EPSILON, "practical", seed=seed)
                tree = frt_embed(g, derive_seed(seed, "frt-baseline"))
            for h in built:
                check_derived_graph(h, allow_zero=h is emb.host)
                hosts += h is emb.host or h is tree.host
    assert hosts == 2 * len(matrix_instances()) * MATRIX_SEEDS
    print(f"derived graphs valid on {hosts // 2} embeddings and FRT trees")


# ------------------------------------------------------------- criterion 12


def test_criterion_12_determinism(matrix_runs):
    runs, _ = matrix_runs
    for name, (g, _dm, entries) in runs.items():
        for seed, emb, tree in entries[:3]:
            again = embed_top(g, EPSILON, "practical", seed=seed)
            assert embedding_to_json(again) == embedding_to_json(emb), name
            tree_again = frt_embed(g, derive_seed(seed, "frt-baseline"))
            assert embedding_to_json(tree_again) == embedding_to_json(tree), name
        config = ExperimentConfig(
            epsilon=EPSILON, mode="practical", runs=3, pairs=30, seed=77, instance_label=name
        )
        a = strip_timing(run_experiment(g, config))
        b = strip_timing(run_experiment(g, config))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name
    print("ACCEPTANCE 12 PASS: embedding and report JSON bit-identical across reruns")
