import gc
import json
import math
import random
import weakref

import oracles
import pytest
from oracles import (
    all_pairs,
    bellman_ford,
    components_of_cut,
    cut_members,
    embed_by_reference,
    embedding_to_dict,
    floyd_warshall,
    recording_splits,
    root_split,
)

import mfembed.embedder as embedder
from mfembed.embedder import (
    derive_params,
    embed_top,
    prepare,
    split,
    SplitResult,
)
from mfembed.errors import (
    BadEmbedding,
    BadEpsilon,
    CyclicParentArray,
    DisconnectedGraph,
    InvariantViolation,
    PreconditionViolation,
)
from mfembed.cutpack import build_cut_packing
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import WeightedGraph, dijkstra
from mfembed.hierarchy import ChainFailure, build_chain, chain_constants
from mfembed.hosts import (
    check_forest_validity,
    embedding_from_dict,
    embedding_to_json,
    treedepth_of,
)


def assert_non_contracting(g, emb, tol=1e-9):
    dm = all_pairs(g)
    for u in range(g.n):
        hd = dijkstra(emb.host, emb.eta[u])
        for v in range(g.n):
            if u == v:
                continue
            assert hd[emb.eta[v]] >= dm[u][v] * (1 - tol), (u, v)
            assert hd[emb.eta[v]] < math.inf


# ------------------------------------------------------------------ parameters


def theory_values(n, ell, eps, c):
    ln_n = math.log(n)
    delta = eps / (c * ell * n * ln_n * ln_n)
    lam = math.log(2 * ell * n * n / delta) + 1
    log2n = math.ceil(math.log2(n))
    xi = math.ceil(64 * ell**3 * log2n * lam / eps)
    sigma = 480 * lam * lam
    tau = math.ceil(float(xi + 1) * ell**2 * sigma**2)
    return delta, xi, sigma, tau


def test_derive_params_hand_values():
    p = derive_params(100, 10, 0.5, "theory")
    delta, xi, sigma, tau = theory_values(100, 10, 0.5, embedder.C_FALLBACK)
    assert p.delta == pytest.approx(delta, rel=1e-12)
    assert p.delta == pytest.approx(3.684e-7, rel=1e-3)
    assert p.xi == xi
    assert p.sigma == pytest.approx(sigma, rel=1e-12)
    assert p.tau == tau
    assert p.c_fallback == embedder.C_FALLBACK == 64.0
    assert p.xi_cap is None and p.tau_cap is None


def test_derive_params_practical_caps():
    p = derive_params(100, 10, 0.5, "practical", xi_cap=32)
    assert p.xi == 32 and p.tau == 40
    assert p.xi_cap == 32 and p.tau_cap == 40
    assert p.mode == "practical"


def test_derive_params_theory_mode_refuses_a_cap():
    # the raw xi is about 2.5e7 here; a cap passed in theory mode would
    # otherwise be dropped without a word
    with pytest.raises(PreconditionViolation, match="takes no xi_cap"):
        derive_params(100, 10, 0.5, "theory", xi_cap=4)
    with pytest.raises(PreconditionViolation, match="takes no xi_cap"):
        embed_top(two_vertex(2.0), 0.5, "theory", xi_cap=4)


def test_derive_params_default_tau_cap():
    p = derive_params(64, 7, 0.5, "practical")
    assert p.tau == p.tau_cap == 4 * math.ceil(math.sqrt(64))
    assert p.xi == 16


def test_recorded_sigma_is_taken_at_hat_ell_not_at_the_chains_top_level():
    # One edge of length 5: hat_ell is 1, but the root chain's top level is
    # 3 (5 <= 2**3), so `params` records the sigma of L = 1 while the root
    # chain checks its quotients against the sigma of L = 3.
    g = two_vertex(5.0)
    scaled, _, hat, params, top = prepare(g, 0.5)
    chain = build_chain(scaled, params.delta, random.Random(0))
    assert (hat, chain.top_level, top) == (1, 3, 3)
    assert round(params.sigma) == 29893
    assert round(chain_constants(chain.top_level, 2, params.delta)[1]) == 38795
    assert embed_top(g, 0.5, seed=1).meta.params.sigma == params.sigma


def test_derive_params_bad_epsilon():
    with pytest.raises(BadEpsilon):
        derive_params(100, 10, 0.0, "practical")
    with pytest.raises(BadEpsilon):
        derive_params(100, 10, 1.0, "practical")
    with pytest.raises(PreconditionViolation):
        derive_params(1, 10, 0.5, "practical")


def test_derive_params_delta_stays_below_one_and_underflow_advises_raising_epsilon():
    # delta = epsilon / (64 * hat_ell * n * ln(n)**2) is largest at n = 2,
    # hat_ell = 1 and epsilon near 1: about 1/61.5
    top = derive_params(2, 1, 1 - 2**-53, "practical").delta
    assert top == pytest.approx(1 / (128 * math.log(2) ** 2), rel=1e-15) and top < 1
    # a product past the float range leaves delta at 0
    with pytest.raises(BadEpsilon, match="underflows; raise epsilon"):
        derive_params(2, 10**300, 1e-300, "practical")


# ----------------------------------------------------------------------- split


def two_vertex(d):
    return WeightedGraph(2, ((0, 1, d),))


def split_cut(g, params, seed):
    """(chain, cut) that split(g, params, Random(seed)) samples, rebuilt
    from the same stream: the chain's radii, then the cut choice."""
    rng = random.Random(seed)
    chain = build_chain(g, params.delta, rng)
    return chain, rng.choice(build_cut_packing(chain, params.xi).cuts)


def test_split_two_vertex_forced():
    g = two_vertex(2.0)
    params = derive_params(2, 1, 0.5, "practical")
    result = split(g, params, random.Random(0))
    assert isinstance(result, SplitResult)
    # the packing keeps one cut: the centroid walk on the quotient's
    # decomposition (bags {0,1} -> {1}, root {1}) stops at the root
    assert result.chain.top_level == 1
    assert result.components == [[0], [1]]
    chain, cut = split_cut(g, params, 0)
    assert cut_members(chain, cut) == (frozenset({1}),)
    assert result.components == components_of_cut(g, chain, cut)
    assert result.portals == [1]


def test_split_failure_injection(fail_chain_at):
    g = two_vertex(2.0)
    params = derive_params(2, 1, 0.5, "practical")
    fail_chain_at(0)
    result = split(g, params, random.Random(0))
    assert isinstance(result, ChainFailure)
    assert result.reason == "Injected"


def test_split_star_portal_per_member():
    g = generate("star", size=6, weights="uniform:1.5:1.5", seed=0)
    params = derive_params(g.n, 4, 0.5, "practical")
    for seed in range(10):
        result = split(g, params, random.Random(seed))
        assert isinstance(result, SplitResult)
        chain, cut = split_cut(g, params, seed)
        assert result.components == components_of_cut(g, chain, cut)
        assert len(result.portals) == len(cut)
        for z, member in zip(result.portals, cut_members(chain, cut)):
            assert z in member


# ------------------------------------------------------------------ embeddings


def test_embed_single_vertex():
    emb = embed_top(WeightedGraph(1, ()), 0.5, seed=4)
    assert emb.host.n == 1 and emb.depth == 1 and emb.eta == [0]
    assert not emb.meta.fallback_used


def test_embed_two_vertex_hand_trace():
    emb = embed_top(two_vertex(2.0), 0.5, "practical", seed=0)
    # one portal, at vertex 1: its copy 2 is the root above both vertices
    assert emb.host.n == 3
    edges = {(u, v): w for u, v, w in emb.host.edges}
    assert edges == {(0, 2): 2.0, (1, 2): 0.0}
    assert emb.forest == [2, 2, None]
    assert emb.depth == 2
    hd = dijkstra(emb.host, 0)
    assert hd[1] == 2.0
    check_forest_validity(emb)


def test_embed_non_contraction_and_forest_on_small_instances():
    instances = [
        generate("grid", rows=3, cols=3),
        generate("grid", rows=3, cols=4, weights="uniform:1:4", seed=8),
        generate("cycle", size=9),
        generate("star", size=7),
        generate("path", size=8),
    ]
    for g in instances:
        for seed in (0, 1):
            emb = embed_top(g, 0.5, "practical", seed=seed)
            assert not emb.meta.fallback_used
            assert_non_contracting(g, emb)
            check_forest_validity(emb)
            params = emb.meta.params
            bound = 1 + params.tau * _hat_ell_of(g) * math.ceil(math.log2(g.n))
            assert emb.depth <= bound


def _hat_ell_of(g):
    from mfembed.graphs import hat_ell, metric_closure_weights, normalize

    closed = metric_closure_weights(g)
    scaled, _ = normalize(closed)
    return hat_ell(scaled)


def test_embed_reproducible_bit_identical():
    g = generate("grid", rows=4, cols=4)
    a = embed_top(g, 0.5, "practical", seed=7)
    b = embed_top(g, 0.5, "practical", seed=7)
    assert a.host == b.host and a.forest == b.forest and a.eta == b.eta
    assert embedding_to_json(a) == embedding_to_json(b)
    c = embed_top(g, 0.5, "practical", seed=8)
    assert embedding_to_json(a) != embedding_to_json(c)


def test_embed_fallback_injection(fail_chain_at):
    g = generate("grid", rows=3, cols=3)
    fail_chain_at(0)
    emb = embed_top(g, 0.5, "practical", seed=1)
    assert emb.meta.fallback_used
    assert emb.host.m == emb.host.n - 1  # tree host
    assert_non_contracting(g, emb)
    check_forest_validity(emb)


def test_fallback_keeps_its_chain_failure(monkeypatch, fail_chain_at):
    g = generate("grid", rows=3, cols=3)
    fail_chain_at(0)
    emb = embed_top(g, 0.5, "practical", seed=1)
    assert emb.meta.fallback_reason.reason == "Injected"
    assert "fallback_reason" not in embedding_to_dict(emb)
    monkeypatch.undo()
    assert embed_top(g, 0.5, "practical", seed=1).meta.fallback_reason is None


def assert_same_embedding(got, want):
    assert got == want and embedding_to_json(got) == embedding_to_json(want)
    if want.leaf_rows is None:
        assert got.leaf_rows is None
    else:
        assert [list(map(float.hex, r)) for r in got.leaf_rows] == [
            list(map(float.hex, r)) for r in want.leaf_rows
        ]


@pytest.mark.parametrize("mode", ["practical", "theory"])
def test_embed_top_with_a_prepared_record_equals_embed_top_without(mode, fail_chain_at):
    # One record serves every seed, with and without leaf rows, and a
    # fallback at the root split and at a deeper one, whose tree measures
    # its own top level.
    instances = [
        two_vertex(2.0),
        generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=3),
        generate("cycle", size=20),
    ]
    for g in instances:
        prepared = prepare(g, 0.5, mode)
        for seed in (0, 1):
            for leaf_rows in (False, True):
                want = embed_top(g, 0.5, mode, seed, leaf_rows=leaf_rows)
                got = embed_top(g, 0.5, mode, seed, leaf_rows=leaf_rows, prepared=prepared)
                assert not got.meta.fallback_used
                assert_same_embedding(got, want)
    g = generate("grid", rows=3, cols=3)
    prepared = prepare(g, 0.5, mode)
    for k in (0, 1):
        fail_chain_at(k)
        want = embed_top(g, 0.5, mode, 1, leaf_rows=True)
        fail_chain_at(k)
        got = embed_top(g, 0.5, mode, 1, leaf_rows=True, prepared=prepared)
        assert got.meta.fallback_used and got.meta.fallback_reason.reason == "Injected"
        assert_same_embedding(got, want)


def test_embed_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        embed_top(WeightedGraph(3, ((0, 1, 1.0),)), 0.5)


def test_prepare_checks_settings_then_connectivity_before_the_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("the closure was built before the input was checked")

    monkeypatch.setattr(embedder, "metric_closure_weights", no_closure)
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(BadEpsilon):
        prepare(g, 1.5)
    for mode in ("practical", "theory"):
        with pytest.raises(DisconnectedGraph, match="^embed components separately$"):
            prepare(g, 0.5, mode)
        with pytest.raises(DisconnectedGraph, match="^embed components separately$"):
            embed_top(g, 0.5, mode)


SPLIT_INSTANCES = [
    pytest.param(dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), id="grid6"),
    pytest.param(dict(kind="grid", rows=20, cols=20, weights="uniform:1:4"), id="grid20"),
    pytest.param(dict(kind="cycle", size=512), id="cycle512"),
    pytest.param(dict(kind="star", size=40), id="star40"),
]


@pytest.mark.parametrize("mode", ["practical", "theory"])
@pytest.mark.parametrize("instance", SPLIT_INSTANCES)
def test_the_root_split_of_the_prepared_record_is_embed_tops(monkeypatch, instance, mode):
    # One `split` on the `prepare` record, drawn from the root's stream,
    # gives `embed_top`'s root split: its chain, cut list and index.
    splits = recording_splits(monkeypatch)
    g = generate(seed=1, **instance)
    for seed in range(1, 6):
        splits.clear()
        emb = embed_top(g, 0.5, mode, seed=seed)
        assert not emb.meta.fallback_used
        root = splits[0]
        splits.clear()
        _, result = root_split(g, 0.5, mode, seed)
        assert splits == [result] and result == root
        assert emb.meta.packing_sizes[0] == len(result.cuts)


def test_embed_top_walks_for_connectivity_only_without_a_record(connectivity_walks):
    # A record stands as proof that its graph is connected; without one,
    # `prepare` walks the graph once.
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=3)
    prepared = prepare(g, 0.5)
    walks = connectivity_walks(g)
    for seed in range(3):
        assert not embed_top(g, 0.5, seed=seed, prepared=prepared).meta.fallback_used
    assert walks == []
    embed_top(g, 0.5, seed=0)
    assert len(walks) == 1


def test_embed_top_without_a_record_makes_one_and_passes_its_top_level(monkeypatch):
    # The root split takes the record's top level, so its chain build
    # measures none; the deeper splits measure their own.
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=3)
    records, tops = [], []
    real_prepare, real_chain = embedder.prepare, embedder.build_chain

    def recorded_prepare(*args, **kwargs):
        records.append(real_prepare(*args, **kwargs))
        return records[-1]

    def recorded_chain(sub, delta, rng, top=None):
        tops.append(top)
        return real_chain(sub, delta, rng, top)

    monkeypatch.setattr(embedder, "prepare", recorded_prepare)
    monkeypatch.setattr(embedder, "build_chain", recorded_chain)
    emb = embed_top(g, 0.5, seed=1)
    assert len(records) == 1 and isinstance(records[0].top_level, int)
    assert tops[0] == records[0].top_level and set(tops[1:]) == {None}
    assert len(tops) == emb.meta.split_calls > 1


def test_a_split_holds_neither_its_chain_nor_its_cut_list_across_the_recursion(monkeypatch):
    # When a split starts, no split above it still holds the chain or the
    # cut list it sampled from; it keeps the drawn cut's components alone.
    class Cuts(list):
        pass

    held, alive = [], []
    real_split = embedder.split

    def split(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in held))
        result = real_split(*args)
        result = result._replace(cuts=Cuts(result.cuts))
        held.extend((weakref.ref(result.chain), weakref.ref(result.cuts)))
        return result

    monkeypatch.setattr(embedder, "split", split)
    grid = generate("grid", rows=6, cols=6, weights="uniform:1:4", seed=2)
    for g in (grid, generate("cycle", size=40)):
        held.clear()
        alive.clear()
        emb = embed_top(g, 0.5, seed=1)
        assert not emb.meta.fallback_used and len(alive) == emb.meta.split_calls > 2
        assert alive == [0] * len(alive)


def test_each_fragment_subgraph_is_built_once_from_its_parent(monkeypatch):
    # A split that leaves a multi-vertex component is followed by one
    # `induced_subgraphs` call on the split's own graph, which builds each
    # such component once; a split that leaves only singletons is followed by
    # none, and the root graph is built by no call.
    events = []
    real_split, real_subgraphs = embedder.split, embedder.induced_subgraphs

    def split(g, params, rng, top=None):
        result = real_split(g, params, rng, top)
        events.append(("split", g, [c for c in result.components if len(c) > 1]))
        return result

    def subgraphs(g, parts):
        events.append(("build", g, [list(p) for p in parts]))
        return real_subgraphs(g, parts)

    monkeypatch.setattr(embedder, "split", split)
    monkeypatch.setattr(embedder, "induced_subgraphs", subgraphs)
    instances = [
        generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=2),
        generate("cycle", size=16),
        generate("star", size=9),
        generate("path", size=10),
    ]
    for g in instances:
        for seed in (0, 1):
            events.clear()
            emb = embed_top(g, 0.5, "practical", seed=seed)
            assert not emb.meta.fallback_used
            assert events[0][0] == "split"
            for (kind, parent, multi), after in zip(events, events[1:] + [None]):
                if kind == "build":
                    continue
                if multi:
                    assert after is not None and after[0] == "build"
                    assert after[1] is parent and after[2] == multi
                else:
                    assert after is None or after[0] == "split"
            # every split but the root's works on a subgraph built for it
            built = sum(len(parts) for kind, _, parts in events if kind == "build")
            assert built == emb.meta.split_calls - 1


def test_a_child_that_keeps_its_level_and_most_vertices_is_refused(monkeypatch):
    # The root split of a 5-vertex unit star is made to leave the center
    # with three leaves as one component: 4 of 5 vertices, and the same
    # diameter, so the child's chain has the root's level. The reference
    # composition refuses it too.
    g = generate("star", size=4)
    calls = []

    def merging(real_split):
        def split(sub, params, rng, *top):
            result = real_split(sub, params, rng, *top)
            calls.append(sub.n)
            if len(calls) == 1:
                cut, _ = result.cuts[result.index]
                result.cuts[result.index] = (cut, [[0, 1, 2, 3], [4]])
            return result

        return split

    monkeypatch.setattr(embedder, "split", merging(embedder.split))
    monkeypatch.setattr(oracles, "split_by_packing", merging(oracles.split_by_packing))
    for route in (embed_top, embed_by_reference):
        calls.clear()
        with pytest.raises(InvariantViolation, match="recursion made no progress"):
            route(g, 0.5, "practical", seed=0)
        assert calls[0] == 5


def test_default_xi_cap_is_the_none_cap():
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=3)
    default = embed_top(g, 0.5, "practical", seed=2)
    assert default.meta.params.xi_cap == embedder.DEFAULT_XI_CAP == 16
    capped = embed_top(g, 0.5, "practical", seed=2, xi_cap=None)
    assert embedding_to_json(capped) == embedding_to_json(default)


def test_scale_back_to_original_units():
    # unit grid is internally scaled by 2; reported host distances must be
    # in the input scale
    g = generate("grid", rows=2, cols=3)
    emb = embed_top(g, 0.5, "practical", seed=5)
    assert emb.meta.scale == 2.0
    dm = all_pairs(g)
    hd = dijkstra(emb.host, emb.eta[0])
    assert hd[emb.eta[1]] >= dm[0][1] * (1 - 1e-9)
    assert hd[emb.eta[1]] <= 10 * dm[0][1]  # sanity: same order of magnitude


# ------------------------------------------------------------------- treedepth


def test_treedepth_examples():
    assert treedepth_of([None]) == 1
    assert treedepth_of([None, 0, 1]) == 3
    assert treedepth_of([None, None, 0, 1]) == 2
    with pytest.raises(CyclicParentArray):
        treedepth_of([1, 0])


# ------------------------------------------------------------------------- frt


def test_frt_single_vertex():
    emb = frt_embed(WeightedGraph(1, ()), 0)
    assert emb.host.n == 1 and emb.depth == 1


def test_frt_two_points_brute_force_over_randomness():
    g = two_vertex(1.5)
    dm = all_pairs(g)
    seen = set()
    for seed in range(64):
        emb = frt_embed(g, seed)
        hd = dijkstra(emb.host, emb.eta[0])[emb.eta[1]]
        assert hd >= 1.5
        assert hd <= 12.0
        seen.add(hd)
    # with two points the tree is independent of the randomness
    assert seen == {3.0}


def test_frt_non_contraction_grid():
    g = generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=1)
    for seed in range(5):
        emb = frt_embed(g, seed)
        assert_non_contracting(g, emb)
        check_forest_validity(emb)
        assert emb.host.m == emb.host.n - 1


def test_frt_deterministic():
    g = generate("grid", rows=3, cols=3)
    assert frt_embed(g, 9).host == frt_embed(g, 9).host


# ------------------------------------------------------------------------ json


def test_embedding_json_round_trip():
    g = generate("grid", rows=3, cols=3)
    emb = embed_top(g, 0.5, "practical", seed=3)
    blob = embedding_to_dict(emb)
    again = embedding_from_dict(json.loads(json.dumps(blob)))
    assert embedding_to_dict(again) == blob
    assert list(blob.keys()) == [
        "n",
        "seed",
        "mode",
        "params",
        "fallback_used",
        "host",
        "eta",
        "forest_parent",
        "depth",
    ]


def test_embedding_from_dict_rejects_what_is_not_one_embedding():
    blob = embedding_to_dict(embed_top(generate("path", size=3), 0.5, seed=0))
    wrong_eta = dict(blob, eta=[0, 1, blob["host"]["n"]])
    short_forest = dict(blob, forest_parent=blob["forest_parent"][:-1])
    for bad in ([blob], {"n": 2}, wrong_eta, short_forest):
        with pytest.raises(BadEmbedding):
            embedding_from_dict(bad)


def test_host_distance_matches_independent_oracles():
    g = generate("grid", rows=3, cols=3)
    emb = embed_top(g, 0.5, "practical", seed=6)
    fw = floyd_warshall(emb.host)
    for u in range(g.n):
        bf = bellman_ford(emb.host, emb.eta[u])
        dj = dijkstra(emb.host, emb.eta[u])
        for x in range(emb.host.n):
            assert dj[x] == pytest.approx(bf[x], rel=1e-12)
            assert dj[x] == pytest.approx(fw[emb.eta[u]][x], rel=1e-12)


def test_embed_theory_mode_small_instance():
    # theory-mode budgets are astronomical but the packing saturates and
    # stops, so small instances still embed
    g = generate("path", size=6, weights="uniform:1.5:3", seed=4)
    emb = embed_top(g, 0.5, "theory", seed=1)
    assert emb.meta.params.mode == "theory"
    assert emb.meta.params.tau > 10**12
    assert not emb.meta.fallback_used
    assert_non_contracting(g, emb)
    check_forest_validity(emb)


def test_embed_when_level_exceeds_weight_exponent():
    # a 2-edge path of length-3 edges has diameter 6 > 2**hat_ell (hat_ell=2):
    # the top subgraph level exceeds the weight exponent by one and the
    # recursion must cope
    g = WeightedGraph(3, ((0, 1, 3.0), (1, 2, 3.0)))
    for seed in range(5):
        emb = embed_top(g, 0.5, "practical", seed=seed)
        assert not emb.meta.fallback_used
        assert_non_contracting(g, emb, tol=0.0)  # exact: halves only
        check_forest_validity(emb)


def test_embed_non_metric_input():
    square = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 10.0)))
    emb = embed_top(square, 0.5, "practical", seed=3)
    assert_non_contracting(square, emb)
    check_forest_validity(emb)
