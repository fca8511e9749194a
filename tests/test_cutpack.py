import itertools
import random
from dataclasses import replace

import pytest
from oracles import (
    UnweightedGraph,
    all_connected_labeled_graphs,
    balanced_predicate,
    centroid_bag,
    chain_cluster_sets,
    chain_from_levels,
    components_of_cut,
    cut_members,
    cuts_conflict,
    free_clusters_by_levels,
    enumerate_balanced_chain_cuts,
    exact_treewidth,
    heuristic_tree_decomposition,
    min_degree_decomposition_by_scan,
    node_members,
    oracle_centroid,
    packing_by_repeat_probe,
    quotient,
    recording_splits,
    validate_tree_decomposition,
)

import mfembed.cutpack as cutpack
import mfembed.embedder as embedder
from mfembed.cutpack import (
    CutPacking,
    build_cut_packing,
    centroid_separator,
    find_balanced_cut,
    maximal_free_clusters,
)
from mfembed.embedder import derive_params, embed_top
from mfembed.errors import EmptyPacking, InvariantViolation
from mfembed.generators import generate
from mfembed.graphs import (
    WeightedGraph,
    hat_ell,
    metric_closure_weights,
    normalize,
    quotient_adjacency,
)
from mfembed.hierarchy import ClusteringChain, build_chain
from mfembed.rng import derive_seed


def random_connected_graph(rng, n, extra):
    """A random spanning tree on n vertices plus up to `extra` random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return UnweightedGraph(n, tuple(sorted(edges)))


def nbrs_of(h):
    """Neighbour sets of an oracle `UnweightedGraph`."""
    return [set(adj) for adj in h.adjacency]


def width(bags):
    return max(len(b) for b in bags) - 1


def scaled(g, factor=2.0):
    return WeightedGraph(g.n, tuple((u, v, factor * w) for u, v, w in g.edges))


def chain_of(g, delta=0.1, seed=0):
    result = build_chain(g, delta, random.Random(seed))
    assert isinstance(result, ClusteringChain)
    return result


def star_chain():
    """Hand-built chain for a 6-leaf star whose center sits in a
    non-singleton level-1 cluster; exercises the used/free marking."""
    g = WeightedGraph(7, tuple((0, i, 1.5) for i in range(1, 7)))
    levels = (
        tuple(frozenset({v}) for v in range(7)),
        (frozenset({0, 1, 2}), frozenset({3}), frozenset({4}), frozenset({5}), frozenset({6})),
        (frozenset(range(7)),),
    )
    centers = (tuple(range(7)), (0, 3, 4, 5, 6), (0,))
    return g, chain_from_levels(g, levels, centers)


def node_of(chain, members):
    return next(k for k in range(len(chain.start)) if node_members(chain, k) == members)


# ------------------------------------------------------------- cut components

GOLDEN_INSTANCES = [
    pytest.param(dict(kind="grid", rows=8, cols=8, weights="uniform:1:4"), 0, id="grid8-seed0"),
    pytest.param(dict(kind="grid", rows=8, cols=8, weights="uniform:1:4"), 1, id="grid8-seed1"),
    pytest.param(dict(kind="grid", rows=8, cols=8, weights="uniform:1:4"), 2, id="grid8-seed2"),
    pytest.param(dict(kind="cycle", size=64), 0, id="cycle64"),
    pytest.param(dict(kind="star", size=40), 0, id="star40"),
]


def golden_root_split(instance, seed):
    """(graph, chain, params) of the root split of embed_top(g, 0.5,
    "practical", seed=seed): same preprocessing, parameters and random
    streams."""
    g = generate(seed=seed, **instance)
    sub, _ = normalize(metric_closure_weights(g))
    params = derive_params(g.n, hat_ell(sub), 0.5, "practical")
    chain = build_chain(sub, params.delta, random.Random(derive_seed(seed, "split")))
    assert isinstance(chain, ClusteringChain)
    return sub, chain, params


@pytest.mark.parametrize("instance,seed", GOLDEN_INSTANCES)
def test_cut_components_and_balance_match_the_edge_set_oracle(instance, seed):
    sub, chain, params = golden_root_split(instance, seed)
    packing = build_cut_packing(chain, params.xi)
    assert len(packing.components) == len(packing.cuts)
    for cut, comps in zip(packing.cuts, packing.components):
        assert comps == components_of_cut(sub, chain, cut)
        assert balanced_predicate(sub, cut_members(chain, cut))


@pytest.mark.parametrize("instance,seed", GOLDEN_INSTANCES)
def test_adding_a_single_cluster_checks_its_balance(instance, seed):
    # every single cluster is added to a fresh packing: a balanced one is
    # stored with the oracle's components, an unbalanced one is refused
    sub, chain, _ = golden_root_split(instance, seed)
    verdicts = set()
    for k in range(len(chain.start)):
        cut = (k,)
        verdict = balanced_predicate(sub, cut_members(chain, cut))
        packing = CutPacking()
        if verdict:
            packing.add(cut, chain)
            assert packing.cuts == [cut]
            assert packing.components == [components_of_cut(sub, chain, cut)]
        else:
            with pytest.raises(InvariantViolation, match="not balanced"):
                packing.add(cut, chain)
            assert packing.cuts == [] and packing.components == []
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("instance,seed", GOLDEN_INSTANCES)
def test_quotient_adjacency_matches_the_oracle_in_every_packing_round(instance, seed):
    # build_cut_packing's rounds, one by one: part_of must place every vertex
    # in its free cluster, and the neighbour sets must be the oracle's
    # quotient by those clusters
    sub, chain, params = golden_root_split(instance, seed)
    packing = CutPacking(used={0})
    while len(packing) < params.xi:
        parts, part_of = maximal_free_clusters(chain, packing)
        sets = [node_members(chain, k) for k in parts]
        assert all(part_of[v] == k for k, members in enumerate(sets) for v in members)
        want = [set(adj) for adj in quotient(sub, sets).adjacency]
        assert quotient_adjacency(sub, part_of, len(parts)) == want
        cut = find_balanced_cut(chain, packing)
        packing.add(cut, chain)
        if all(len(member) == 1 for member in cut_members(chain, cut)):
            break
    assert packing.cuts == build_cut_packing(chain, params.xi).cuts


def test_free_clusters_match_the_per_level_scan_in_every_packing_round():
    # the walk down the cluster tree must give the former scan's parts, in
    # its order and with its levels, whatever the packing has used
    rng = random.Random(8)
    graphs = [golden_root_split(*p.values)[0:2] for p in GOLDEN_INSTANCES]
    while len(graphs) < 60:
        n = rng.randint(2, 40)
        h = random_connected_graph(rng, n, rng.randint(0, 2 * n))
        g = WeightedGraph(n, tuple((u, v, rng.uniform(1.5, 6.0)) for u, v in h.edges))
        chain = build_chain(g, 0.1, random.Random(rng.getrandbits(32)))
        if isinstance(chain, ClusteringChain):
            graphs.append((g, chain))
    rounds = 0
    for g, chain in graphs:
        for packing in (CutPacking(), CutPacking(used={0})):
            while len(packing) < 16:
                parts, _ = maximal_free_clusters(chain, packing)
                got = [(chain.hi[k], node_members(chain, k)) for k in parts]
                assert got == free_clusters_by_levels(chain, packing)
                rounds += 1
                cut = find_balanced_cut(chain, packing)
                packing.add(cut, chain)
                if all(len(member) == 1 for member in cut_members(chain, cut)):
                    break
    assert rounds > 200


# --------------------------------------------------------- tree decomposition


def test_td_tree_input_width_one():
    # a small tree: star plus a pendant path
    nbrs = nbrs_of(UnweightedGraph(6, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5))))
    bags, parent = heuristic_tree_decomposition(nbrs)
    validate_tree_decomposition(nbrs, bags, parent)
    assert width(bags) == 1


def test_td_k4_width_three():
    nbrs = nbrs_of(UnweightedGraph(4, tuple(itertools.combinations(range(4), 2))))
    bags, parent = heuristic_tree_decomposition(nbrs)
    validate_tree_decomposition(nbrs, bags, parent)
    assert width(bags) == 3


def test_td_four_cycle_width_two():
    nbrs = [{1, 3}, {0, 2}, {1, 3}, {0, 2}]
    bags, parent = heuristic_tree_decomposition(nbrs)
    validate_tree_decomposition(nbrs, bags, parent)
    assert width(bags) == 2 == exact_treewidth(nbrs)
    assert nbrs == [{1, 3}, {0, 2}, {1, 3}, {0, 2}]  # the input is left unchanged


def test_td_single_vertex():
    assert heuristic_tree_decomposition([set()]) == ([frozenset({0})], [-1])


def test_td_width_close_to_exact_exhaustive_small():
    for n in range(2, 6):
        for edges in all_connected_labeled_graphs(n):
            nbrs = nbrs_of(UnweightedGraph(n, tuple(edges)))
            bags, parent = heuristic_tree_decomposition(nbrs)
            validate_tree_decomposition(nbrs, bags, parent)
            assert width(bags) <= exact_treewidth(nbrs) + 2


def test_td_width_close_to_exact_sampled():
    rng = random.Random(0)
    for n in (6, 7, 8):
        pairs = list(itertools.combinations(range(n), 2))
        done = 0
        while done < 60:
            edges = rng.sample(pairs, rng.randint(n - 1, len(pairs)))
            try:
                h = UnweightedGraph(n, tuple(edges))
                if h.bfs_distances(0).count(float("inf")):
                    continue
            except Exception:
                continue
            done += 1
            nbrs = nbrs_of(h)
            bags, parent = heuristic_tree_decomposition(nbrs)
            validate_tree_decomposition(nbrs, bags, parent)
            assert width(bags) <= exact_treewidth(nbrs) + 2


def test_td_heap_matches_scan_exhaustive_small():
    for n in range(1, 6):
        for edges in all_connected_labeled_graphs(n):
            nbrs = nbrs_of(UnweightedGraph(n, tuple(edges)))
            got = heuristic_tree_decomposition(nbrs)
            assert got == min_degree_decomposition_by_scan(nbrs)
            validate_tree_decomposition(nbrs, *got)


def test_td_heap_matches_scan_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(6, 60)
        nbrs = nbrs_of(random_connected_graph(rng, n, rng.randint(0, 3 * n)))
        got = heuristic_tree_decomposition(nbrs)
        assert got == min_degree_decomposition_by_scan(nbrs)
        validate_tree_decomposition(nbrs, *got)


# ---------------------------------------------------------------- centroid bag


def test_centroid_single_node():
    bags, parent = heuristic_tree_decomposition([set()])
    assert centroid_bag(bags, parent, [1.0]) == 0


def test_centroid_rejects_a_parent_that_is_not_later():
    bags = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})]
    assert centroid_bag(bags, [1, 2, -1], [1.0, 1.0, 1.0]) == 1
    for parent in ([0, 2, -1], [1, 1, -1], [1, 3, -1], [2, -1, -1]):
        with pytest.raises(InvariantViolation):
            centroid_bag(bags, parent, [1.0, 1.0, 1.0])


def brute_force_centroids(nbrs, bags, weights):
    total = sum(weights)
    good = []
    for k in range(len(bags)):
        blocked = set(bags[k])
        comp_ok = True
        seen = set(blocked)
        for s in range(len(nbrs)):
            if s in seen:
                continue
            stack, comp = [s], []
            seen.add(s)
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in nbrs[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if 2 * sum(weights[u] for u in comp) > total:
                comp_ok = False
        if comp_ok:
            good.append(k)
    return good


def test_centroid_path_matches_brute_force():
    nbrs = nbrs_of(UnweightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4))))
    bags, parent = heuristic_tree_decomposition(nbrs)
    weights = [1.0] * 5
    good = brute_force_centroids(nbrs, bags, weights)
    chosen = centroid_bag(bags, parent, weights)
    assert chosen in good
    assert 2 in bags[chosen]  # the middle vertex must be in a qualifying bag


def test_centroid_in_brute_force_set_exhaustive_small():
    rng = random.Random(2)
    for n in range(1, 6):
        for edges in all_connected_labeled_graphs(n):
            nbrs = nbrs_of(UnweightedGraph(n, tuple(edges)))
            bags, parent = heuristic_tree_decomposition(nbrs)
            for _ in range(3):
                weights = [float(rng.randint(0, 5)) for _ in range(n)]
                chosen = centroid_bag(bags, parent, weights)
                assert chosen in brute_force_centroids(nbrs, bags, weights)


def deepest_heavy_node(bags, parent, weights):
    """Deepest node, rooting the tree at the last node, whose subtree weighs
    more than half; the root when no node does. A vertex counts toward the
    subtrees holding its shallowest bag."""
    count = len(bags)
    adj = [[] for _ in range(count)]
    for a in range(count - 1):
        adj[a].append(parent[a])
        adj[parent[a]].append(a)
    root = count - 1
    path_up = {root: [root]}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in path_up:
                path_up[y] = [y] + path_up[x]
                order.append(y)
    top = [
        min((k for k in range(count) if v in bags[k]), key=lambda k: len(path_up[k]))
        for v in range(len(weights))
    ]
    total = sum(weights)
    best = root
    for x in range(count):
        weight = sum(w for v, w in enumerate(weights) if x in path_up[top[v]])
        if 2 * weight > total and len(path_up[x]) > len(path_up[best]):
            best = x
    return best


def test_centroid_is_deepest_heavy_node():
    rng = random.Random(4)
    graphs = [random_connected_graph(rng, rng.randint(1, 30), rng.randint(0, 40)) for _ in range(40)]
    graphs.append(UnweightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4))))
    for h in graphs:
        nbrs = nbrs_of(h)
        bags, parent = heuristic_tree_decomposition(nbrs)
        for _ in range(3):
            weights = [float(rng.randint(0, 4)) for _ in range(h.n)]
            chosen = centroid_bag(bags, parent, weights)
            assert chosen == deepest_heavy_node(bags, parent, weights)
            assert chosen in brute_force_centroids(nbrs, bags, weights)
    bags, parent = heuristic_tree_decomposition([{1}, {0, 2}, {1}])
    assert centroid_bag(bags, parent, [0.0, 0.0, 0.0]) == len(bags) - 1


def test_centroid_star_bags_contain_center():
    nbrs = nbrs_of(UnweightedGraph(6, tuple((0, i) for i in range(1, 6))))
    bags, parent = heuristic_tree_decomposition(nbrs)
    weights = [1.0] * 6
    good = brute_force_centroids(nbrs, bags, weights)
    for k in good:
        assert 0 in bags[k] or all(2 * w <= 6 for w in weights)
    assert centroid_bag(bags, parent, weights) in good


# ------------------------------------------------------ centroid separator


def separator_matches_oracle(nbrs, weights):
    before = [set(around) for around in nbrs]
    got = centroid_separator(nbrs, weights)
    assert nbrs == before  # the input is left unchanged
    assert got == oracle_centroid(nbrs, weights), (nbrs, weights)


def test_separator_matches_whole_decomposition_exhaustive_small():
    rng = random.Random(6)
    for n in range(1, 6):
        for edges in all_connected_labeled_graphs(n):
            nbrs = nbrs_of(UnweightedGraph(n, tuple(edges)))
            vectors = [[1] * n, [0] * n, [5 if v == n - 1 else 0 for v in range(n)]]
            vectors += [[rng.randint(0, 5) for _ in range(n)] for _ in range(3)]
            for weights in vectors:
                separator_matches_oracle(nbrs, weights)


def test_separator_matches_whole_decomposition_random():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(2, 40)
        nbrs = nbrs_of(random_connected_graph(rng, n, rng.randint(0, 2 * n)))
        separator_matches_oracle(nbrs, [rng.randint(1, 9) for _ in range(n)])


def test_separator_of_the_empty_graph_is_refused():
    with pytest.raises(InvariantViolation):
        centroid_separator([], [])


def merged_grid_quotient(rng, rows, cols, merges):
    """Neighbour sets of a rows x cols grid after `merges` random merges of
    adjacent cells, with each merged cell's size as its weight."""
    g = generate("grid", rows=rows, cols=cols)
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for _ in range(merges):
        u, v, _ = rng.choice(g.edges)
        root[find(u)] = find(v)
    ids = {}
    part_of = [ids.setdefault(find(v), len(ids)) for v in range(g.n)]
    sizes = [0] * len(ids)
    for p in part_of:
        sizes[p] += 1
    return quotient_adjacency(g, part_of, len(ids)), sizes


def test_separator_matches_the_heap_elimination_on_random_graphs():
    # the whole heap elimination of `heuristic_tree_decomposition`, on trees,
    # merged-grid quotients and dense graphs, with weights up to 1, 9 and 1000
    rng = random.Random(24)
    cases = []
    for _ in range(300):  # trees
        n = rng.randint(1, 60)
        cases.append(nbrs_of(random_connected_graph(rng, n, 0)))
    for _ in range(150):  # grids with merged cells
        rows, cols = rng.randint(2, 14), rng.randint(2, 14)
        nbrs, sizes = merged_grid_quotient(rng, rows, cols, rng.randint(0, rows * cols))
        cases.append(nbrs)
        assert centroid_separator(nbrs, sizes) == oracle_centroid(nbrs, sizes)
    for _ in range(300):  # dense small graphs
        n = rng.randint(2, 12)
        cases.append(nbrs_of(random_connected_graph(rng, n, rng.randint(n, n * n))))
    for nbrs in cases:
        for top in (1, 9, 1000):
            weights = [rng.randint(1, top) for _ in nbrs]
            want = oracle_centroid(nbrs, weights)
            assert centroid_separator(nbrs, weights) == want, (nbrs, weights)


# ------------------------------------------------------------- balanced cuts


def test_first_cut_is_whole_vertex_set():
    g = scaled(generate("path", size=4))
    chain = chain_of(g)
    cut = find_balanced_cut(chain, CutPacking())
    assert cut_members(chain, cut) == (frozenset(range(4)),)
    assert balanced_predicate(g, cut_members(chain, cut))


def test_path_cut_brute_force_membership():
    g = scaled(generate("path", size=4))
    chain = chain_of(g)
    packing = CutPacking()
    packing.add(find_balanced_cut(chain, packing), chain)
    cut = find_balanced_cut(chain, packing)
    legal = enumerate_balanced_chain_cuts(g, chain)
    assert frozenset(cut_members(chain, cut)) in legal
    assert balanced_predicate(g, list(cut_members(chain, cut)))


def test_star_unique_single_cluster_balanced_cut():
    g = scaled(generate("star", size=6))
    chain = chain_of(g)
    singles = [fam for fam in enumerate_balanced_chain_cuts(g, chain) if len(fam) == 1]
    # every single-member balanced cut is the center's cluster or everything
    for fam in singles:
        (member,) = fam
        assert member == frozenset(range(g.n)) or member == frozenset({0})


def test_used_marking_descends_to_singletons():
    g, chain = star_chain()
    packing = CutPacking()
    first = find_balanced_cut(chain, packing)
    assert cut_members(chain, first) == (frozenset(range(7)),)
    packing.add(first, chain)

    second = find_balanced_cut(chain, packing)
    assert frozenset({0, 1, 2}) in cut_members(chain, second)
    packing.add(second, chain)

    # the center's non-singleton cluster is used now; it may only come back
    # as a singleton
    third = find_balanced_cut(chain, packing)
    for member in cut_members(chain, third):
        if 0 in member:
            assert member == frozenset({0})
    assert not cuts_conflict(chain, third, second) and not cuts_conflict(chain, third, first)
    parts, part_of = maximal_free_clusters(chain, packing)
    assert all(chain.size(k) == 1 for k in parts)
    assert part_of == list(range(7))


def test_cut_that_reuses_a_used_member_is_refused(monkeypatch):
    # the search itself never picks a used cluster, so it is shown a packing
    # that has not used {0, 1, 2} yet while the guard sees the real one
    g, chain = star_chain()
    packing = CutPacking(used={0})
    first = find_balanced_cut(chain, packing)
    assert frozenset({0, 1, 2}) in cut_members(chain, first)
    packing.add(first, chain)
    real = cutpack.maximal_free_clusters
    monkeypatch.setattr(
        cutpack,
        "maximal_free_clusters",
        lambda chain, packing: real(chain, CutPacking(used={0})),
    )
    with pytest.raises(InvariantViolation, match="conflicts"):
        find_balanced_cut(chain, packing)
    packing.used.discard(node_of(chain, frozenset({0, 1, 2})))
    assert find_balanced_cut(chain, packing) == first


def test_oversize_flag(monkeypatch):
    # embed_top adds up, over its splits, the cuts each sampled from that
    # have more than tau members: every cut at tau = 0, and on a 6 x 6 grid
    # at tau = 1 the cuts of two or more splits
    splits = recording_splits(monkeypatch)
    real_params = embedder.derive_params
    for tau in (0, 1):
        monkeypatch.setattr(
            embedder, "derive_params", lambda *a, **k: replace(real_params(*a, **k), tau=tau)
        )
        splits.clear()
        emb = embed_top(generate("grid", rows=6, cols=6), 0.5, "practical", seed=0)
        assert emb.meta.params.tau == tau
        counts = [sum(len(cut) > tau for cut, _ in split.cuts) for split in splits]
        assert emb.meta.oversize_cuts == sum(counts)
    assert sorted(counts)[-2] > 0
    assert sum(emb.meta.packing_sizes) > emb.meta.oversize_cuts


# ----------------------------------------------------------------- packing


def test_two_vertex_packing():
    g = WeightedGraph(2, ((0, 1, 1.5),))
    chain = chain_of(g)
    packing = build_cut_packing(chain, xi=1)
    assert len(packing.cuts) >= 1
    for cut in packing.cuts:
        assert frozenset(cut_members(chain, cut)) != frozenset({frozenset({0, 1})})
        for member in cut_members(chain, cut):
            assert len(member) == 1
        assert balanced_predicate(g, cut_members(chain, cut))


def test_packing_cuts_all_balanced_and_nonconflicting():
    instances = [
        scaled(generate("grid", rows=4, cols=4)),
        scaled(generate("cycle", size=10)),
        scaled(generate("star", size=7)),
    ]
    for g in instances:
        chain = chain_of(g, delta=0.15, seed=3)
        packing = build_cut_packing(chain, xi=6)
        chain_sets = set(chain_cluster_sets(chain))
        for cut, comps in zip(packing.cuts, packing.components):
            assert balanced_predicate(g, list(cut_members(chain, cut)))
            assert comps == components_of_cut(g, chain, cut)
            for member in cut_members(chain, cut):
                assert member in chain_sets
        for a, b in itertools.combinations(packing.cuts, 2):
            assert not cuts_conflict(chain, a, b)


def test_packing_respects_xi_budget():
    g = scaled(generate("grid", rows=4, cols=4))
    chain = chain_of(g, delta=0.15, seed=1)
    small = build_cut_packing(chain, xi=2)
    assert len(small.cuts) <= 2
    big = build_cut_packing(chain, xi=12)
    assert len(big.cuts) >= len(small.cuts)


def test_small_graph_cut_membership_in_enumeration():
    # graphs up to n=10 with short chains: the produced cuts must appear in
    # the brute-force enumeration of balanced chain-respecting cuts
    rng = random.Random(5)
    instances = [
        scaled(generate("path", size=6)),
        scaled(generate("cycle", size=8)),
        scaled(generate("star", size=9)),
        scaled(generate("grid", rows=2, cols=5)),
    ]
    for g in instances:
        chain = chain_of(g, delta=0.2, seed=rng.randint(0, 100))
        legal = enumerate_balanced_chain_cuts(g, chain)
        packing = CutPacking()
        for _ in range(4):
            cut = find_balanced_cut(chain, packing)
            family = frozenset(cut_members(chain, cut))
            assert family in legal
            if family in {frozenset(cut_members(chain, c)) for c in packing.cuts}:
                break
            packing.add(cut, chain)


def test_packing_calls_find_balanced_cut_once_per_kept_cut(monkeypatch):
    # the packing starts with V used and stops right after a cut of
    # singletons, so every find_balanced_cut call gives a kept cut
    import mfembed.cutpack as cutpack

    calls = []

    def counting(*args):
        calls.append(1)
        return find_balanced_cut(*args)

    monkeypatch.setattr(cutpack, "find_balanced_cut", counting)
    instances = [
        scaled(generate("grid", rows=4, cols=4)),
        scaled(generate("cycle", size=10)),
        scaled(generate("star", size=7)),
    ]
    for g in instances:
        chain = chain_of(g, delta=0.15, seed=1)
        calls.clear()
        packing = build_cut_packing(chain, xi=32)
        assert len(packing) < 32  # a cut of singletons, not the budget, stopped it
        assert all(len(m) == 1 for m in cut_members(chain, packing.cuts[-1]))
        assert len(calls) == len(packing)
        assert 0 not in packing.used


def test_packing_matches_repeat_probe_loop():
    rng = random.Random(21)
    cases = budget_stops = 0
    while cases < 160:
        n = rng.randint(2, 40)
        h = random_connected_graph(rng, n, rng.randint(0, 2 * n))
        g = WeightedGraph(n, tuple((u, v, rng.uniform(1.5, 6.0)) for u, v in h.edges))
        chain = build_chain(g, 0.1, random.Random(rng.getrandbits(32)))
        if not isinstance(chain, ClusteringChain):
            continue
        cases += 1
        for xi in (1, 2, 3, 16):
            got = build_cut_packing(chain, xi)
            want = packing_by_repeat_probe(chain, xi)
            assert got.cuts == want.cuts
            assert got.used == want.used
            if len(got) == xi and any(len(m) > 1 for m in cut_members(chain, got.cuts[-1])):
                budget_stops += 1
    assert budget_stops > 0


def test_one_vertex_packing_is_empty():
    g = WeightedGraph(1, ())
    chain = chain_of(g)
    with pytest.raises(EmptyPacking):
        build_cut_packing(chain, xi=4)
    with pytest.raises(EmptyPacking):
        packing_by_repeat_probe(chain, 4)
