"""Elimination-forest utilities and the embedding JSON: the Euler-tour
validity check, the forest distance labels and the JSON writer, each against
an independent computation."""

import dataclasses
import json
import math
import random

import pytest
from oracles import (
    check_forest_labels_by_dijkstra,
    check_shared_forest_rows,
    embedding_json_by_encoder,
    embedding_to_dict,
    forest_validity_by_ancestor_sets,
)

import mfembed.hosts as hosts
from mfembed.embedder import embed_top
from mfembed.errors import BadEmbedding, CyclicParentArray, InvariantViolation
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphs import INF, WeightedGraph, dijkstra
from mfembed.hosts import (
    EmbeddingMeta,
    ForestLabels,
    HostEmbedding,
    check_forest_validity,
    embedding_from_dict,
    embedding_to_json,
    load_embedding,
    save_components,
    save_embedding,
)

UNIT = [
    dict(kind="grid", rows=5, cols=6),
    dict(kind="cycle", size=40),
    dict(kind="star", size=30),
    dict(kind="path", size=35),
]
FLOAT = [
    dict(kind="grid", rows=5, cols=6, weights="uniform:1:4"),
    dict(kind="cycle", size=40, weights="uniform:1:4"),
    dict(kind="star", size=30, weights="uniform:1.5:3"),
    dict(kind="path", size=35, weights="uniform:1:4"),
]


def assert_labels_match_dijkstra(emb, rel, seed=0, sources=8):
    """Labels against host Dijkstra from random sources to every host vertex.
    An identity-eta copy makes `distances` answer host pairs."""
    labels = ForestLabels(dataclasses.replace(emb, eta=list(range(emb.host.n))))
    assert labels.depth == emb.depth
    everyone = range(emb.host.n)
    rng = random.Random(seed)
    for x in rng.sample(everyone, min(sources, emb.host.n)):
        row = dijkstra(emb.host, x)
        for y, got in zip(everyone, labels.distances([(x, y) for y in everyone])):
            if rel == 0.0 or row[y] in (0.0, INF):
                assert got == row[y], (x, y)
            else:
                assert got == pytest.approx(row[y], rel=rel, abs=0.0), (x, y)


@pytest.mark.parametrize("instance", UNIT, ids=lambda d: d["kind"])
def test_labels_exact_on_unit_weights(instance):
    g = generate(seed=1, **instance)
    for seed in (0, 1):
        assert_labels_match_dijkstra(embed_top(g, 0.5, "practical", seed=seed), 0.0, seed)
        assert_labels_match_dijkstra(frt_embed(g, seed), 0.0, seed)


@pytest.mark.parametrize("instance", FLOAT, ids=lambda d: d["kind"])
def test_labels_match_dijkstra_on_float_weights(instance):
    g = generate(seed=2, **instance)
    for seed in (0, 1):
        assert_labels_match_dijkstra(embed_top(g, 0.5, "practical", seed=seed), 1e-12, seed)
        assert_labels_match_dijkstra(frt_embed(g, seed), 1e-12, seed)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_labels_on_fallback_embeddings(fail_chain_at, k):
    g = generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=3)
    fail_chain_at(k)
    emb = embed_top(g, 0.5, "practical", seed=4)
    assert emb.meta.fallback_used
    assert_labels_match_dijkstra(emb, 1e-12, sources=emb.host.n)
    check_forest_labels_by_dijkstra(emb)


def test_labels_every_pair_of_small_hosts():
    for instance in UNIT + FLOAT:
        g = generate(seed=5, **{**instance, "size": 9} if "size" in instance else instance)
        emb = embed_top(g, 0.5, "practical", seed=6)
        assert_labels_match_dijkstra(emb, 0.0 if "weights" not in instance else 1e-12,
                                     sources=emb.host.n)


def hand_embedding(n, edges, forest):
    host = WeightedGraph(n, tuple(edges), allow_zero=True)
    meta = EmbeddingMeta(n=n, seed=0, mode="hand", params=None, fallback_used=False)
    return HostEmbedding(host=host, eta=list(range(n)), forest=forest, meta=meta)


def test_labels_hand_host():
    # 0 is the root of 1 and 4; 2 and 3 hang below 1; 5 is a second tree.
    # Inside subtree(1) the way from 1 to 2 is the 5.0 edge, but the host
    # distance goes up through 0.
    emb = hand_embedding(
        6,
        [(1, 2, 5.0), (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 4, 2.0)],
        [None, 0, 1, 1, 0, None],
    )
    fl = ForestLabels(emb)
    assert "adjacency" not in vars(emb.host)  # the labels build their own lists
    assert fl.labels[fl.tin[2]] == [1.0, 5.0, 0.0]  # r_0, r_1, r_2 of vertex 2
    assert fl.depth == emb.depth == 3
    pairs = [(1, 2), (2, 1), (2, 3), (3, 2), (4, 3), (2, 2), (0, 3), (3, 0), (1, 5), (5, 1)]
    # 2-0-1-3; 1 and 5 lie in different trees
    assert fl.distances(pairs) == [2.0, 2.0, 3.0, 3.0, 4.0, 0.0, 2.0, 2.0, INF, INF]
    assert fl.distances([]) == []
    # Input vertices 0, 1, 2 sit at host vertices 3, 2, 4.
    through_eta = ForestLabels(dataclasses.replace(emb, eta=[3, 2, 4]))
    assert through_eta.distances([(0, 1), (1, 0), (2, 0), (1, 2)]) == [3.0, 3.0, 4.0, 3.0]


def test_labels_of_a_reloaded_frt_tree(tmp_path):
    # The file holds 12-digit lengths, read back through the public
    # constructor: the tree is still its own forest.
    g = generate("grid", rows=6, cols=7, weights="uniform:0.001:1000", seed=7)
    save_embedding(frt_embed(g, 3), tmp_path / "tree.json")
    check_forest_labels_by_dijkstra(load_embedding(tmp_path / "tree.json"))


@pytest.mark.parametrize("name", ["cycle-64", "reloaded-grid", "hst-fallback"])
def test_forest_rows_are_shared_per_parent_row_and_edge(name, fail_chain_at, tmp_path):
    if name == "cycle-64":
        emb = frt_embed(generate("cycle", size=64, seed=1), 2)
    elif name == "reloaded-grid":
        g = generate("grid", rows=6, cols=7, weights="uniform:0.001:1000", seed=7)
        save_embedding(frt_embed(g, 3), tmp_path / "tree.json")
        emb = load_embedding(tmp_path / "tree.json")
    else:
        fail_chain_at(0)
        emb = embed_top(generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=3), 0.5,
                        "practical", seed=4)
        assert emb.meta.fallback_used
    labels = check_shared_forest_rows(emb)
    # An FRT edge's length depends on its level alone: one row per depth.
    assert len({id(row) for row in labels.labels}) == labels.depth < emb.host.n


def test_zero_and_negative_zero_sibling_edges_share_a_row():
    # 1 and 2 hang on 0 at lengths 0.0 and -0.0, 3 at 1.5; 4 and 5 hang on
    # 1 and 2 at 2.0, so their parents' rows are one list too.
    edges = [(0, 1, 0.0), (0, 2, -0.0), (0, 3, 1.5), (1, 4, 2.0), (2, 5, 2.0)]
    emb = hand_embedding(6, edges, [None, 0, 0, 0, 1, 2])
    assert math.copysign(1.0, emb.host.edges[1][2]) == -1.0  # the host keeps -0.0
    labels = check_shared_forest_rows(emb)
    rows = [labels.labels[labels.tin[x]] for x in range(6)]
    assert rows[1] is rows[2] and rows[4] is rows[5] and rows[3] is not rows[1]
    assert all(math.copysign(1.0, a) == 1.0 for row in rows for a in row)
    got = labels.distances([(1, 2), (4, 5), (2, 3)])
    assert [d.hex() for d in got] == [(0.0).hex(), (4.0).hex(), (1.5).hex()]


NOT_THEIR_FOREST = {
    # 0 - 1 - {2, 3}, and 2 also hangs on its grandparent, by a shorter way
    "extra-grandparent-edge": (
        [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 1.5), (0, 2, 2.5)],
        [None, 0, 1, 1],
    ),
    # as many edges as non-root vertices, but 2's goes to its grandparent
    "grandparent-in-place-of-parent": ([(0, 1, 1.0), (0, 2, 2.0)], [None, 0, 1]),
    # 2 has no edge at all: INF across the gap
    "missing-parent-edge": ([(0, 1, 1.0), (1, 3, 1.5)], [None, 0, 1, 1]),
    # a copy with a zero-length edge to its portal, as the embedder wires it
    "zero-length-parent-edge": (
        [(0, 1, 0.0), (1, 2, 2.0), (0, 2, 1.5), (0, 3, 1.0), (2, 3, 0.5)],
        [None, 0, 1, 2],
    ),
}


@pytest.mark.parametrize("name", NOT_THEIR_FOREST)
def test_labels_of_hosts_that_are_not_their_forest(name):
    edges, forest = NOT_THEIR_FOREST[name]
    emb = hand_embedding(len(forest), edges, forest)
    assert not ForestLabels(emb).forest_shaped
    assert_labels_match_dijkstra(emb, 0.0, sources=emb.host.n)
    if name == "missing-parent-edge":
        assert ForestLabels(emb).distances([(0, 2), (2, 3)]) == [INF, INF]


def test_labels_of_a_tree_with_zero_length_edges():
    # 0 - 1 at length 0, 1 - 2, 0 - 3 at length 0, and 4 alone in a second tree
    emb = hand_embedding(5, [(0, 1, 0.0), (1, 2, 2.5), (0, 3, 0.0)], [None, 0, 1, 0, None])
    check_forest_labels_by_dijkstra(emb)
    assert ForestLabels(emb).distances([(2, 3), (1, 3), (3, 4)]) == [2.5, 0.0, INF]
    assert_labels_match_dijkstra(emb, 0.0, sources=emb.host.n)


def test_labels_reject_invalid_forests():
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    with pytest.raises(InvariantViolation):
        ForestLabels(hand_embedding(3, edges, [None, None, None]))
    with pytest.raises(CyclicParentArray):
        ForestLabels(hand_embedding(3, edges, [0, None, 1]))
    with pytest.raises(InvariantViolation):
        ForestLabels(hand_embedding(3, edges, [None, 0, 3]))


# -------------------------------------------------------------- forest validity


def outcome(check, emb):
    try:
        check(emb)
    except (InvariantViolation, CyclicParentArray) as exc:
        return type(exc).__name__
    return None


def broken_forests(forest, rng):
    """One defect per copy: a cut, a self parent, a re-parenting, a bad entry."""
    n = len(forest)
    v = rng.randrange(n)
    yield [None] * n
    yield forest[:-1]
    for change in (None, v, rng.randrange(n), n, -1, 1.5, "0"):
        broken = list(forest)
        broken[v] = change
        yield broken
    u, w = rng.sample(range(n), 2)
    swapped = list(forest)
    swapped[u], swapped[w] = w, u  # a 2-cycle
    yield swapped


def test_forest_validity_agrees_with_ancestor_sets():
    rng = random.Random(7)
    seen = set()
    for trial in range(12):
        kind = rng.choice(["grid", "cycle", "path", "star"])
        g = generate(kind, rows=4, cols=rng.randint(2, 5), size=rng.randint(4, 20),
                     weights="uniform:1:4", seed=trial)
        for emb in (embed_top(g, 0.5, "practical", seed=trial), frt_embed(g, trial)):
            assert outcome(check_forest_validity, emb) is None
            assert outcome(forest_validity_by_ancestor_sets, emb) is None
            for forest in broken_forests(emb.forest, rng):
                bad = HostEmbedding(host=emb.host, eta=emb.eta, forest=forest, meta=emb.meta)
                got = outcome(check_forest_validity, bad)
                assert got == outcome(forest_validity_by_ancestor_sets, bad), forest
                seen.add(got)
    assert seen == {None, "InvariantViolation", "CyclicParentArray"}


def test_check_forest_validity_returns_its_tour():
    emb = hand_embedding(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0)], [None, 0, 1, 0])
    order, tin, tout = check_forest_validity(emb)
    assert order == [0, 1, 2, 3]
    assert tin == [0, 1, 2, 3] and tout == [4, 3, 3, 4]


# ------------------------------------------------------------------------ JSON


def assert_writer_matches_encoder(emb, tmp_path):
    """The writer prints the stdlib encoder's text, and the file holds it
    plus a newline."""
    text = embedding_to_json(emb)
    assert text == embedding_json_by_encoder(emb)
    path = tmp_path / "emb.json"
    save_embedding(emb, path)
    assert path.read_text(encoding="utf-8") == text + "\n"
    assert embedding_to_json(load_embedding(path)) == text


def star_embedding(lengths):
    """Vertex 0 joined to 1..k with the given lengths, 0 the forest root."""
    n = len(lengths) + 1
    return hand_embedding(n, [(0, i + 1, w) for i, w in enumerate(lengths)], [None] + [0] * (n - 1))


def test_writer_one_vertex(tmp_path):
    emb = hand_embedding(1, [], [None])
    assert '"params": null' in embedding_to_json(emb)
    assert '"edges": []' in embedding_to_json(emb)
    assert_writer_matches_encoder(emb, tmp_path)
    assert_writer_matches_encoder(embed_top(generate("path", size=1), 0.5, seed=0), tmp_path)


def test_writer_on_an_frt_fallback(fail_chain_at, tmp_path):
    fail_chain_at(0)
    emb = embed_top(generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=3), 0.5, seed=4)
    assert emb.meta.fallback_used
    assert_writer_matches_encoder(emb, tmp_path)


def test_writer_zero_length_edges(tmp_path):
    emb = hand_embedding(3, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 1.5)], [None, 0, 1])
    assert_writer_matches_encoder(emb, tmp_path)


def test_writer_lengths_in_exponent_and_integer_form(tmp_path):
    lengths = [1e16, 2.5e17, 1e300, 9.9e-05, 3e-7, 5e-324, 2.0, 7.0, 1.0, 0.1 + 0.2, 1 / 3,
               123456789012345.0, 999999999999.5, 1e-4]
    text = embedding_to_json(star_embedding(lengths))
    for printed in ("1e+16", "2.5e+17", "9.9e-05", "3e-07", "2.0", "0.3", "0.333333333333"):
        assert f"    {printed}\n" in text
    assert_writer_matches_encoder(star_embedding(lengths), tmp_path)


def test_length_text_is_repr_of_the_rounded_float():
    def want(w):
        return repr(float(f"{w:.12g}"))

    values = [0.0, -0.0, 1.0, 2.0, 7.0, 12345.0, 1e11, 99999999999.0, 999999999999.0]
    # around 1e-4, where .12g and repr leave fixed notation, and 1e12 and
    # 1e16, where .12g and repr enter the exponent form
    for edge in (1e-4, 1e12, 1e16):
        x = edge
        for _ in range(40):
            x = math.nextafter(x, 0.0)
        for _ in range(80):
            values.append(x)
            x = math.nextafter(x, math.inf)
        values += [edge * (1 + d) for d in (-1e-12, -5e-13, -1e-13, 1e-13, 5e-13, 1e-12)]
    values += [math.inf, math.nan, 5e-324, 1e300]
    rng = random.Random(3)
    values += [rng.uniform(1, 10) * 10.0 ** rng.randint(-8, 18) for _ in range(20000)]
    values += [float(rng.randint(0, 10**rng.randint(1, 17))) for _ in range(2000)]
    for w in values:
        assert hosts._length_text(w) == want(w), w


@pytest.mark.parametrize("extra", [-1, 0, 1, hosts._EDGE_BATCH + 1])
def test_writer_across_edge_batches(extra, tmp_path):
    rng = random.Random(extra)
    lengths = [rng.uniform(1, 4) for _ in range(hosts._EDGE_BATCH + extra)]
    assert_writer_matches_encoder(star_embedding(lengths), tmp_path)


def test_writer_on_embedder_and_frt_hosts(tmp_path):
    for instance in UNIT + FLOAT:
        g = generate(seed=2, **instance)
        assert_writer_matches_encoder(embed_top(g, 0.5, "practical", seed=2), tmp_path)
        assert_writer_matches_encoder(frt_embed(g, 2), tmp_path)


def test_component_array_matches_the_stdlib_encoder(tmp_path):
    parts = [
        (embed_top(generate("cycle", size=6), 0.5, seed=1), [0, 2, 4, 6, 8, 10]),
        (hand_embedding(1, [], [None]), [1]),
        (star_embedding([1e17, 2.0, 3e-5]), [3, 5, 7, 9]),
    ]
    path = tmp_path / "parts.json"
    for chosen in (parts, parts[:1]):
        save_components(chosen, path)
        blocks = [dict(embedding_to_dict(emb), vertices=verts) for emb, verts in chosen]
        assert path.read_text(encoding="utf-8") == json.dumps(blocks, indent=1) + "\n"


def test_embedding_with_a_gamma_parameter_still_loads():
    # files written while `gamma` was a parameter hold it in `params`
    text = embedding_to_json(embed_top(generate("cycle", size=6), 0.5, seed=1))
    blob = json.loads(text)
    blob["params"]["gamma"] = 1.0
    assert embedding_to_json(embedding_from_dict(blob)) == text


def _with_float_host_n(blob):
    blob["host"]["n"] = float(blob["host"]["n"])


def _with_float_endpoint(blob):
    blob["host"]["edges"][0][1] = float(blob["host"]["edges"][0][1])


def _with_bool_endpoint(blob):
    blob["host"]["edges"][0][0] = False


def _with_bool_in_eta(blob):
    blob["eta"][0] = False


def _with_bool_in_forest(blob):
    blob["forest_parent"][1] = False


def _with_float_in_forest(blob):
    blob["forest_parent"][1] = 0.0


def _with_bool_length(blob):
    blob["host"]["edges"][0][2] = True


@pytest.mark.parametrize(
    "change",
    [_with_float_host_n, _with_float_endpoint, _with_bool_endpoint, _with_bool_in_eta,
     _with_bool_in_forest, _with_float_in_forest, _with_bool_length],
)
def test_embedding_from_dict_takes_only_integer_ids(change):
    # Host 0 is the root and vertex 0's image, and the star's first edge is
    # (0, 1) of length 1.0; each change keeps the value json's loader would
    # compare equal.
    text = embedding_to_json(star_embedding([1.0, 2.0]))
    assert embedding_to_json(embedding_from_dict(json.loads(text))) == text
    blob = json.loads(text)
    change(blob)
    with pytest.raises(BadEmbedding):
        embedding_from_dict(blob)


def _with_negative_length(blob):
    blob["host"]["edges"][0][2] = -1.0


def _with_nan_length(blob):
    blob["host"]["edges"][0][2] = math.nan


def _with_self_loop(blob):
    edge = blob["host"]["edges"][0]
    edge[1] = edge[0]


def _with_duplicate_pair(blob):
    u, v, w = blob["host"]["edges"][0]
    blob["host"]["edges"].append([v, u, w])


def _with_endpoint_past_host(blob):
    blob["host"]["edges"][0][1] = blob["host"]["n"]


@pytest.mark.parametrize(
    "change",
    [_with_negative_length, _with_nan_length, _with_self_loop, _with_duplicate_pair,
     _with_endpoint_past_host],
)
def test_embedding_from_dict_checks_the_host_as_a_graph(change):
    # A stored embedding is outside input: its host goes through every check
    # of the public WeightedGraph constructor.
    blob = json.loads(embedding_to_json(star_embedding([1.0, 2.0])))
    change(blob)
    with pytest.raises(BadEmbedding):
        embedding_from_dict(blob)
