"""Byte-identity of embeddings and reports across refactors.

The embedding digests are sha256 of `embedding_to_json(embed_top(...))` with
the same seed for the instance weights and the embedding. The report digests
are sha256 of an experiment report without its timing block, dumped with
sorted keys, and of the file `mfembed eval` writes. A change that alters any
of them fails here; if the change is meant to, say so and record the new
digests. The test ids name the instance, not the digest, so a re-record
keeps them. Three root splits are kept as text. The same embeddings also
have their host distance labels and their leaf rows checked against the
portal wiring, every graph that the library built for them without checks
is rebuilt through the public constructor, and every centroid search they
make is repeated on the whole min-degree decomposition.
"""

import hashlib
import json

import pytest
from oracles import (
    check_derived_graph,
    check_forest_labels_by_dijkstra,
    check_labels_against_copy_edges,
    check_leaf_rows,
    oracle_centroid,
    recording_derived_graphs,
    root_split_text,
    strip_timing,
)

import mfembed.cutpack as cutpack
from mfembed.cli import main
from mfembed.embedder import embed_top
from mfembed.frt import frt_embed
from mfembed.generators import generate
from mfembed.graphio import save_graph
from mfembed.harness import ExperimentConfig, run_experiment
from mfembed.hosts import embedding_to_json

GRID = dict(kind="grid", rows=8, cols=8, weights="uniform:1:4")

CASES = [
    pytest.param(GRID, 0, "30387378a6529904434a331d54ba49d0b281af77da333d1c2cac9aa2e3c202bc", id="grid8-seed0"),
    pytest.param(GRID, 1, "45c7f672932104df537adbc7a36c2d09cbdf1954b58c58ab92bf3d4f82a8a258", id="grid8-seed1"),
    pytest.param(GRID, 2, "8158b3245f31b24418c8b9fce5979273482f7fcd660845839ab9853f82374887", id="grid8-seed2"),
    pytest.param(dict(kind="cycle", size=64), 0, "6983631ddc19c7f72d706fbc70ad5884f0c4182070d6355d202d2e00af209b27", id="cycle64"),
    pytest.param(dict(kind="star", size=40), 0, "505fcf007c3eda972de4853d83787d2e2f70e98295323eb336977c7a14bd38ad", id="star40"),
    # the benchmark's scale: 133 balanced-cut searches in one embedding
    pytest.param(dict(GRID, rows=20, cols=20), 1, "188e9d0ed6963edb4674a9d5a3855dd176c398e64e9acb0e5608bea09e128769", id="grid20-seed1"),
    # deep chains: 219 splits, most of whose clusters pass the radius certificate
    pytest.param(dict(kind="cycle", size=512), 1, "39c952476f6a7c14e8ac4a39c64e8e216251a3dd007b9d6341dcd8404cc0d706", id="cycle512-seed1"),
    # fractional tree fragments, walked without a heap
    pytest.param(dict(kind="path", size=300, weights="uniform:1:4"), 1, "0a789ed46a1f33e4dc642595a4e2e458b0d4a24b4ef089ca1609051c1ae6765d", id="path300-uniform-seed1"),
    pytest.param(dict(kind="cycle", size=512, weights="uniform:1:4"), 1, "525fb500e2015b6a4e7fd5dffa64d473aafe955e18993994799c22148c90d5ac", id="cycle512-uniform-seed1"),
    # equal lengths on fragments with cycles, walked breadth-first
    pytest.param(dict(kind="grid", rows=12, cols=12), 1, "3f7f4ac905021c23559588cf84afa9b642b8cc1d862c6ec7d7d518a29944386e", id="grid12-unit-seed1"),
]


def label_bound(g, instance):
    """How far below the full wiring's weights, relative, a label of the
    pruned host may sit: 1e-15, except on a fractional path or cycle, where
    a label sums a long detour in another order than the weight it meets
    and the first-order bound (6n + 4) * 2**-53 of
    `test_pipeline.test_leaf_rows_on_long_fractional_paths` holds instead."""
    if instance["kind"] in ("path", "cycle") and instance.get("weights", "unit") != "unit":
        return (6 * g.n + 4) * 2.0**-53
    return 1e-15


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_embedding_json_digest(instance, seed, digest):
    g = generate(seed=seed, **instance)
    text = embedding_to_json(embed_top(g, 0.5, "practical", seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_host_labels_are_the_copy_edge_weights(instance, seed, digest):
    g = generate(seed=seed, **instance)
    emb = embed_top(g, 0.5, "practical", seed=seed)
    assert not emb.meta.fallback_used
    check_labels_against_copy_edges(g, emb, rel=label_bound(g, instance))


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_leaf_rows_are_the_full_wiring_weights(instance, seed, digest):
    g = generate(seed=seed, **instance)
    emb = embed_top(g, 0.5, "practical", seed=seed, leaf_rows=True)
    # keeping the rows changes nothing that is written
    assert hashlib.sha256(embedding_to_json(emb).encode()).hexdigest() == digest
    differ = check_leaf_rows(g, emb, rel=label_bound(g, instance))
    # rows and labels differ only where the weights are fractional
    assert differ == 0 or instance.get("weights") == "uniform:1:4"


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_frt_tree_labels_are_the_dijkstra_labels(instance, seed, digest):
    g = generate(seed=seed, **instance)
    check_forest_labels_by_dijkstra(frt_embed(g, seed))


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_derived_graphs_are_valid_graphs(instance, seed, digest):
    g = generate(seed=seed, **instance)
    with recording_derived_graphs() as built:
        emb = embed_top(g, 0.5, "practical", seed=seed)
        tree = frt_embed(g, seed)
    # the closed input, one subgraph per split below the root, and both hosts
    assert len(built) >= emb.meta.split_calls + 2
    assert any(h is emb.host for h in built) and any(h is tree.host for h in built)
    for h in built:
        check_derived_graph(h, allow_zero=h is emb.host)


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_centroid_separator_matches_the_heap_elimination(instance, seed, digest, monkeypatch):
    real = cutpack.centroid_separator
    calls = []

    def checked(adjacency, weights):
        bag = real(adjacency, weights)
        assert bag == oracle_centroid(adjacency, weights), (adjacency, weights)
        calls.append(len(adjacency))
        return bag

    monkeypatch.setattr(cutpack, "centroid_separator", checked)
    emb = embed_top(generate(seed=seed, **instance), 0.5, "practical", seed=seed)
    assert len(calls) >= emb.meta.split_calls


REPORT_CASES = [
    pytest.param(
        dict(kind="grid", rows=4, cols=4, weights="uniform:1:4"),
        dict(pairs="all", baseline="frt"),
        "d30553bfab198a245372f4fd0b4d9e55062badd3e81d520eaf142d1791514cd3",
        id="grid4-allpairs-frt",
    ),
    pytest.param(
        dict(kind="cycle", size=64),
        dict(pairs=20),
        "dacf7e4e5115864be7849b2ef3be64a2ad69c341ca17ee23d0db2a7536844b84",
        id="cycle64-sampled20",
    ),
    pytest.param(
        dict(kind="cycle", size=512),
        dict(pairs=200, baseline="frt", runs=2, seed=1),
        "77752a5ab9729f425b08d476221ab82c044032e30e8110c1b75ad609838c332e",
        id="cycle512-sampled200-frt",
    ),
]


@pytest.mark.parametrize("instance,options,digest", REPORT_CASES)
def test_experiment_report_digest(instance, options, digest):
    g = generate(seed=0, **instance)
    config = ExperimentConfig(**{"epsilon": 0.5, "mode": "practical", "runs": 3, "seed": 0, **options})
    text = json.dumps(strip_timing(run_experiment(g, config)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_eval_report_digest_grid5(tmp_path, monkeypatch):
    # relative paths: the report's config block names the input files
    monkeypatch.chdir(tmp_path)
    save_graph(generate("grid", rows=5, cols=5, weights="uniform:1:4", seed=3), "grid5.txt")
    assert main(["embed", "-i", "grid5.txt", "--seed", "3", "-o", "emb.json"]) == 0
    assert main(["eval", "-i", "grid5.txt", "-e", "emb.json", "--pairs", "all", "-o", "report.json"]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == "fcc4b4ccd1bc7059db0d30e583a5c7859939e37fbcabf05f67e9710c9bad0370"


# The root split of `embed --seed 1`, as the former `mfembed split --seed 1`
# debug command printed it (`oracles.root_split_text`), in two parts: the
# chain (everything before `packing size=`) and the cuts (the rest)
GRID6_CHAIN = """\
level 0: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 1: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 2: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 3: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 4: 35 clusters, sizes [2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 5: 1 clusters, sizes [36]
"""

GRID6_CUTS = """\
packing size=2
  cut 0: members=7 levels=[4, 4, 4, 4, 4, 4, 4] oversize=False balance_margin=2
  cut 1: members=7 levels=[4, 4, 4, 4, 4, 4, 3] oversize=False balance_margin=2
sampled cut=1
"""

CYCLE512_CHAIN = """\
# rescaled by 2 so all distances exceed 1
level 0: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 1: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 2: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 3: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 4: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 5: 510 clusters, sizes [2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 6: 426 clusters, sizes [5, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2]
level 7: 253 clusters, sizes [5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4]
level 8: 123 clusters, sizes [11, 10, 10, 10, 9, 9, 8, 8, 7, 7, 7, 7]
level 9: 1 clusters, sizes [512]
"""

CYCLE512_CUTS = """\
packing size=3
  cut 0: members=3 levels=[8, 8, 8] oversize=False balance_margin=1
  cut 1: members=3 levels=[7, 7, 8] oversize=False balance_margin=1
  cut 2: members=3 levels=[6, 7, 8] oversize=False balance_margin=0
sampled cut=0
"""

# a flat root: the star's root carving leaves only singletons, so the split
# takes the one cut of the centroid bag
STAR40_CHAIN = """\
# rescaled by 2 so all distances exceed 1
level 0: 41 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 1: 41 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 2: 1 clusters, sizes [41]
"""

STAR40_CUTS = """\
packing size=1
  cut 0: members=2 levels=[1, 1] oversize=False balance_margin=19
sampled cut=0
"""


@pytest.mark.parametrize(
    "instance,part,want",
    [
        (dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), "chain", GRID6_CHAIN),
        (dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), "cuts", GRID6_CUTS),
        (dict(kind="cycle", size=512), "chain", CYCLE512_CHAIN),
        (dict(kind="cycle", size=512), "cuts", CYCLE512_CUTS),
        (dict(kind="star", size=40), "chain", STAR40_CHAIN),
        (dict(kind="star", size=40), "cuts", STAR40_CUTS),
    ],
    ids=[
        "grid6-chain", "grid6-cuts", "cycle512-chain", "cycle512-cuts", "star40-chain", "star40-cuts"
    ],
)
def test_debug_command_stdout(instance, part, want):
    text = root_split_text(generate(seed=1, **instance), seed=1)
    chain, marker, cuts = text.partition("packing size=")
    assert marker
    assert {"chain": chain, "cuts": marker + cuts}[part] == want
