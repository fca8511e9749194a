"""Byte-identity of embeddings and reports across refactors.

The embedding digests are sha256 of `embedding_to_json(embed_top(...))` with
the same seed for the instance weights and the embedding. The report digests
are sha256 of an experiment report without its timing block, dumped with
sorted keys, and of the file `mfembed eval` writes. A change that alters any
of them fails here; if the change is meant to, say so and record the new
digests. The test ids name the instance, not the digest, so a re-record
keeps them. The same embeddings also have their host distance labels
checked against the portal wiring, every graph that the library built for
them without checks is rebuilt through the public constructor, and every
centroid search they make is repeated by the former heap elimination.
"""

import hashlib
import json

import pytest
from oracles import (
    centroid_separator_by_heap,
    check_derived_graph,
    check_labels_against_copy_edges,
    recording_derived_graphs,
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
    pytest.param(GRID, 0, "70909e04c93039f49310103bd255ee6865b108748d160a16982bb275039f076e", id="grid8-seed0"),
    pytest.param(GRID, 1, "36bd4d88aef470322e2dab2a3eeec4e637513a32e373594d3aac6254839c6174", id="grid8-seed1"),
    pytest.param(GRID, 2, "4816c9e9c31c79397e2339411f294adb178e37c7f5de21b2b98e6911e1f5b686", id="grid8-seed2"),
    pytest.param(dict(kind="cycle", size=64), 0, "72c3fd2e2b93573ba9f2887c6329c78123a158243e83ef7ac6b5d77760f69447", id="cycle64"),
    pytest.param(dict(kind="star", size=40), 0, "cea682fc2d1b6b55b5029620762c9bfe36a58494cb2bb9af0d6f35b0da6ae2f4", id="star40"),
    # the benchmark's scale: 138 balanced-cut searches in one embedding
    pytest.param(dict(GRID, rows=20, cols=20), 1, "976da8b75784b8c0475f2827df194e96ac9f511fc401cbfcb5f031799d502484", id="grid20-seed1"),
    # deep chains: 220 splits, most of whose clusters pass the radius certificate
    pytest.param(dict(kind="cycle", size=512), 1, "776fc008e064ace86b6a96f43618a3619f57bee0e81f1e6e89e781c956901ab9", id="cycle512-seed1"),
]


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_embedding_json_digest(instance, seed, digest):
    g = generate(seed=seed, **instance)
    text = embedding_to_json(embed_top(g, 0.5, "practical", seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_host_labels_are_the_copy_edge_weights(instance, seed, digest):
    emb = embed_top(generate(seed=seed, **instance), 0.5, "practical", seed=seed)
    assert not emb.meta.fallback_used
    check_labels_against_copy_edges(emb)


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
        assert bag == centroid_separator_by_heap(adjacency, weights), (adjacency, weights)
        calls.append(len(adjacency))
        return bag

    monkeypatch.setattr(cutpack, "centroid_separator", checked)
    emb = embed_top(generate(seed=seed, **instance), 0.5, "practical", seed=seed)
    assert len(calls) >= emb.meta.split_calls


REPORT_CASES = [
    pytest.param(
        dict(kind="grid", rows=4, cols=4, weights="uniform:1:4"),
        dict(pairs="all", baseline="frt"),
        "34591e99bc557eba5a7feb0148b4eade7c0ddf12e32af2c13580299cc9094665",
        id="grid4-allpairs-frt",
    ),
    pytest.param(
        dict(kind="cycle", size=64),
        dict(pairs=20),
        "212c5f7a682c1579064549fc49fd017dc5679fbc8c379b80aa84109f7fd64742",
        id="cycle64-sampled20",
    ),
    pytest.param(
        dict(kind="cycle", size=512),
        dict(pairs=200, baseline="frt", runs=2, seed=1),
        "7d2a6ddb0442e75db119561773f24a03ad20ffc5903acfeff3793e02272f0d92",
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
    assert digest == "940345d6ad10027ceed10dd2c2f668be21e09c3966ed152db8f72430bd9f4e22"


GRID6_CHAIN = """\
level 0: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 1: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 2: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 3: 36 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 4: 33 clusters, sizes [2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 5: 1 clusters, sizes [36]
"""

GRID6_CUTS = """\
packing size=2
  cut 0: members=7 levels=[4, 4, 4, 4, 4, 4, 4] oversize=False balance_margin=1
  cut 1: members=7 levels=[4, 4, 4, 4, 3, 4, 3] oversize=False balance_margin=1
"""

CYCLE512_CHAIN = """\
# rescaled by 2 so all distances exceed 1
level 0: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 1: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 2: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 3: 512 clusters, sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 4: 510 clusters, sizes [2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
level 5: 457 clusters, sizes [3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]
level 6: 288 clusters, sizes [6, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]
level 7: 167 clusters, sizes [10, 9, 7, 7, 7, 6, 6, 6, 6, 6, 5, 5]
level 8: 73 clusters, sizes [21, 14, 13, 12, 12, 11, 11, 11, 11, 11, 11, 10]
level 9: 1 clusters, sizes [512]
"""

CYCLE512_CUTS = """\
# rescaled by 2 so all distances exceed 1
packing size=3
  cut 0: members=3 levels=[8, 8, 8] oversize=False balance_margin=9
  cut 1: members=3 levels=[7, 7, 7] oversize=False balance_margin=2
  cut 2: members=3 levels=[6, 7, 7] oversize=False balance_margin=0
"""


@pytest.mark.parametrize(
    "instance,command,want",
    [
        (dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), "chain", GRID6_CHAIN),
        (dict(kind="grid", rows=6, cols=6, weights="uniform:1:4"), "cuts", GRID6_CUTS),
        (dict(kind="cycle", size=512), "chain", CYCLE512_CHAIN),
        (dict(kind="cycle", size=512), "cuts", CYCLE512_CUTS),
    ],
    ids=["grid6-chain", "grid6-cuts", "cycle512-chain", "cycle512-cuts"],
)
def test_debug_command_stdout(instance, command, want, tmp_path, capsys):
    path = tmp_path / "g.txt"
    save_graph(generate(seed=1, **instance), path)
    assert main([command, "-i", str(path), "--seed", "1"]) == 0
    assert capsys.readouterr().out == want
