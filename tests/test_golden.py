"""Byte-identity of embeddings and reports across refactors.

The embedding digests are sha256 of `embedding_to_json(embed_top(...))` with
the same seed for the instance weights and the embedding. The report digests
are sha256 of an experiment report without its timing block, dumped with
sorted keys, and of the file `mfembed eval` writes. A change that alters any
of them fails here; if the change is meant to, say so and record the new
digests. The test ids name the instance, not the digest, so a re-record
keeps them. The same embeddings also have their host distance labels
checked against the portal wiring.
"""

import hashlib
import json

import pytest
from oracles import check_labels_against_copy_edges

from mfembed.cli import main
from mfembed.embedder import embed_top
from mfembed.generators import generate
from mfembed.graphio import save_graph
from mfembed.harness import ExperimentConfig, run_experiment, strip_timing
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
]


@pytest.mark.parametrize("instance,options,digest", REPORT_CASES)
def test_experiment_report_digest(instance, options, digest):
    g = generate(seed=0, **instance)
    config = ExperimentConfig(epsilon=0.5, mode="practical", runs=3, seed=0, **options)
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
