"""Byte-identity of embeddings across refactors.

The digests are sha256 of `embedding_to_json(embed_top(...))` with the same
seed for the instance weights and the embedding. A change that alters any
embedding fails here; if the change is meant to, say so and record the new
digests. The test ids name the instance, not the digest, so a re-record
keeps them.
"""

import hashlib

import pytest

from mfembed.embedder import embed_top
from mfembed.generators import generate
from mfembed.hosts import embedding_to_json

GRID = dict(kind="grid", rows=8, cols=8, weights="uniform:1:4")

CASES = [
    pytest.param(GRID, 0, "70909e04c93039f49310103bd255ee6865b108748d160a16982bb275039f076e", id="grid8-seed0"),
    pytest.param(GRID, 1, "36bd4d88aef470322e2dab2a3eeec4e637513a32e373594d3aac6254839c6174", id="grid8-seed1"),
    pytest.param(GRID, 2, "4816c9e9c31c79397e2339411f294adb178e37c7f5de21b2b98e6911e1f5b686", id="grid8-seed2"),
    pytest.param(dict(kind="cycle", size=64), 0, "72c3fd2e2b93573ba9f2887c6329c78123a158243e83ef7ac6b5d77760f69447", id="cycle64"),
    pytest.param(dict(kind="star", size=40), 0, "cea682fc2d1b6b55b5029620762c9bfe36a58494cb2bb9af0d6f35b0da6ae2f4", id="star40"),
]


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_embedding_json_digest(instance, seed, digest):
    g = generate(seed=seed, **instance)
    text = embedding_to_json(embed_top(g, 0.5, "practical", seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
