"""Byte-identity of embeddings across refactors.

The digests are sha256 of `embedding_to_json(embed_top(...))` with the same
seed for the instance weights and the embedding. A change that alters any
embedding fails here; if the change is meant to, say so and record the new
digests.
"""

import hashlib

import pytest

from mfembed.embedder import embed_top
from mfembed.generators import generate
from mfembed.hosts import embedding_to_json

GRID = dict(kind="grid", rows=8, cols=8, weights="uniform:1:4")

CASES = [
    (GRID, 0, "eb17942331dfc6669ee525e96ebe1118a645f9f1130b23d3f907d2e85f06f655"),
    (GRID, 1, "384a8706a5e7bf36723a3e9f6fe82e9280183a271a1df8403944c8e6dedcf9a5"),
    (GRID, 2, "3664fcd30b1a18d82b47270e9dd13bd0bbedbfc0ec5c4793500a1f101c659cf8"),
    (dict(kind="cycle", size=64), 0, "103a98388972f8cbb99cc74fbb9eea7ef8d39326210db237d11c82378ce0f4e3"),
    (dict(kind="star", size=40), 0, "d351d42bd931c0b92b986cb6f845d6a3ee3913d0299017fd70d6119ab4bb800e"),
]


@pytest.mark.parametrize("instance,seed,digest", CASES)
def test_embedding_json_digest(instance, seed, digest):
    g = generate(seed=seed, **instance)
    text = embedding_to_json(embed_top(g, 0.5, "practical", seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
