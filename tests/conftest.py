import itertools

import pytest

import mfembed.embedder as embedder
from mfembed.hierarchy import ChainFailure


@pytest.fixture
def fail_chain_at(monkeypatch):
    """Returns a function that makes the embedder's k-th `build_chain` call
    (counted from 0, one per split) fail with reason "Injected"."""
    real = embedder.build_chain

    def install(k):
        calls = itertools.count()

        def failing(*args, **kwargs):
            if next(calls) == k:
                return ChainFailure(level=-1, reason="Injected", cluster_index=-1)
            return real(*args, **kwargs)

        monkeypatch.setattr(embedder, "build_chain", failing)

    return install
