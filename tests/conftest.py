import itertools

import oracles
import pytest

import mfembed.embedder as embedder
import mfembed.graphs as graphs
from mfembed.hierarchy import ChainFailure


def failing_at(k, real):
    """`real`, except that its k-th call (counted from 0) returns a failure
    with reason "Injected"."""
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == k:
            return ChainFailure(level=-1, reason="Injected", cluster_index=-1)
        return real(*args, **kwargs)

    return failing


@pytest.fixture
def fail_chain_at(monkeypatch):
    """Returns a function that makes the k-th chain build (counted from 0, one
    per split) fail with reason "Injected": the embedder's `build_chain` call
    and the reference's `oracles.chain_by_subgraphs` call."""
    real_chain, real_reference = embedder.build_chain, oracles.chain_by_subgraphs

    def install(k):
        monkeypatch.setattr(embedder, "build_chain", failing_at(k, real_chain))
        monkeypatch.setattr(oracles, "chain_by_subgraphs", failing_at(k, real_reference))

    return install


@pytest.fixture
def connectivity_walks(monkeypatch):
    """Returns a function that starts counting a graph's connectivity walks,
    the `graphs.connected_components` calls on it with no mask (a cut's
    components go through `cutpack`'s own binding), into the list it
    returns."""
    real = graphs.connected_components

    def watch(g):
        walks = []

        def counted(graph, allowed=None):
            if graph is g and allowed is None:
                walks.append(graph)
            return real(graph, allowed)

        monkeypatch.setattr(graphs, "connected_components", counted)
        return walks

    return watch
