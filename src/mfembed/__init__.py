"""Low-treedepth metric embeddings of weighted graphs with evaluation tools."""

from .cutpack import (
    Cut,
    CutPacking,
    build_cut_packing,
    find_balanced_cut,
)
from .embedder import derive_params, embed_top, split
from .frt import frt_embed
from .generators import generate
from .graphio import load_graph, save_graph
from .graphs import (
    WeightedGraph,
    dijkstra,
    hat_ell,
    metric_closure_weights,
    normalize,
)
from .harness import ExperimentConfig, emit, evaluate, run_experiment
from .hierarchy import ChainFailure, ClusteringChain, build_chain
from .hosts import (
    ForestLabels,
    HostEmbedding,
    Params,
    load_embedding,
    save_embedding,
    treedepth_of,
)
from .partition import carve, sample_exponential

__version__ = "0.1.0"

__all__ = [
    "ChainFailure",
    "ClusteringChain",
    "Cut",
    "CutPacking",
    "ExperimentConfig",
    "ForestLabels",
    "HostEmbedding",
    "Params",
    "WeightedGraph",
    "build_chain",
    "build_cut_packing",
    "carve",
    "derive_params",
    "dijkstra",
    "embed_top",
    "emit",
    "evaluate",
    "find_balanced_cut",
    "frt_embed",
    "generate",
    "hat_ell",
    "load_embedding",
    "load_graph",
    "metric_closure_weights",
    "normalize",
    "run_experiment",
    "sample_exponential",
    "save_embedding",
    "save_graph",
    "split",
    "treedepth_of",
]
