"""Recursive embed/split pipeline producing low-treedepth host embeddings.

`prepare` is the one gate for an embedding input: it checks the settings,
refuses a disconnected graph, and only then computes what no seed changes:
the metric closure rescaled so that every distance exceeds 1, hat_ell, the
split parameters and the root chain's top level. `embed_top` takes that
record (an experiment makes one for all its runs), which stands as proof
that its graph is connected, and recursively splits the graph: `split`
builds a clustering chain, packs balanced cuts and draws one, and returns
all three; the recursion goes on into the components left without the cut's
boundary edges (its members and the components outside them), whose
subgraphs are all built, with their adjacency lists and length facts, in
one pass over the current subgraph's edges. A component of one vertex
becomes a forest root in that loop, without a recursive call.
Every member of the sampled cut contributes one portal; a copy of each
portal joins the host, and the portal copies stack on top of the
sub-forests, which keeps the elimination forest valid. Copy c of portal z
is wired to each vertex v of the current subgraph at their distance w
inside that subgraph (divided by the rescaling factor, so host lengths are
in input units), unless a deeper copy already realizes w: an earlier copy
c' of portal z' != v with a kept edge of weight w2 to v, where
w(c, z') + w2 <= w, reaches v from z' through its zero-length edge to z'.
Host distances stay those of the wiring to every vertex, which has 3.5 to
5.6 times as many edges on the grids measured (README). A fragment with
more than half its parent's vertices must get a chain of a lower level.

If any chain build fails, all partial work is discarded and the whole graph
is embedded into a random HST instead (`fallback_used` is set).

On request (`embed_top(..., leaf_rows=True)`) the wiring also keeps each
portal row entry under its input vertex. A vertex's forest ancestors are the
copies of the splits whose fragments hold it, so these entries, root first,
are its full-wiring distances to each ancestor: its host distance labels.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from itertools import repeat
from operator import truediv
from typing import NamedTuple

from . import cutpack
from .cutpack import Cut, build_cut_packing
from .errors import (
    BadEpsilon,
    DisconnectedGraph,
    InvariantViolation,
    LevelOverflow,
    PreconditionViolation,
)
from .frt import frt_embed
from .graphs import (
    INF,
    WeightedGraph,
    dijkstra,
    hat_ell,
    induced_subgraphs,
    is_connected,
    metric_closure_weights,
    normalize,
)
from .hierarchy import ChainFailure, ClusteringChain, build_chain, chain_constants, diameter_level
from .hosts import EmbeddingMeta, HostEmbedding, Params
from .rng import derive_seed

# C in delta = epsilon / (C * hat_ell * n * ln(n)**2), a fixed constant of
# the analysis: in practical mode xi and tau sit at their caps for every
# epsilon, so the host depends on epsilon and C only through epsilon / C.
C_FALLBACK = 64.0
DEFAULT_XI_CAP = 16


def check_settings(epsilon: float, mode: str, xi_cap: int | None) -> None:
    """Refuse split settings that `derive_params` cannot take, whatever the
    input: epsilon outside (0, 1), an unknown mode, an xi_cap below 1, or
    any xi_cap in theory mode."""
    if not 0 < epsilon < 1:
        raise BadEpsilon(f"epsilon must lie in (0,1), got {epsilon}")
    if xi_cap is not None and xi_cap < 1:
        raise PreconditionViolation("xi_cap must be at least 1")
    if mode not in ("theory", "practical"):
        raise PreconditionViolation(f"unknown mode {mode!r}")
    if mode == "theory" and xi_cap is not None:
        raise PreconditionViolation("theory mode keeps the raw xi and takes no xi_cap")


def derive_params(
    n: int,
    hat_ell_value: int,
    epsilon: float,
    mode: str = "practical",
    *,
    xi_cap: int | None = None,
) -> Params:
    """Evaluate the split-parameter formulas for an n-vertex input.

    theory mode keeps the raw values and takes no cap; practical mode caps
    xi at xi_cap (default DEFAULT_XI_CAP) and tau at 4*ceil(sqrt(n)). tau
    only sets the `oversize_cuts` count: the cut search never reads it.
    lambda and sigma are `chain_constants(hat_ell_value, n, delta)`, at
    L = hat_ell; a chain's goodness check takes them at its own top level,
    so the recorded sigma is not the one any chain checks against.
    """
    check_settings(epsilon, mode, xi_cap)
    if n < 2 or hat_ell_value < 1:
        raise PreconditionViolation("need n >= 2 and hat_ell >= 1")
    log2n = (n - 1).bit_length()  # ceil(log2 n) for n >= 2
    ln_n = math.log(n)
    # Below 1/(128 ln(2)**2), about 1/61.5, for n >= 2 and epsilon < 1, so it
    # can only leave (0, 1) by underflowing.
    delta = epsilon / (C_FALLBACK * hat_ell_value * n * ln_n * ln_n)
    if not delta > 0:
        raise BadEpsilon(f"derived delta {delta} underflows; raise epsilon")
    lam, sigma = chain_constants(hat_ell_value, n, delta)
    try:
        xi_theory = math.ceil(64.0 * hat_ell_value**3 * log2n * lam / epsilon)
        # the count becomes a float first, so each product rounds as a float
        tau_theory = math.ceil(float(xi_theory + 1) * hat_ell_value**2 * sigma**2)
    except OverflowError as exc:
        raise PreconditionViolation("xi or tau overflows a float") from exc
    if mode == "theory":
        xi, tau, xi_cap, tau_cap = xi_theory, tau_theory, None, None
    else:
        xi_cap = DEFAULT_XI_CAP if xi_cap is None else xi_cap
        tau_cap = 4 * math.ceil(math.sqrt(n))
        xi, tau = min(xi_theory, xi_cap), min(tau_theory, tau_cap)
    return Params(
        epsilon=epsilon,
        delta=delta,
        xi=xi,
        sigma=sigma,
        tau=tau,
        c_fallback=C_FALLBACK,
        mode=mode,
        xi_cap=xi_cap,
        tau_cap=tau_cap,
    )


class Prepared(NamedTuple):
    """What `embed_top` computes whatever the seed (`prepare`): the metric
    closure rescaled so that every distance exceeds 1, with its scale,
    hat_ell, the split parameters and the root chain's top level."""

    scaled: WeightedGraph
    scale: float
    hat_ell: int
    params: Params
    top_level: int


def prepare(
    g: WeightedGraph,
    epsilon: float,
    mode: str = "practical",
    *,
    xi_cap: int | None = None,
) -> Prepared:
    """The seed-independent state of `embed_top` on a graph of at least two
    vertices. The settings are checked first, then g must be connected,
    and only then is the closure built. An experiment makes the record
    once and hands it to each of its runs."""
    check_settings(epsilon, mode, xi_cap)
    if not is_connected(g):
        raise DisconnectedGraph("embed components separately")
    scaled, scale = normalize(metric_closure_weights(g))
    hat = hat_ell(scaled)
    params = derive_params(g.n, hat, epsilon, mode, xi_cap=xi_cap)
    try:
        top = diameter_level(scaled)
    except LevelOverflow as exc:
        # The chains measure the rescaled graph; name the input's eccentricity.
        raise LevelOverflow(exc.eccentricity / scale, exc.level) from exc
    return Prepared(scaled, scale, hat, params, top)


class SplitResult(NamedTuple):
    """One split of a fragment: its chain, the cuts it sampled from, each
    with the components left without its boundary edges (sorted lists of
    the fragment's vertices ordered by smallest vertex), and the index it
    drew. The chain's `top_level` is the split's level."""

    chain: ClusteringChain
    cuts: list[tuple[Cut, list[list[int]]]]
    index: int

    @property
    def portals(self) -> list[int]:
        """The portal of each member of the sampled cut, in cut order."""
        return [self.chain.center[k] for k in self.cuts[self.index][0]]

    @property
    def components(self) -> list[list[int]]:
        return self.cuts[self.index][1]


class _FallbackRequired(Exception):
    def __init__(self, reason: ChainFailure):
        super().__init__(reason)
        self.reason = reason


def split(
    g: WeightedGraph, params: Params, rng: random.Random, top: int | None = None
) -> SplitResult | ChainFailure:
    """One split step on a connected subgraph with at least two vertices;
    a failed chain build comes back as its `ChainFailure`. The chain's
    carving radii and then the cut index are drawn from `rng`. `top`, when
    given, is g's `diameter_level`, which `build_chain` then does not run.

    A flat chain (`ClusteringChain.flat`) quotients to its graph itself, so
    its packing is the one cut of singletons at the bag that
    `cutpack.centroid_separator` returns on the graph's neighbour sets with
    unit weights; that cut is taken directly. Any other chain packs up to xi
    cuts with `build_cut_packing`.
    """
    if g.n < 2:
        raise PreconditionViolation("split needs at least two vertices")
    chain = build_chain(g, params.delta, rng, top)
    if isinstance(chain, ChainFailure):
        return chain
    if chain.flat:
        bag = sorted(
            cutpack.centroid_separator([{u for u, _ in around} for around in g.adjacency], [1] * g.n)
        )
        cuts = [(tuple(v + 1 for v in bag), cutpack.cut_components(g, [[v] for v in bag]))]
    else:
        packing = build_cut_packing(chain, params.xi)
        cuts = list(zip(packing.cuts, packing.components))
    return SplitResult(chain, cuts, rng.randrange(len(cuts)))


class _EmbedState:
    """Mutable host under construction during the recursion."""

    def __init__(self, n, params, seed, scale, leaf_rows):
        self.params = params
        self.seed = seed
        # Host edges are stored in input units: fragment distances over scale.
        self.scale = scale
        self.parent: list[int | None] = [None] * n
        self.edges: list[tuple[int, int, float]] = []
        # Per input vertex, (weight, portal) of each kept edge from a copy
        # whose portal it is not, in increasing order; and its index in the
        # fragment being wired.
        self.kept: list[list[tuple[float, int]]] = [[] for _ in range(n)]
        self.pos = [0] * n
        # Per input vertex, its own label 0.0 and then each ancestor copy's
        # row entry, deepest first: copies are made as the recursion unwinds.
        self.leaf: list[list[float]] | None = [[0.0] for _ in range(n)] if leaf_rows else None
        self.next_id = n
        self.split_calls = 0
        self.packing_sizes: list[int] = []
        self.oversize_cuts = 0
        self.recursion_depth = 0

    def embed(
        self,
        sub: WeightedGraph,
        verts: list[int],
        path: tuple[int, ...],
        above: tuple[int, int] | None = None,
        top: int | None = None,
    ) -> list[int]:
        """Returns the forest roots of the fragment `sub`, which has at least
        two vertices and whose local vertex i is input vertex verts[i].

        `path` lists the component index taken at each split above. `above`
        is the parent split's (level, size): a fragment must hold at most
        half its parent's vertices or get a chain of a lower level. `top`,
        when given, is sub's `diameter_level`.
        """
        self.recursion_depth = max(self.recursion_depth, len(path) + 1)
        self.split_calls += 1
        rng = random.Random(derive_seed(self.seed, "split", *path))
        result = split(sub, self.params, rng, top)
        if isinstance(result, ChainFailure):
            raise _FallbackRequired(result)
        level = result.chain.top_level
        if above is not None and 2 * sub.n > above[1] and level >= above[0]:
            raise InvariantViolation(
                f"recursion made no progress: size {sub.n}/{above[1]}, level {level}/{above[0]}"
            )
        self.packing_sizes.append(len(result.cuts))
        self.oversize_cuts += sum(len(cut) > self.params.tau for cut, _ in result.cuts)
        # The chain and the cuts not drawn are not held across the recursion.
        portals, components = result.portals, result.components
        del result

        # Each component is sorted, so its subgraph's vertex i is comp[i]. A
        # single vertex is a root of its own, one level below this split.
        multi = [comp for comp in components if len(comp) > 1]
        children = iter(induced_subgraphs(sub, multi) if multi else ())
        here = (level, sub.n)
        roots: list[int] = []
        for k, comp in enumerate(components):
            if len(comp) == 1:
                roots.append(verts[comp[0]])
                self.recursion_depth = max(self.recursion_depth, len(path) + 2)
            else:
                roots.extend(self.embed(next(children), [verts[i] for i in comp], path + (k,), here))
        pos = self.pos
        for i, x in enumerate(verts):
            pos[x] = i
        edges = self.edges
        kept = self.kept
        leaf = self.leaf
        for local_z in portals:
            row = list(map(truediv, dijkstra(sub, local_z), repeat(self.scale)))
            if leaf is not None:
                for v, w in zip(verts, row):
                    leaf[v].append(w)
            z = verts[local_z]
            copy_id = self.next_id
            self.next_id += 1
            self.parent.append(None)
            for v, w in zip(verts, row):
                # No edge when an earlier copy c' of portal z' != v kept an
                # edge (c', v, w2) with w(c, z') + w2 <= w: c reaches v through
                # z' and c''s zero-length edge to it. Entries come nearest
                # first, and such a sum is at least its w2.
                entries = kept[v]
                for w2, zp in entries:
                    if w2 > w or row[pos[zp]] + w2 <= w:
                        break
                else:
                    w2 = INF
                if w2 > w:
                    edges.append((v, copy_id, w))
                    if v != z:
                        insort(entries, (w, z))
            for r in roots:
                self.parent[r] = copy_id
            roots = [copy_id]
        return roots


def embed_top(
    g: WeightedGraph,
    epsilon: float,
    mode: str = "practical",
    seed: int = 0,
    *,
    xi_cap: int | None = None,
    leaf_rows: bool = False,
    prepared: Prepared | None = None,
) -> HostEmbedding:
    """Embed a connected graph; on split failure fall back to the HST path.

    Host distances are reported in the input scale regardless of the
    internal rescaling. With `leaf_rows`, an embedding that did not fall
    back carries each input vertex's host distance labels as
    `HostEmbedding.leaf_rows`, which `ForestLabels(emb)` reads.
    `prepared`, made by `prepare(g, epsilon, mode, xi_cap=xi_cap)` on a
    graph of at least two vertices, stands in for the `prepare` call made
    otherwise, which refuses a disconnected graph; a record passed in
    stands as proof that g is connected. The settings are checked first,
    also for a graph of one vertex; a record made for another vertex count
    or with other settings is refused.
    """
    check_settings(epsilon, mode, xi_cap)
    if g.n == 0:
        raise DisconnectedGraph("cannot embed the empty graph")
    if g.n == 1:
        return HostEmbedding(
            host=WeightedGraph(1, ()),
            eta=[0],
            forest=[None],
            meta=EmbeddingMeta(
                n=1, seed=seed, mode=mode, params=None, fallback_used=False, recursion_depth=1
            ),
            leaf_rows=[[0.0]] if leaf_rows else None,
        )
    if prepared is None:
        prepared = prepare(g, epsilon, mode, xi_cap=xi_cap)
    elif prepared.scaled.n != g.n or prepared.params != derive_params(
        g.n, prepared.hat_ell, epsilon, mode, xi_cap=xi_cap
    ):
        raise PreconditionViolation("the prepared record was made for another graph or settings")
    scale, params = prepared.scale, prepared.params
    state = _EmbedState(g.n, params, seed, scale, leaf_rows)
    try:
        state.embed(prepared.scaled, list(range(g.n)), (), top=prepared.top_level)
    except _FallbackRequired as failed:
        emb = frt_embed(g, derive_seed(seed, "frt"))
        emb.meta = EmbeddingMeta(
            n=g.n,
            seed=seed,
            mode=mode,
            params=params,
            fallback_used=True,
            fallback_reason=failed.reason,
            hat_ell=prepared.hat_ell,
            recursion_depth=state.recursion_depth,
            split_calls=state.split_calls,
        )
        return emb
    except LevelOverflow as exc:
        # The chains measure the rescaled graph; name the input's eccentricity.
        raise LevelOverflow(exc.eccentricity / scale, exc.level) from exc
    # The top root is the last portal copy, appended without a parent.
    host = WeightedGraph._derived(state.next_id, tuple(state.edges))
    meta = EmbeddingMeta(
        n=g.n,
        seed=seed,
        mode=mode,
        params=params,
        fallback_used=False,
        scale=scale,
        hat_ell=prepared.hat_ell,
        packing_sizes=state.packing_sizes,
        oversize_cuts=state.oversize_cuts,
        recursion_depth=state.recursion_depth,
        split_calls=state.split_calls,
    )
    if state.leaf is not None:
        for row in state.leaf:
            row.reverse()
    return HostEmbedding(
        host=host, eta=list(range(g.n)), forest=state.parent, meta=meta, leaf_rows=state.leaf
    )
