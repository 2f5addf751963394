"""Naive solutions (Section 4.1) and an independent brute-force oracle.

Two implementations live here:

* :func:`naive_enumerate_component` — a faithful rendering of
  Algorithms 1 + 2: a binary set-enumeration tree over each k-core
  component with *no* pruning, validating constraints only at the leaves,
  followed by the quadratic maximal filter.  Exponential; used as the
  correctness baseline on small graphs and to demonstrate why every later
  technique matters.

* :func:`brute_force_maximal_krcores` — a structurally different oracle
  (bitmask sweep over all vertex subsets of each component) used by the
  test suite to cross-check the faithful implementation itself.  Two
  independent wrong implementations rarely agree.

Both operate on a :class:`ComponentContext`, i.e. after the shared
preprocessing (dissimilar edge removal + k-core + components) that
Algorithm 1 lines 1–3 prescribe.  :func:`reference_components` runs
that preprocessing as an independent reference front end: set stages
over the dict graph, never the session's CSR pipeline, so the oracle
and the tests can check the session's prepared components against it.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import FrozenSet, List, Set, Tuple, Union

from repro.core.config import SearchConfig
from repro.core.context import Budget, ComponentContext
from repro.core.results import filter_maximal
from repro.core.stats import SearchStats
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.components import connected_components, is_connected
from repro.graph.csr import CSRGraph
from repro.similarity.index import remove_dissimilar_edges
from repro.similarity.threshold import SimilarityPredicate


def _is_krcore_vertexset(ctx: ComponentContext, vs: Set[int]) -> bool:
    """Definition 3 on a vertex set: degrees, similarity, connectivity."""
    if not vs:
        return False
    adj = ctx.adj
    for u in vs:
        if len(adj[u] & vs) < ctx.k:
            return False
    if ctx.index.has_dissimilar_pair(vs):
        return False
    return is_connected({u: adj[u] & vs for u in vs})


def naive_enumerate_component(ctx: ComponentContext) -> List[FrozenSet[int]]:
    """Algorithm 2 verbatim: enumerate every subset, validate at leaves.

    Leaves where ``M`` meets both constraints contribute each connected
    component of ``M`` (Algorithm 2 line 2); the maximal filter of
    Algorithm 1 lines 6–8 runs at the end.
    """
    vertices = sorted(ctx.vertices)
    found: List[FrozenSet[int]] = []
    adj = ctx.adj
    index = ctx.index
    k = ctx.k

    # Explicit stack of (chosen M, next candidate position).
    stack: List[Tuple[Set[int], int]] = [(set(), 0)]
    while stack:
        M, pos = stack.pop()
        ctx.enter_node()
        if pos == len(vertices):
            if not M:
                continue
            if any(len(adj[u] & M) < k for u in M):
                continue
            if index.has_dissimilar_pair(M):
                continue
            for piece in connected_components(adj, M):
                ctx.stats.cores_emitted += 1
                found.append(frozenset(piece))
            continue
        u = vertices[pos]
        stack.append((set(M), pos + 1))       # shrink: drop u
        stack.append((M | {u}, pos + 1))      # expand: choose u
    return filter_maximal(found)


def brute_force_maximal_krcores(ctx: ComponentContext) -> List[FrozenSet[int]]:
    """Independent oracle: test every subset directly against Definition 3.

    Iterates subsets by size (largest first) and keeps those that are
    (k,r)-cores and not contained in an already-kept core.  Only viable
    for components of ~20 vertices; the test suite enforces that.
    """
    vertices = sorted(ctx.vertices)
    n = len(vertices)
    kept: List[FrozenSet[int]] = []
    for size in range(n, ctx.k, -1):
        for combo in combinations(vertices, size):
            vs = set(combo)
            if any(vs <= big for big in kept):
                continue
            if _is_krcore_vertexset(ctx, vs):
                kept.append(frozenset(vs))
    return kept


def reference_components(
    graph: Union[AttributedGraph, CSRGraph],
    k: int,
    predicate: SimilarityPredicate,
    config: SearchConfig,
) -> List[ComponentContext]:
    """Algorithm 1 lines 1–4 on the dict graph: one context per component.

    The reference front end: :func:`remove_dissimilar_edges` with scalar
    metric calls, then the solver's set stages (``backend="python"``)
    for the k-core peel, the component split, each component's
    adjacency and its dissimilarity index.  Components come in the
    session's order (largest in-component degree first, ties in
    component order); every context shares one fresh
    :class:`SearchStats` and an unlimited :class:`Budget`.
    """
    # The solver imports this module's engines, so its stages load here.
    from repro.core.solver import (
        component_adjacency,
        component_index,
        component_sets,
        kcore_survivors,
        max_component_degree,
    )

    if isinstance(graph, CSRGraph):
        graph = graph.to_attributed()
    filtered = remove_dissimilar_edges(graph, predicate)
    survivors = kcore_survivors(filtered, k, "python")
    stats, budget = SearchStats(), Budget(None, None)
    contexts = [
        ComponentContext(
            vertices=frozenset(comp),
            adj=component_adjacency(filtered, comp, survivors, "python"),
            index=component_index(graph, predicate, comp, "python"),
            k=k,
            config=config,
            stats=stats,
            budget=budget,
            rng=random.Random(config.seed),
        )
        for comp in component_sets(filtered, survivors, "python")
    ]
    contexts.sort(key=lambda ctx: -max_component_degree(ctx.adj))
    return contexts
