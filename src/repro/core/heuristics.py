"""Greedy heuristics: fast lower bounds for the maximum (k,r)-core.

The maximum solver's bound pruning (Section 6.1) is only as strong as
the best core seen so far — early in the search that is nothing, so the
first descent runs unpruned.  This module provides a polynomial-time
greedy peeling that produces a valid (k,r)-core quickly; the solver can
use it as a *warm start* (``SearchConfig.warm_start``), an ablation the
benchmark suite measures alongside the paper's techniques.

The peeling mirrors the (k,k')-core bound computation (Algorithm 6) run
in reverse roles: repeatedly remove the vertex with the most dissimilar
partners (breaking ties towards low structural degree), re-peel the
k-core, and stop when no dissimilar pair is left — at that point every
surviving connected component is a (k,r)-core by construction.

This is also exposed directly as :func:`greedy_maximum_krcore` for
callers who want an approximate answer in guaranteed polynomial time
(the exact problem being NP-hard).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.core.context import ComponentContext
from repro.graph.components import connected_components
from repro.graph.kcore import k_core_vertices


def greedy_core_in_component(ctx: ComponentContext) -> Optional[FrozenSet[int]]:
    """Largest (k,r)-core found by greedy dissimilarity peeling.

    Returns ``None`` when the peeling exhausts the component.  The
    result, when present, is a genuine (k,r)-core (both constraints and
    connectivity hold by construction), so it is always a valid lower
    bound / warm start for the exact search.

    Complexity: each round removes at least one vertex and re-peels, so
    ``O(n (n + m))`` in the worst case; in practice few rounds run
    because structural peeling cascades.
    """
    index = ctx.index
    alive = k_core_vertices(ctx.adj, ctx.k, ctx.vertices)
    while alive:
        # Vertices still involved in dissimilar pairs, worst first.
        worst = None
        worst_key = None
        for u in alive:
            dp = len(index.dissimilar_to(u) & alive)
            if dp == 0:
                continue
            key = (dp, -len(ctx.adj[u] & alive), u)
            if worst_key is None or key > worst_key:
                worst, worst_key = u, key
        if worst is None:
            break  # similarity-clean
        alive.discard(worst)
        alive = k_core_vertices(ctx.adj, ctx.k, alive)
    if not alive:
        return None
    best = max(connected_components(ctx.adj, alive), key=len)
    return frozenset(best)


def greedy_maximum_krcore(graph, k, predicate) -> Optional["KRCore"]:
    """Approximate maximum (k,r)-core in polynomial time.

    The session's ``mode="heuristic"`` maximum query: the greedy peeling
    on every k-core component, keeping the largest core found (or
    ``None``).  The result is always a valid (k,r)-core but may be
    smaller than the true maximum — use
    :func:`repro.core.api.find_maximum_krcore` for the exact answer.
    """
    from repro.core.session import KRCoreSession

    return KRCoreSession(graph, copy=False).maximum_outcome(
        k, predicate=predicate, mode="heuristic",
    ).core
