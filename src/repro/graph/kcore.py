"""k-core computation and core decomposition.

The paper relies on the linear-time peeling algorithm of Batagelj &
Zaversnik ("An O(m) algorithm for cores decomposition of networks") in four
places: preprocessing (Algorithm 1 line 3), candidate pruning (Theorem 2),
the k-core size upper bound (Section 6.2), and inside the (k,k')-core bound
(Algorithm 6).  This module provides those primitives over either an
:class:`AttributedGraph` or a plain ``dict[int, set[int]]`` adjacency (the
solvers use the dict form so they can peel induced subgraphs without
materialising graph objects).

It also provides :func:`anchored_k_core`, the variant needed by the early
termination check (Theorem 5 (ii)) and the maximal check (Algorithm 4):
a set of *anchor* vertices is exempt from the degree requirement and is
never peeled.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph import csr as _csr
from repro.graph.csr import CSRGraph

Adjacency = Mapping[int, Set[int]]
GraphLike = Union[AttributedGraph, CSRGraph, Adjacency]


def _vertex_mask(csr: CSRGraph, vertices: Optional[Iterable[int]]) -> Optional[np.ndarray]:
    if vertices is None:
        return None
    return _csr.vertex_mask(csr, vertices)


def _as_adjacency(
    graph: GraphLike, vertices: Optional[Iterable[int]] = None
) -> Dict[int, Set[int]]:
    """Materialise a ``vertex -> neighbour set`` view of ``graph``.

    When ``vertices`` is given, the view is the induced subgraph on those
    vertices (original ids preserved).
    """
    if isinstance(graph, CSRGraph):
        graph = graph.to_adjacency()
    if isinstance(graph, AttributedGraph):
        if vertices is None:
            return {u: set(graph.neighbors(u)) for u in graph.vertices()}
        return {
            u: set(nbrs)
            for u, nbrs in graph.induced_adjacency(vertices).items()
        }
    if vertices is None:
        return {u: set(nbrs) for u, nbrs in graph.items()}
    vset = set(vertices)
    return {u: graph[u] & vset for u in vset}


def k_core_vertices(
    graph: GraphLike,
    k: int,
    vertices: Optional[Iterable[int]] = None,
) -> Set[int]:
    """Vertices of the (possibly empty) k-core of ``graph``.

    The k-core is the maximal subgraph in which every vertex has degree at
    least ``k``; it is computed by repeatedly peeling vertices of degree
    below ``k``.  When ``vertices`` is given, the k-core of the *induced*
    subgraph is computed instead (ids preserved).

    Runs in ``O(n + m)`` of the (induced) subgraph.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    if isinstance(graph, CSRGraph):
        alive = _csr.k_core_mask(graph, k, _vertex_mask(graph, vertices))
        return set(np.nonzero(alive)[0].tolist())
    adj = _as_adjacency(graph, vertices)
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    queue: List[int] = [u for u, d in degree.items() if d < k]
    removed: Set[int] = set(queue)
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v in removed:
                continue
            degree[v] -= 1
            if degree[v] < k:
                removed.add(v)
                queue.append(v)
    return set(adj) - removed


def k_core_subgraph(graph: AttributedGraph, k: int) -> AttributedGraph:
    """The k-core as a re-indexed :class:`AttributedGraph`."""
    return graph.induced_subgraph(k_core_vertices(graph, k))


def anchored_k_core(
    adjacency: Union[Adjacency, CSRGraph],
    k: int,
    candidates: Iterable[int],
    anchors: Iterable[int],
) -> Set[int]:
    """Maximal ``U ⊆ candidates`` with ``deg(u, anchors ∪ U) >= k`` for all u.

    Anchors never need degree ``k`` and are never peeled — exactly the
    shape of Theorem 5 (ii) ("a set U ⊆ SF_{C∪E}(E) such that
    deg(u, M ∪ U) >= k for every u in U", with ``M`` anchored) and of the
    degree test in the maximal-check search (Algorithm 4).

    Parameters
    ----------
    adjacency:
        Full adjacency over at least ``candidates ∪ anchors``.
    candidates / anchors:
        Disjoint vertex sets.  Degrees are counted within
        ``anchors ∪ (surviving candidates)`` only.

    Returns the surviving candidate set (a subset of ``candidates``).
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    if isinstance(adjacency, CSRGraph):
        cand_mask = _csr.vertex_mask(adjacency, candidates)
        anchor_mask = _csr.vertex_mask(adjacency, anchors)
        alive = _csr.anchored_k_core_mask(adjacency, k, cand_mask, anchor_mask)
        return set(np.nonzero(alive)[0].tolist())
    cand = set(candidates)
    anchor_set = set(anchors)
    if cand & anchor_set:
        raise InvalidParameterError(
            "candidates and anchors must be disjoint"
        )
    keep = cand | anchor_set
    degree = {u: len(adjacency[u] & keep) for u in cand}
    queue = [u for u, d in degree.items() if d < k]
    removed = set(queue)
    while queue:
        u = queue.pop()
        for v in adjacency[u]:
            if v in cand and v not in removed:
                degree[v] -= 1
                if degree[v] < k:
                    removed.add(v)
                    queue.append(v)
    return cand - removed


def incremental_kcore_update(
    filtered: CSRGraph,
    k: int,
    survivors: np.ndarray,
    added_edges: Iterable[Tuple[int, int]],
    removed_edges: Iterable[Tuple[int, int]],
) -> Tuple[Set[int], Set[int]]:
    """Exact k-core survivors after an edit, touching only the affected region.

    ``filtered`` is the **post-edit** :class:`CSRGraph` and ``survivors``
    the **pre-edit** k-core of it as a boolean vertex mask — ``survivors``
    is updated *in place* to the exact k-core of the edited graph,
    identical to a full re-peel (the k-core is unique, so any correct
    bounded computation matches it).  ``added_edges`` /
    ``removed_edges`` are the edges that changed; work is proportional
    to the cascade/expansion region they trigger, not to the graph.

    Two phases, both against the post-edit adjacency:

    1. **Deletion cascade** — endpoints of removed edges that dropped
       below degree ``k`` inside the survivor set are peeled, cascading
       outward.  This yields ``k-core(induced(S_old))`` exactly (peeling
       any superset of the true k-core converges to it).
    2. **Insertion expansion** — every component of new joiners must
       contain an added-edge endpoint (otherwise it was already a
       ``>= k``-degree subgraph inside the old survivor closure,
       contradicting phase 1's maximality), so a BFS from the added
       endpoints over outside vertices of full degree ``>= k`` covers
       all candidates; an anchored peel (survivors exempt) keeps exactly
       the joiners.

    Returns ``(removed, added)`` — the *gross* vertex flows of the two
    phases.  They may overlap (a vertex cascaded out and re-admitted);
    the mutated ``survivors`` object reflects the net state, while the
    union of both sets bounds every vertex whose membership was touched.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")

    def in_s(x: int) -> bool:
        return bool(survivors[x])

    def nbrs(x: int) -> List[int]:
        return filtered.neighbors(x).tolist()

    # Phase 1: deletion cascade inside the old survivor set.
    removed: Set[int] = set()
    degree: Dict[int, int] = {}
    stack: List[int] = [
        x for e in removed_edges for x in e if in_s(x)
    ]
    while stack:
        x = stack.pop()
        if not in_s(x):
            continue
        if x not in degree:
            degree[x] = sum(1 for w in nbrs(x) if in_s(w))
        if degree[x] >= k:
            continue
        survivors[x] = False
        removed.add(x)
        degree.pop(x, None)
        for w in nbrs(x):
            if in_s(w):
                if w in degree:
                    degree[w] -= 1
                stack.append(w)

    # Phase 2: insertion expansion from the added-edge endpoints.
    region: Set[int] = set()
    stack = [
        x for e in added_edges for x in e
        if not in_s(x) and filtered.degree(x) >= k
    ]
    while stack:
        x = stack.pop()
        if x in region or in_s(x):
            continue
        region.add(x)
        for w in nbrs(x):
            if not in_s(w) and w not in region and filtered.degree(w) >= k:
                stack.append(w)
    added: Set[int] = set()
    if region:
        rdeg = {
            x: sum(1 for w in nbrs(x) if in_s(w) or w in region)
            for x in region
        }
        dead: Set[int] = set()
        stack = [x for x, d in rdeg.items() if d < k]
        while stack:
            x = stack.pop()
            if x in dead or rdeg[x] >= k:
                continue
            dead.add(x)
            for w in nbrs(x):
                if w in region and w not in dead:
                    rdeg[w] -= 1
                    stack.append(w)
        added = region - dead
        survivors[sorted(added)] = True
    return removed, added


def core_decomposition(graph: GraphLike) -> Dict[int, int]:
    """Core number of every vertex (Batagelj–Zaversnik bucket peeling).

    The core number of ``u`` is the largest ``k`` such that ``u`` belongs
    to the k-core.  Runs in ``O(n + m)`` using bucket sort on degrees
    (or the vectorised level peeling when given a :class:`CSRGraph`).
    """
    if isinstance(graph, CSRGraph):
        core, _ = _csr.core_numbers(graph)
        return {u: int(c) for u, c in enumerate(core.tolist())}
    adj = _as_adjacency(graph)
    n = len(adj)
    if n == 0:
        return {}
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    max_deg = max(degree.values())
    # Bucket queue: bins[d] holds vertices of current degree d.
    bins: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for u, d in degree.items():
        bins[d].append(u)
    core: Dict[int, int] = {}
    processed: Set[int] = set()
    current = 0
    d = 0
    while len(processed) < n:
        # Advance to the lowest non-empty bucket.
        while d <= max_deg and not bins[d]:
            d += 1
        u = bins[d].pop()
        if u in processed or degree[u] != d:
            # Stale bucket entry (vertex moved to a lower bucket since).
            continue
        current = max(current, d)
        core[u] = current
        processed.add(u)
        for v in adj[u]:
            if v in processed:
                continue
            if degree[v] > current:
                degree[v] -= 1
                bins[degree[v]].append(v)
                if degree[v] < d:
                    d = degree[v]
    return core


def max_core_number(graph: GraphLike) -> int:
    """Largest ``k`` such that the k-core is non-empty (0 for empty graphs).

    Used by the k-core based clique-size upper bound of Section 6.2:
    a clique of size ``q`` is a (q-1)-core, so ``q <= kmax + 1``.
    """
    core = core_decomposition(graph)
    if not core:
        return 0
    return max(core.values())


def degeneracy_order(graph: GraphLike) -> List[int]:
    """Vertices in non-decreasing core-number peel order.

    A degeneracy ordering: each vertex has at most ``kmax`` neighbours
    *later* in the order.  Used by the Bron–Kerbosch driver to bound the
    branching factor.
    """
    if isinstance(graph, CSRGraph):
        _, order = _csr.core_numbers(graph)
        return [int(u) for u in order.tolist()]
    adj = _as_adjacency(graph)
    n = len(adj)
    if n == 0:
        return []
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    max_deg = max(degree.values())
    bins: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for u, d in degree.items():
        bins[d].append(u)
    order: List[int] = []
    processed: Set[int] = set()
    d = 0
    while len(order) < n:
        while d <= max_deg and not bins[d]:
            d += 1
        u = bins[d].pop()
        if u in processed or degree[u] != d:
            continue
        order.append(u)
        processed.add(u)
        for v in adj[u]:
            if v not in processed and degree[v] > 0:
                degree[v] -= 1
                bins[degree[v]].append(v)
                if degree[v] < d:
                    d = degree[v]
    return order
