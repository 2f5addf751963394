"""Algorithm 1's front-end stages and the per-component solve helpers.

Algorithm 1's shared front end (lines 1–4) is decomposed into one
function per stage; :class:`repro.core.session.KRCoreSession` — which
runs every public query — composes them with its caches interposed
between the stages:

* :func:`freeze_graph`        — CSR build (the session's one graph form);
* :func:`kcore_survivors`     — k-core peel (optionally warm-started);
* :func:`component_arrays`    — component split and every component's
  similar edges, dissimilar pairs, degrees and signature parts, cut
  from a few array passes over the whole ``(k, r)`` point;
* :func:`component_sets`      — connected-component split;
* :func:`component_adjacency` — per-component similar-edge adjacency;
* :func:`component_index`     — per-component dissimilarity index.

The session prepares every point through :func:`component_arrays`
alone, whichever engine then searches it.  The per-component stages'
``"python"`` set forms make up the reference front end
(:func:`repro.core.naive.reference_components`) the batched path is
tested against.  Dissimilar-edge deletion lives in
:class:`~repro.similarity.cache.EdgeSimilarityCache` (per-edge metric
values computed once, thresholds re-compared).

The maximum solver's two-phase schedule is shared the same way:
components sorted by their ``|V|`` bound (:func:`maximum_schedule`) are
solved in fixed-width batches (:func:`iter_maximum_batches`), each batch
seeded with the best core of the previous batches, with the
``|component| <= |best|`` early termination applied between batches —
so serial and parallel runs produce identical results and identical
merged stats.  :func:`solve_component_split` is the branch-level
work-sharing variant for one component (``split_depth > 0``).
"""

from __future__ import annotations

import copy
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Union

import numpy as np

from repro.core.clique_based import clique_based_component
from repro.core.context import ComponentArrays, ComponentContext
from repro.core.enumerate import enumerate_component
from repro.core.executor import (
    MAXIMUM_BATCH,
    SPLIT_BATCH,
    merge_outcome,
    remaining_time,
    task_from_context,
)
from repro.core.maximum import solve_subtree, split_frontier
from repro.core.naive import naive_enumerate_component
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.components import connected_components
from repro.graph.csr import (
    CSRGraph,
    component_order,
    component_vertex_groups,
    gather_neighbors,
    induced_entries,
    k_core_mask,
)
from repro.graph.kcore import k_core_vertices
from repro.similarity.index import (
    build_index,
    euclidean_dissimilar_pairs,
    point_column,
)
from repro.similarity.metrics import euclidean_distance
from repro.similarity.threshold import SimilarityPredicate

ComponentFn = Callable[[ComponentContext], List[FrozenSet[int]]]

ENUM_ENGINES: Dict[str, ComponentFn] = {
    "engine": enumerate_component,
    "naive": naive_enumerate_component,
    "clique": clique_based_component,
}

#: Survivor sets are plain vertex sets in the ``"python"`` stage forms and
#: boolean masks in the ``"csr"`` ones.
Survivors = Union[Set[int], np.ndarray]


def resolve_engine(engine: str) -> ComponentFn:
    """The per-component enumeration callable for a named engine."""
    try:
        return ENUM_ENGINES[engine]
    except KeyError:
        raise InvalidParameterError(
            f"unknown engine {engine!r}; choose from {sorted(ENUM_ENGINES)}"
        ) from None


# ----------------------------------------------------------------------
# Pipeline stages (Algorithm 1 lines 1–4, one function per stage)
# ----------------------------------------------------------------------

def freeze_graph(graph: Union[AttributedGraph, CSRGraph]) -> CSRGraph:
    """Freeze the graph into CSR form (identity when already frozen)."""
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_attributed(graph)


def kcore_survivors(
    filtered,
    k: int,
    backend: str,
    seed: Optional[Survivors] = None,
) -> Survivors:
    """Algorithm 1 line 3: peel the k-core of the filtered graph.

    ``seed`` optionally warm-starts the peel from a known superset of the
    k-core (e.g. a smaller k's survivors — the k-core is monotone, so the
    result is identical to peeling from the whole graph).
    """
    if backend == "csr":
        mask = None if seed is None else np.asarray(seed, dtype=bool)
        return k_core_mask(filtered, k, mask)
    return k_core_vertices(filtered, k, vertices=seed)


def component_sets(filtered, survivors: Survivors, backend: str) -> List[Set[int]]:
    """Algorithm 1 line 4: connected components of the surviving k-core.

    The per-backend canonical order is preserved (the csr kernels yield
    largest-first with min-id ties; the set-based walk yields its
    deterministic BFS order) so both paths stay reproducible.
    """
    if backend == "csr":
        return [
            set(group.tolist())
            for group in component_vertex_groups(filtered, survivors)
        ]
    return [set(comp) for comp in connected_components(filtered, survivors)]


def component_adjacency(
    filtered,
    comp: Set[int],
    survivors: Survivors,
    backend: str,
) -> Dict[int, Set[int]]:
    """Similar-edge adjacency of one component (original vertex ids)."""
    if backend == "csr":
        # Alive neighbours of a component member are in the same
        # component, so masking by the k-core survivors is exactly the
        # ``& comp`` restriction of the python path.
        adj: Dict[int, Set[int]] = {}
        for u in comp:
            nbrs = filtered.neighbors(u)
            adj[u] = set(nbrs[survivors[nbrs]].tolist())
        return adj
    return {u: filtered.neighbors(u) & comp for u in comp}


def component_index(
    graph: Union[AttributedGraph, CSRGraph],
    predicate: SimilarityPredicate,
    comp: Set[int],
    backend: str,
):
    """Per-component dissimilarity index (attribute source: the raw graph)."""
    return build_index(graph, predicate, comp, backend=backend)


def component_edges_key(adj: Dict[int, Set[int]]) -> FrozenSet:
    """Canonical hashable view of a component's similar-edge set.

    Part of a prepared component's *signature* — the exact engine inputs
    (vertex set, similar edges, dissimilar pairs) that key the session's
    cross-edit result cache and let the maintenance layer decide which
    cached results an edit actually invalidated.
    """
    return frozenset(
        (u, v) if u < v else (v, u)
        for u in adj
        for v in adj[u]
    )


def component_edges_key_csr(comp: Set[int], filtered, survivors) -> bytes:
    """CSR form of :func:`component_edges_key`: one vectorised gather.

    The component's similar-edge list is cut straight from the filtered
    CSR arrays in canonical (sorted ``u``, then sorted ``v``, ``u < v``)
    order and keyed as its raw bytes — the same edge set always yields
    the same key, a different edge set never does.
    """
    members = np.fromiter(comp, dtype=np.int64)
    members.sort()
    counts = filtered.indptr[members + 1] - filtered.indptr[members]
    src = np.repeat(members, counts)
    dst = gather_neighbors(filtered, members)
    keep = survivors[dst] & (src < dst)
    pairs = np.stack([src[keep], dst[keep]])
    return pairs.tobytes()


def max_component_degree(adj: Dict[int, Set[int]]) -> int:
    """Largest in-component degree (0 for an empty component)."""
    return max((len(nbrs) for nbrs in adj.values()), default=0)


def component_arrays(
    graph: CSRGraph,
    predicate: SimilarityPredicate,
    filtered: CSRGraph,
    survivors: np.ndarray,
) -> List[ComponentArrays]:
    """Algorithm 1 line 4 plus every component's preparation, batched.

    The session's one preparation pass per ``(k, r)`` point: the
    survivors are labelled and sorted by component once
    (:func:`~repro.graph.csr.component_order`), one gather over their
    rows yields every component's similar edges and degrees, and one
    all-pairs array pass
    (:func:`~repro.similarity.index.euclidean_dissimilar_pairs`) yields
    every component's dissimilar pairs.  Metrics without an array kernel
    fill the same pair arrays from :func:`component_index`, one
    component at a time.

    Components come in :func:`component_sets` order, and each
    :class:`~repro.core.context.ComponentArrays` holds, as arrays, what
    :func:`component_adjacency`, :func:`component_index`,
    :func:`component_edges_key_csr` and :func:`max_component_degree`
    give for it.  ``graph`` is the attribute source (as for
    :func:`component_index`); ``survivors`` masks the vertices to split
    — the k-core, or a closed region of it.
    """
    verts, starts = component_order(filtered, survivors)
    if verts.size == 0:
        return []
    first = np.repeat(starts[:-1], np.diff(starts))  # component start
    # Similar edges: the survivors' edges to survivors, which stay inside
    # a component.  Positions sort by component, then id, so the entries
    # come out grouped by component and sorted by (src, dst) within it.
    src, dst = induced_entries(filtered, verts)
    max_degree = np.maximum.reduceat(
        np.bincount(src, minlength=verts.size), starts[:-1]
    ).tolist()
    edge_at = np.searchsorted(src, starts).tolist()
    upper = src < dst
    up_at = np.searchsorted(src[upper], starts).tolist()
    up_src, up_dst = verts[src[upper]], verts[dst[upper]]
    src = src - first[src]
    dst = dst - first[dst]

    bounds = starts.tolist()
    count = starts.size - 1
    if predicate.metric is euclidean_distance:
        pair_i, pair_j = euclidean_dissimilar_pairs(
            point_column(graph, verts), starts, predicate.r
        )
        at = np.searchsorted(pair_i, starts).tolist()
        pair_i = pair_i - first[pair_i]
        pair_j = pair_j - first[pair_j]
        pairs = [
            (pair_i[at[c]:at[c + 1]], pair_j[at[c]:at[c + 1]], None)
            for c in range(count)
        ]
    else:
        pairs = [
            _index_pairs(graph, predicate, verts[bounds[c]:bounds[c + 1]])
            for c in range(count)
        ]

    parts = []
    for c, (pi, pj, index) in enumerate(pairs):
        e0, e1 = edge_at[c], edge_at[c + 1]
        u0, u1 = up_at[c], up_at[c + 1]
        parts.append(ComponentArrays(
            verts[bounds[c]:bounds[c + 1]], src[e0:e1], dst[e0:e1], pi, pj,
            np.concatenate((up_src[u0:u1], up_dst[u0:u1])).tobytes(),
            max_degree[c], index=index,
        ))
    return parts


def _index_pairs(graph, predicate: SimilarityPredicate, members: np.ndarray):
    """One component's dissimilar pairs (local ids) through
    :func:`component_index`, with the index itself."""
    index = component_index(graph, predicate, members.tolist(), "csr")
    pairs = np.array(sorted(index.pair_key()), dtype=np.int64).reshape(-1, 2)
    local = np.searchsorted(members, pairs)
    return local[:, 0], local[:, 1], index


def maximum_schedule(
    contexts: List[ComponentContext],
) -> List[ComponentContext]:
    """Bound-sorted order for the maximum solver's batch schedule.

    ``|V|`` is every component's trivial upper bound on its best core,
    so processing larger components first maximises how many later
    components the between-batch ``|component| <= |best|`` termination
    can skip wholesale.  Ties break on the smallest vertex id — fully
    deterministic, backend-independent.
    """
    return sorted(
        contexts, key=lambda ctx: (-len(ctx.vertices), min(ctx.vertices))
    )


def iter_maximum_batches(schedule, current_best, admit=None):
    """Yield :data:`MAXIMUM_BATCH`-wide batches of still-viable components.

    ``current_best`` is a zero-argument callable returning the best core
    so far; components no larger than it are skipped at batch-formation
    time (their ``|M|+|C|`` bound could never win).  ``admit`` optionally
    interposes per-component bookkeeping at formation time (the session
    hooks its result cache in here): a component it returns ``False``
    for is resolved without a search and does not occupy batch width.
    The batch width is fixed — independent of the executor and the
    worker count — so the seeding schedule, and with it every result
    and stats counter, is identical on the serial and process paths.
    """
    pos = 0
    while pos < len(schedule):
        batch = []
        while pos < len(schedule) and len(batch) < MAXIMUM_BATCH:
            item = schedule[pos]
            pos += 1
            best = current_best()
            if best is not None and len(item.vertices) <= len(best):
                continue
            if admit is not None and not admit(item):
                continue
            batch.append(item)
        if batch:
            yield batch


def solve_component_split(
    ctx: ComponentContext,
    seed: Optional[FrozenSet[int]],
    executor,
) -> Optional[FrozenSet[int]]:
    """Maximum search of one component via branch-level work sharing.

    The coordinator expands the top of the branch tree to
    ``config.split_depth`` (:func:`~repro.core.maximum.split_frontier`)
    and the parked subtrees are solved in fixed
    :data:`~repro.core.executor.SPLIT_BATCH`-wide batches — every batch
    member seeded with the best core known *before* the batch, exactly
    the two-phase discipline of the component schedule — so the result
    and the merged stats are a pure function of ``split_depth``,
    identical on the inline and process paths.  ``stats.shared_bound``
    records the size of the best core the split search ends with.
    """
    cfg = ctx.config
    stats = ctx.stats
    budget = ctx.budget
    best, frames = split_frontier(ctx, seed, cfg.split_depth)
    if not frames:
        return best
    for at in range(0, len(frames), SPLIT_BATCH):
        batch_seed = best
        batch = frames[at:at + SPLIT_BATCH]
        if executor is None:
            # Inline: subtrees share this run's stats and budget directly;
            # each gets a fresh rng (the same one its task twin would get)
            # so the split schedule is executor-independent.
            founds = []
            for frame in batch:
                sub = copy.copy(ctx)
                sub.rng = random.Random(cfg.seed)
                founds.append(solve_subtree(sub, frame, batch_seed))
        else:
            tasks = [
                task_from_context(
                    at + j, ctx, "maximum", seed_best=batch_seed,
                    time_left=remaining_time(budget), frame=frame,
                )
                for j, frame in enumerate(batch)
            ]
            founds = []
            for out in executor.run(tasks):
                merge_outcome(out, stats, cfg.node_limit)
                founds.append(out.result)
        for found in founds:
            if improves(found, batch_seed) and (
                best is None or len(found) > len(best)
            ):
                best = found
    stats.shared_bound = max(stats.shared_bound, len(best) if best else 0)
    return best


def improves(found: Optional[FrozenSet[int]], seed: Optional[FrozenSet[int]]) -> bool:
    """Whether an engine return is a genuine improvement over its seed.

    The engine hands back the seed itself when the component holds
    nothing larger, so "found a better core" means strictly larger than
    the seed (any strictly-larger return is the component's true
    maximum — sound bounds never prune a larger core).
    """
    return found is not None and (seed is None or len(found) > len(seed))
