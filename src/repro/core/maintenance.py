"""Bounded-scope cache maintenance for streaming graph edits.

:class:`~repro.core.session.KRCoreSession` historically answered every
edit with *invalidate-and-recompute*: bump a version, drop all
preprocessing caches, rebuild the whole front end (edge filter, k-core
peel, component split, index build) on the next query.  Under the
paper's target workload — a social network absorbing a stream of edge
and attribute edits between queries — that re-solves a graph's worth of
untouched structure per edit.

:func:`maintain_session` instead patches every cache layer in place,
with work proportional to the *affected region* of a single edit:

1. **classify** — an attribute edit can only re-score the metric values
   of edges incident to the vertex; an edge edit touches exactly one
   (potential) filtered edge.  The per-metric
   :class:`~repro.similarity.cache.EdgeSimilarityCache` re-scores just
   those values, then re-compares them at each cached threshold ``r``;
   old decisions are read off the materialised filtered graphs, so the
   *filtered-edge delta* per ``(metric, r)`` is exact.
2. **seeded k-peel** — each cached survivor set is updated by
   :func:`~repro.graph.kcore.incremental_kcore_update`: a deletion
   cascade from removed-edge endpoints plus an insertion expansion from
   added-edge endpoints, never scanning beyond the vertices whose core
   membership can actually change.
3. **component patch** — only prepared components containing a touched
   vertex are rebuilt (merge on insert, split on delete), discovered by
   a seeded BFS (:func:`~repro.graph.components.local_components`)
   rather than a full re-split, and re-prepared through the session's
   own preparation path (one batched array pass); untouched components
   keep their objects, signatures, and packed bitsets.
4. **surgical eviction** — cached per-component results are evicted only
   when their component signature (the exact engine inputs) disappeared;
   an edit merging two components evicts the entries of *both*
   predecessors, a split evicts the one predecessor, and a rebuild that
   reproduces an identical signature evicts nothing.  Maximum-mode
   entries are the one exception: any dead signature resets the whole
   family's ``"max"`` entries, because the maximum solver folds exact
   cache hits into its incumbent at batch-formation time and a partial
   cache could award a size tie to a different (equally maximal)
   component than a fresh all-miss run would.

Threshold-seeded entries — filtered graphs the session built inside a
looser threshold's core, with their survivor sets and prepared
components — are not patched: step 0 drops them and evicts their parts'
``"max"`` entries under the same conservative rule (their signatures
may die), and the next query re-derives them from a maintained seed.

Every step is guarded: if an invariant does not hold (or an unexpected
error surfaces), the maintainer reports failure and the session falls
back to the old wholesale invalidation — equivalence between the two
paths is enforced by the edit-stream dimension of the differential fuzz
harness (``scripts/fuzz_krcore.py --edit-streams``).

The signature-keyed result cache is sound under *any* eviction policy (a
stale entry can only be hit when its exact inputs recur, in which case
it is valid), so maintenance here is a precision/performance layer,
never a correctness gate — except that it must keep the preprocessing
caches value-identical to a fresh session's, which is what the fuzz
harness checks counter-for-counter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.bounds import FAULT_ENV
from repro.graph import csr as _csr
from repro.graph.components import local_components
from repro.graph.kcore import incremental_kcore_update


@dataclass
class MaintenanceStats:
    """Observable counters of the maintenance layer (one per session)."""

    edits: int = 0                  #: primitive edits examined
    maintained: int = 0             #: edits absorbed by in-place patches
    fallbacks: int = 0              #: edits answered by wholesale invalidation
    errors: int = 0                 #: unexpected exceptions (also fallbacks)
    filtered_edges_added: int = 0   #: edges that crossed into a filtered graph
    filtered_edges_removed: int = 0  #: edges that crossed out of one
    survivors_removed: int = 0      #: k-core exits across cached survivor sets
    survivors_added: int = 0        #: k-core entries across cached survivor sets
    components_rebuilt: int = 0     #: prepared components re-derived
    components_kept: int = 0        #: prepared components carried untouched
    components_merged: int = 0      #: net component merges observed
    components_split: int = 0       #: net component splits observed
    results_evicted: int = 0        #: result-cache entries surgically evicted

    def to_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def maintain_session(session, kind: str, u: int, v: Optional[int] = None) -> bool:
    """Patch every cache of ``session`` for one already-applied edit.

    ``kind`` is ``"add_edge"`` / ``"remove_edge"`` / ``"attribute"``;
    the session's CSR is already patched (and so is its dict graph, if
    it holds one): maintenance reads neighbours and attributes from that
    CSR and patches the caches only, which are the same for both search
    engines.  Returns ``True``
    when every layer was brought in step (the session must then *not*
    bump its version) and ``False`` when the caller should fall back to
    invalidation.
    """
    ms: MaintenanceStats = session.maintenance_stats
    ms.edits += 1
    if session._prep_version != session._version:
        # Preprocessing caches are already stale from an earlier
        # invalidation; there is nothing coherent to maintain.
        ms.fallbacks += 1
        return False
    try:
        ok = _maintain(session, kind, int(u), None if v is None else int(v), ms)
    except Exception:
        # A partially-patched preprocessing cache is erased by the
        # fallback invalidation; the signature-guarded result cache
        # stays sound under partial updates by construction.
        ms.errors += 1
        ok = False
    if ok:
        ms.maintained += 1
    else:
        ms.fallbacks += 1
    return ok


def _drop_threshold_seeded(session, ms: MaintenanceStats) -> None:
    """Step 0: drop every threshold-seeded filtered graph, its survivor
    sets and prepared components, and the ``"max"`` entries of those
    components (family-wide, as in step 4)."""
    family_sigs = set()
    for fkey in session._seeded_filters:
        del session._filtered[fkey]
        session._survivors.pop(fkey, None)
        for pkey in [p for p in session._prepared if p[:2] == fkey]:
            family_sigs.update(p.signature for p in session._prepared.pop(pkey))
    session._seeded_filters.clear()
    if family_sigs:
        stale_keys = [
            key for key in session._results
            if key[0] == "max" and key[-1] in family_sigs
        ]
        ms.results_evicted += session._evict_results(stale_keys)


def _maintain(session, kind: str, u: int, v: Optional[int], ms: MaintenanceStats) -> bool:
    graph = session.csr
    _drop_threshold_seeded(session, ms)

    # ------------------------------------------------------------------
    # Classify: which vertex pairs can change a keep decision.
    # ------------------------------------------------------------------
    if kind == "attribute":
        dirty_pairs = sorted(
            (u, w) if u < w else (w, u) for w in graph.neighbors(u).tolist()
        )
    elif kind in ("add_edge", "remove_edge"):
        if v is None:
            return False
        dirty_pairs = [(u, v) if u < v else (v, u)]
    else:
        return False

    # Old keep decisions are materialised in the cached filtered graphs;
    # read them before the value caches are refreshed.
    old_keep = {
        fkey: [filtered.has_edge(p[0], p[1]) for p in dirty_pairs]
        for fkey, filtered in session._filtered.items()
    }

    # ------------------------------------------------------------------
    # Edge-value layer: re-score only the dirty pairs.
    # ------------------------------------------------------------------
    for cache in session._edge_values.values():
        cache.refresh(
            graph,
            added_edges=dirty_pairs if kind == "add_edge" else (),
            dirty_vertex=u if kind == "attribute" else None,
        )

    # ------------------------------------------------------------------
    # Filtered layer: exact keep-decision deltas per (metric, r).
    # ------------------------------------------------------------------
    deltas: Dict[Tuple, Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]] = {}
    for fkey in list(session._filtered):
        mkey, _r = fkey
        cache = session._edge_values.get(mkey)
        if cache is None:
            return False
        now_keep = cache.decisions(dirty_pairs, _r)
        adds = [p for p, was, now in zip(dirty_pairs, old_keep[fkey], now_keep)
                if now and not was]
        rems = [p for p, was, now in zip(dirty_pairs, old_keep[fkey], now_keep)
                if was and not now]
        deltas[fkey] = (adds, rems)
        filtered = session._filtered[fkey]
        for pair in adds:
            filtered = _csr.with_edge_added(filtered, *pair)
        for pair in rems:
            filtered = _csr.with_edge_removed(filtered, *pair)
        if kind == "attribute":
            filtered = _csr.with_attribute(filtered, u, graph.attribute(u))
        session._filtered[fkey] = filtered
        ms.filtered_edges_added += len(adds)
        ms.filtered_edges_removed += len(rems)

    # ------------------------------------------------------------------
    # Survivor layer: bounded two-phase peel per cached (r, k).
    # ------------------------------------------------------------------
    inject_stale = os.environ.get(FAULT_ENV) == "stale-survivors"
    surv_deltas: Dict[Tuple, Tuple[Set[int], Set[int]]] = {}
    for fkey, per_k in session._survivors.items():
        adds, rems = deltas.get(fkey, ((), ()))
        filtered = session._filtered.get(fkey)
        if filtered is None:
            return False
        for k, (survivors, size) in per_k.items():
            if (not adds and not rems) or inject_stale:
                surv_deltas[(fkey, k)] = (set(), set())
                continue
            gone, came = incremental_kcore_update(
                filtered, k, survivors, adds, rems
            )
            per_k[k] = (survivors, size - len(gone) + len(came))
            surv_deltas[(fkey, k)] = (gone, came)
            ms.survivors_removed += len(gone)
            ms.survivors_added += len(came)

    # ------------------------------------------------------------------
    # Component layer: rebuild only the parts the edit touched.
    # ------------------------------------------------------------------
    for pkey in list(session._prepared):
        mkey, r, k = pkey
        fkey = (mkey, r)
        parts = session._prepared[pkey]
        adds, rems = deltas.get(fkey, ((), ()))
        gone, came = surv_deltas.get((fkey, k), (set(), set()))
        filtered = session._filtered.get(fkey)
        per_k = session._survivors.get(fkey)
        if filtered is None or per_k is None or k not in per_k:
            return False
        survivors = per_k[k][0]

        def alive(x, _m=survivors):
            return bool(_m[x])

        touched: Set[int] = set()
        for pair in adds:
            touched.update(pair)
        for pair in rems:
            touched.update(pair)
        touched |= gone | came
        if kind == "attribute":
            touched.add(u)
        for x in came:
            # A joiner attaches to (or bridges) existing parts through its
            # filtered neighbours — mark them so those parts rebuild.
            touched.update(filtered.neighbors(x).tolist())

        affected = [p for p in parts if not touched.isdisjoint(p.vertices)]
        # Untouched parts keep their adjacency/bitset (identical in the
        # patched snapshot) but must point at the current filtered CSR.
        for part in parts:
            part.csr = filtered
        if not affected and not came:
            continue

        region: Set[int] = set(came)
        for part in affected:
            region.update(part.vertices)
        region = {x for x in region if alive(x)}
        comps = local_components(filtered, sorted(region), alive)
        for comp in comps:
            if not comp <= region:
                # The affected-region closure was violated — an edit
                # reached structure we did not predict.  Recompute.
                return False

        predicate = session._predicates.get((mkey, r))
        if predicate is None:
            return False
        # The rebuilt components are closed in the k-core, so splitting
        # just their vertices reproduces them exactly.
        rebuilt = _csr.vertex_mask(filtered, set().union(*comps))
        new_parts = session._prepared_parts(predicate, filtered, rebuilt)

        old_sigs = {p.signature for p in affected}
        dead_sigs = old_sigs - {p.signature for p in new_parts}
        if dead_sigs:
            # Enumeration entries merge order-independently, so only the
            # dead signatures' entries go.  Maximum-mode entries are
            # evicted *family-wide*: ``_solve_maximum`` folds an exact
            # cache hit into the incumbent at batch-formation time, so a
            # surviving entry for a schedule-later component could
            # capture a size tie that a fresh (all-miss) run awards to a
            # schedule-earlier one.  Resetting the whole family to
            # all-miss restores fresh-identical tie-breaks; over-eviction
            # is always safe (it costs reuse, never correctness).
            family_sigs = (
                {p.signature for p in parts}
                | {p.signature for p in new_parts}
            )
            stale_keys = [
                key for key in session._results
                if key[-1] in dead_sigs
                or (key[0] == "max" and key[-1] in family_sigs)
            ]
            ms.results_evicted += session._evict_results(stale_keys)
        if len(new_parts) < len(affected):
            ms.components_merged += len(affected) - len(new_parts)
        elif len(new_parts) > len(affected):
            ms.components_split += len(new_parts) - len(affected)
        ms.components_rebuilt += len(new_parts)
        ms.components_kept += len(parts) - len(affected)

        kept = [p for p in parts if touched.isdisjoint(p.vertices)]
        merged = kept + new_parts
        # Reproduce the fresh preparation order exactly: a stable
        # max-degree sort over the canonical (-size, min-id) component
        # order is the same as this one total key.
        merged.sort(
            key=lambda p: (-p.max_degree, -len(p.vertices), min(p.vertices))
        )
        session._prepared[pkey] = merged
    return True
