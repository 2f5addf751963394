"""Traced replay of session queries through the public stage functions.

A :class:`~repro.core.session.KRCoreSession` query runs Algorithm 1's
front end (edge filter, k-core peel, component split, per-component
adjacency and dissimilarity index), packs each component into bitsets
and searches it.  :class:`StageReplay` re-runs the same sequence by
calling the stage functions of :mod:`repro.core.solver`, the edge-value
cache of :mod:`repro.similarity.cache` and the engines directly, with a
span around each call, so every layer's self time and work counts can be
read off without instrumenting the program.  It keeps the same
per-threshold caches a session keeps (filtered graph per ``r``, survivor
masks per ``(r, k)`` seeding larger ``k``), the same signature-keyed
per-component result cache, and runs the maximum search on the solver's
own batch schedule, so it does the work the session does; every traced
pass checks that with :func:`check_same_search`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from common import Outcome, Spans

from repro.core.config import resolve_max_config
from repro.core.context import (
    Budget,
    ComponentContext,
    bitset_context,
    use_bitset_engine,
)
from repro.core.maximum import find_maximum_in_component
from repro.core.session import resolve_enumeration_setup
from repro.core.solver import (
    component_adjacency,
    component_edges_key_csr,
    component_index,
    component_sets,
    freeze_graph,
    improves,
    iter_maximum_batches,
    kcore_survivors,
    max_component_degree,
    maximum_schedule,
    resolve_engine,
)
from repro.core.stats import SearchStats
from repro.similarity.cache import EdgeSimilarityCache
from repro.similarity.threshold import SimilarityPredicate

BACKEND = "csr"


@dataclass
class Part:
    """One prepared component, as the session holds it."""

    vertices: FrozenSet[int]
    adj: dict
    index: object
    csr: object
    signature: tuple
    bitset: object = None


class StageReplay:
    """Replays ``statistics``/``maximum``/``enumerate`` on one graph."""

    def __init__(self, spans: Spans, graph, metric: str):
        self.spans = spans
        with spans.span("core.solver.freeze_s"):
            self.graph = freeze_graph(graph)
        self.metric = metric
        self.max_cfg = resolve_max_config("advanced")
        engine, self.enum_cfg = resolve_enumeration_setup("advanced", None)
        self.enum_fn = resolve_engine(engine)
        self.stats = SearchStats()
        self.max_component = 0
        self._edge_values: Optional[EdgeSimilarityCache] = None
        self._filtered: Dict[float, object] = {}
        self._survivors: Dict[float, Dict[int, object]] = {}
        self._prepared: Dict[tuple, List[Part]] = {}
        self._results: Dict[tuple, object] = {}

    def trace_into(self, spans: Spans) -> None:
        """Record into ``spans`` from here on; the caches stay warm."""
        self.spans = spans
        self.max_component = 0

    def prepare(self, k: int, r: float) -> List[Part]:
        """Algorithm 1 lines 1-4 for ``(k, r)`` (cached like the session)."""
        parts = self._prepared.get((k, r))
        if parts is not None:
            return parts
        sp = self.spans
        predicate = SimilarityPredicate(self.metric, r)
        if self._edge_values is None:
            with sp.span("similarity.edge_cache_s"):
                self._edge_values = EdgeSimilarityCache(
                    self.graph, predicate, backend=BACKEND
                )
        filtered = self._filtered.get(r)
        if filtered is None:
            with sp.span("similarity.filter_s"):
                filtered = self._edge_values.filtered_at(r)
            sp.count("similarity.filtered_edges", filtered.edge_count)
            self._filtered[r] = filtered
        per_k = self._survivors.setdefault(r, {})
        seed_k = max((k0 for k0 in per_k if k0 < k), default=None)
        with sp.span("graph.kcore.peel_s"):
            survivors = kcore_survivors(
                filtered, k, BACKEND, seed=per_k.get(seed_k)
            )
        per_k[k] = survivors
        sp.count("graph.kcore.survivors", int(survivors.sum()))
        with sp.span("graph.components.split_s"):
            comps = component_sets(filtered, survivors, BACKEND)
        sp.count("graph.components.count", len(comps))
        parts = []
        for comp in comps:
            self.max_component = max(self.max_component, len(comp))
            with sp.span("core.solver.adjacency_s"):
                adj = component_adjacency(filtered, comp, survivors, BACKEND)
                edges_key = component_edges_key_csr(comp, filtered, survivors)
                vertices = frozenset(comp)
            with sp.span("similarity.index_s"):
                index = component_index(self.graph, predicate, comp, BACKEND)
                pairs = index.pair_key()
            sp.count("similarity.dissimilar_pairs", len(pairs))
            parts.append(
                Part(vertices, adj, index, filtered, (vertices, edges_key, pairs))
            )
        parts.sort(key=lambda part: -max_component_degree(part.adj))
        self._prepared[(k, r)] = parts
        return parts

    def _context(self, part: Part, k: int, cfg) -> ComponentContext:
        ctx = ComponentContext(
            vertices=part.vertices, adj=part.adj, index=part.index, k=k,
            config=cfg, stats=self.stats,
            budget=Budget(cfg.time_limit, cfg.node_limit),
            rng=random.Random(cfg.seed), csr=part.csr, bitset=part.bitset,
        )
        if ctx.bitset is None and use_bitset_engine(ctx):
            with self.spans.span("core.context.bitset_pack_s"):
                part.bitset = bitset_context(ctx)
        return ctx

    def enumerate(self, k: int, r: float) -> List[FrozenSet[int]]:
        found: List[FrozenSet[int]] = []
        for part in self.prepare(k, r):
            key = ("enum", k, part.signature)
            cached = self._results.get(key)
            if cached is None:
                ctx = self._context(part, k, self.enum_cfg)
                with self.spans.span("core.search.s"):
                    cached = self._results[key] = self.enum_fn(ctx)
            found.extend(cached)
        return found

    def maximum(self, k: int, r: float) -> Optional[FrozenSet[int]]:
        """The session's maximum schedule: cached component answers resolve
        at batch formation, the rest search seeded with the best so far."""
        best: Optional[FrozenSet[int]] = None

        def admit(part: Part) -> bool:
            nonlocal best
            entry = self._results.get(("max", k, part.signature))
            if entry is None:
                return True
            tag, payload = entry
            size = len(best) if best is not None else 0
            if tag == "exact":
                if payload is not None and len(payload) > size:
                    best = payload
                return False
            return payload > size

        schedule = maximum_schedule(self.prepare(k, r))
        for batch in iter_maximum_batches(schedule, lambda: best, admit):
            seed = best
            for part in batch:
                if seed is not None and len(part.vertices) <= len(seed):
                    continue
                ctx = self._context(part, k, self.max_cfg)
                with self.spans.span("core.search.s"):
                    found = find_maximum_in_component(ctx, seed)
                key = ("max", k, part.signature)
                if improves(found, seed):
                    self._results[key] = ("exact", found)
                    if best is None or len(found) > len(best):
                        best = found
                elif seed is None:
                    self._results[key] = ("exact", None)
                else:
                    old = self._results.get(key)
                    bound = len(seed)
                    if old is not None and old[0] == "atmost":
                        bound = min(bound, old[1])
                    self._results[key] = ("atmost", bound)
        return best

    def end_pass(self) -> Tuple[int, int]:
        """Fold this pass's engine counters into the span counts.

        Returns the pass's ``(search nodes, maximal-check nodes)`` for
        :func:`check_same_search`.
        """
        sp, st = self.spans, self.stats
        sp.count("core.search.nodes", st.nodes)
        sp.count("core.search.bound_calls", st.bound_calls)
        sp.count("core.maximal_check.nodes", st.check_nodes)
        self.stats = SearchStats()
        return st.nodes, st.check_nodes


def check_same_search(out: Outcome, replayed: Tuple[int, int], *stats) -> None:
    """Fail the run unless the replay searched what the session did.

    ``stats`` are the session's own :class:`SearchStats` of the same
    queries.  Equal answers cannot show that the replay's copy of the
    session's caches and schedule still matches the program; equal
    search-tree sizes do.
    """
    done = (sum(s.nodes for s in stats), sum(s.check_nodes for s in stats))
    ok = replayed == done
    out.check(ok, f"traced replay searched {replayed} (nodes, check nodes), "
                  f"the session {done}")
    out.failed += not ok
