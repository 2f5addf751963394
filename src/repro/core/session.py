"""Prepared-graph query sessions: amortised (k,r)-core mining.

The one-shot entry points of :mod:`repro.core.api` re-run Algorithm 1's
whole front end — dissimilar-edge deletion, k-core peel, component
split, index build — on every call, even when the caller queries the
same graph at ten different ``(k, r)`` settings (exactly the workload of
the paper's Figures 7, 13 and 14).  :class:`KRCoreSession` freezes a
graph once and serves repeated queries against layered caches:

* **edge-value layer** — per metric, the metric value of every edge is
  computed once (:class:`~repro.similarity.cache.EdgeSimilarityCache`);
  each threshold ``r`` re-*compares* instead of re-*computing*, and the
  resulting filtered graph is cached per ``(metric, r)``;
* **threshold seeding** — a looser threshold (larger distance, smaller
  similarity) only adds edges and k-cores are nested, so the ``(k, r)``
  core lies inside every cached core at ``k' <= k`` and a threshold at
  least as loose.  A new point peels from the smallest such core, and a
  new ``r`` filters only inside it — that core's rows and edges, not the
  graph.  Such a restricted filtered graph records its seed's ``k'``
  and serves later queries at ``r`` only for ``k >= k'``; an edit drops
  it and the next query re-derives it;
* **survivor layer** — k-core peels are cached per ``(metric, r)``,
  with their sizes, and seeded as above; each ``(metric, r, k)`` point's
  components, with their similar edges and dissimilar pairs (Algorithm 1
  lines 1–4), are cached with them, so repeating a point skips
  preprocessing entirely.  One batched pass
  (:func:`~repro.core.solver.component_arrays`) prepares every
  component of a point as arrays; the dict adjacency and index are
  built only for components something reads them from;
* **result layer** — per-component solver results are cached under a
  sound component signature (vertex set, similar-edge set,
  dissimilar-pair set: exactly the engines' inputs), so repeating a
  query does zero search work, sweep points that induce the same
  similarity structure share results, and :meth:`edit` invalidates only
  the components an edit actually touches.

All reuse is observable through the ``cache_hits`` / ``cache_misses`` /
``reused_*`` / ``seeded_peels`` / ``threshold_seeds`` counters on
:class:`~repro.core.stats.SearchStats`.  This pipeline is the one front
end: ``SearchConfig.backend`` picks only the search engine that reads
its prepared components, so the preprocessing caches are shared by both
engines and only result-cache keys carry the backend.  Results are
identical to the one-shot API; the one-shot functions are themselves
thin wrappers over a throwaway session.  See README "Sessions and
repeated queries".
"""

from __future__ import annotations

import random
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import (
    QUERY_MODES,
    ExecutionPlan,
    SearchConfig,
    adv_enum_config,
    resolve_enum_config,
    resolve_execution_plan,
    resolve_max_config,
)
from repro.core.context import Budget, ComponentArrays, ComponentContext
from repro.core.executor import (
    component_sort_key,
    component_task,
    make_executor,
    merge_outcome,
    raise_for_outcome,
    remaining_time,
)
from repro.core.heuristics import greedy_core_in_component
from repro.core.maintenance import MaintenanceStats, maintain_session
from repro.core.maximum import find_maximum_in_component
from repro.core.results import (
    KRCore,
    MaximumOutcome,
    TopCoresOutcome,
    summarize_cores,
)
from repro.core.solver import (
    component_arrays,
    freeze_graph,
    improves,
    iter_maximum_batches,
    kcore_survivors,
    maximum_schedule,
    resolve_engine,
    solve_component_split,
)
from repro.core.stats import SearchStats
from repro.exceptions import InvalidParameterError, SearchBudgetExceeded
from repro.graph.attributed_graph import AttributedGraph, check_edge, check_vertex
from repro.graph.csr import CSRGraph, apply_step, edit_steps
from repro.similarity.cache import EdgeSimilarityCache
from repro.similarity.metrics import MetricKind
from repro.similarity.threshold import SimilarityPredicate

#: ``(metric callable, comparison direction)`` — the cache dimension a
#: predicate contributes besides its threshold.
MetricKey = Tuple[Callable, Any]

#: The dict-graph mutator of each :func:`~repro.graph.csr.edit_steps` kind.
_DICT_STEPS = {
    "add_edge": AttributedGraph.add_edge,
    "remove_edge": AttributedGraph.remove_edge,
    "attribute": AttributedGraph.set_attribute,
}


def _positive_k(k: Any) -> int:
    """``k`` as a plain ``int``, or :class:`InvalidParameterError`.

    Integral values (``3``, ``np.int64(3)``, ``3.0``) normalise to
    ``int`` before any cache key is made; ``bool`` and non-integral
    values are refused rather than truncated.
    """
    try:
        value = int(k)
    except (TypeError, ValueError, OverflowError):
        value = None
    if isinstance(k, (bool, np.bool_)) or value is None or value != k or value < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    return value


def resolve_enumeration_setup(
    algorithm: str, config: Optional[SearchConfig]
) -> Tuple[str, SearchConfig]:
    """Map a Table-2 algorithm name (or explicit config) to (engine, config)."""
    key = algorithm.lower()
    if config is not None:
        return "engine", config
    if key == "naive":
        return "naive", adv_enum_config()  # engine ignores technique flags
    if key in ("clique", "clique+"):
        return "clique", adv_enum_config()
    return "engine", resolve_enum_config(key)


def prepare_components(
    graph: Union[AttributedGraph, CSRGraph],
    k: int,
    predicate: SimilarityPredicate,
    config: SearchConfig,
    stats: SearchStats,
    budget: Budget,
) -> List[ComponentContext]:
    """One :class:`ComponentContext` per connected k-core component.

    Algorithm 1 lines 1–4 as a throwaway session runs them (the one
    preprocessing pipeline), for callers that drive the per-component
    engines themselves: the fuzz front-end check, kernel benchmarks,
    white-box tests.  ``config`` is handed to every context (its
    ``backend`` picks the engine that later searches it); components
    come in the session's largest-max-degree-first order.
    """
    session = KRCoreSession(graph, copy=False)
    return [
        session._context(part, k, config, stats, budget)
        for part in session._prepare(k, predicate, stats)
    ]


class _PreparedComponent:
    """One component's cached preprocessing output (query-independent).

    The component is held as
    :class:`~repro.core.context.ComponentArrays`: ``adj`` and ``index``
    are read from there, built on first use (the set-based engines and
    pooled tasks read them).  ``bitset`` caches the packed
    :class:`~repro.core.context.BitsetComponentContext` the bitset
    engines build on first use, so repeated queries (and sweep points
    sharing a component) skip the packing pass.
    """

    __slots__ = (
        "vertices", "signature", "max_degree", "csr", "bitset", "arrays",
    )

    def __init__(self, arrays: ComponentArrays, csr):
        self.vertices = frozenset(arrays.verts.tolist())
        self.signature = (self.vertices, arrays.edges_key, arrays.pair_key())
        self.max_degree = arrays.max_degree
        self.csr = csr
        self.bitset = None
        self.arrays = arrays

    @property
    def adj(self):
        return self.arrays.adj

    @property
    def index(self):
        return self.arrays.index


class KRCoreSession:
    """A prepared graph serving repeated (k,r)-core queries.

    Parameters
    ----------
    graph:
        The attributed graph (or an already-frozen
        :class:`~repro.graph.csr.CSRGraph`).  It is frozen once, here,
        and that CSR is the session's one mutable graph: every query, on
        either engine, reads it and every edit patches it.  A dict
        :class:`AttributedGraph` is held beside it only when the caller
        gave one — with ``copy=True`` (the default) a private copy, so
        :meth:`edit` never mutates the caller's object; with
        ``copy=False`` the caller's object, which edits then update in
        place — or once the :attr:`graph` property exported one.  A held
        dict graph receives every edit after the CSR does.
    metric:
        Default metric for queries passing only ``r`` (name or callable,
        default Jaccard); each query may override it.
    config:
        Default :class:`SearchConfig` for every query (per-query
        ``config=`` still wins; ``algorithm=`` presets apply when
        neither is given).
    backend:
        Default search engine (``"csr"``: the bitset engines,
        ``"python"``: the set-based ones); overrides the config's
        backend for every query unless the query passes its own
        ``backend=``.  Preprocessing is the same on both.
    result_cache_limit:
        Maximum number of cached per-component search results (LRU
        eviction), bounding memory on long edit/re-query loops.
    maintenance:
        With ``True`` (the default) single edits patch the preprocessing
        caches in place with bounded-scope incremental maintenance
        (:mod:`repro.core.maintenance`); ``False`` restores the old
        invalidate-and-recompute behaviour (used by the equivalence
        benchmark).  Results are identical either way.

    Usage
    -----
    >>> session = KRCoreSession(g)
    >>> session.enumerate(k=3, r=0.5)       # cold: full preprocessing
    >>> session.enumerate(k=3, r=0.6)       # warm: recompares, re-peels
    >>> session.maximum(k=4, r=0.6)         # warm: seeded peel
    >>> session.sweep(ks=[2, 3], rs=[0.4, 0.5, 0.6])
    """

    def __init__(
        self,
        graph: Union[AttributedGraph, CSRGraph],
        *,
        metric: Union[str, Callable] = "jaccard",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        copy: bool = True,
        result_cache_limit: int = 4096,
        maintenance: bool = True,
    ):
        self._csr: CSRGraph = freeze_graph(graph)
        self._graph: Optional[AttributedGraph] = None
        if not isinstance(graph, CSRGraph):
            self._graph = graph.copy() if copy else graph
        self._default_metric = metric
        self._default_config = config
        self._default_backend = backend
        self._result_limit = result_cache_limit
        self._version = 0       # bumped by every graph edit
        self._prep_version = 0  # version the preprocessing caches match
        # Preprocessing caches — dropped wholesale after any edit.
        self._edge_values: Dict[MetricKey, EdgeSimilarityCache] = {}
        self._filtered: Dict[Tuple[MetricKey, float], CSRGraph] = {}
        # Seed k' of each filtered graph built inside a looser threshold's
        # core (serves only k >= k'); full filtered graphs are absent.
        self._seeded_filters: Dict[Tuple[MetricKey, float], int] = {}
        # Per (metric, r): k -> (survivor mask, its count).
        self._survivors: Dict[
            Tuple[MetricKey, float], Dict[int, Tuple[np.ndarray, int]]
        ] = {}
        # Per (metric, r, k): the point's prepared components.
        self._prepared: Dict[
            Tuple[MetricKey, float, int], List[_PreparedComponent]
        ] = {}
        # Cross-edit cache — guarded by component signatures.
        self._results: Dict[Tuple, Any] = {}
        # Result entries computed since the last save (write-through set
        # for :meth:`save`) and observable eviction counters.
        self._unsaved_results: Set[Tuple] = set()
        self._result_evictions = 0
        # Predicates seen per (metric, r) — the maintenance layer needs
        # them to rebuild component indexes outside a query.
        self._predicates: Dict[Tuple[MetricKey, float], SimilarityPredicate] = {}
        self._maintenance = maintenance
        #: Cumulative counters over every query this session served.
        self.total_stats = SearchStats()
        #: Observable counters of the streaming-edit maintenance layer.
        self.maintenance_stats = MaintenanceStats()

    # ------------------------------------------------------------------
    # Graph access and edits
    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRGraph:
        """The session's current graph in CSR form (read-only).

        Each edit replaces it with a patched copy, so a reference taken
        earlier keeps showing the graph as it was then.
        """
        return self._csr

    @property
    def graph(self) -> AttributedGraph:
        """The session's current graph as a dict :class:`AttributedGraph`
        (treat as read-only; use the mutators).

        The graph the caller gave (or its copy), or else an export of
        :attr:`csr` built on first access; either way later edits keep
        it in step with the CSR.
        """
        if self._graph is None:
            self._graph = self._csr.to_attributed()
        return self._graph

    def add_edge(self, u: int, v: int) -> bool:
        """Insert an edge; returns whether the graph changed."""
        check_edge(u, v, self._csr.vertex_count)
        return not self._csr.has_edge(u, v) and self._apply("add_edge", u, v)

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete an edge; returns whether the graph changed."""
        check_vertex(u, self._csr.vertex_count)
        check_vertex(v, self._csr.vertex_count)
        return self._csr.has_edge(u, v) and self._apply("remove_edge", u, v)

    def set_attribute(self, u: int, value: Any) -> bool:
        """Update a vertex attribute; returns whether the graph changed.

        Re-assigning a vertex's current value is a no-op: every cache is
        left exactly as a fresh session on the same graph would build it,
        instead of being invalidated for nothing.
        """
        check_vertex(u, self._csr.vertex_count)
        if self._csr.has_attribute(u) and self._same_value(
            self._csr.attribute(u), value
        ):
            return False
        return self._apply("attribute", u, value)

    @staticmethod
    def _same_value(a: Any, b: Any) -> bool:
        try:
            return bool(a == b)
        except Exception:
            return False  # incomparable (e.g. array-valued): treat as changed

    def _apply(self, kind: str, u: int, arg: Any) -> bool:
        """Apply one changing :func:`~repro.graph.csr.edit_steps` step to
        the CSR, then to a held dict graph, then to the caches.

        :func:`~repro.core.maintenance.maintain_session` patches every
        cache layer with work bounded by the edit's affected region; when
        it declines (unsupported shape, violated invariant, error), the
        session falls back to the wholesale version bump.
        """
        self._csr = apply_step(self._csr, kind, u, arg)
        if self._graph is not None:
            _DICT_STEPS[kind](self._graph, u, arg)
        v = None if kind == "attribute" else arg
        if not (self._maintenance and maintain_session(self, kind, u, v)):
            self._version += 1
        return True

    def edit(
        self,
        *,
        add_edges: Iterable[Tuple[int, int]] = (),
        remove_edges: Iterable[Tuple[int, int]] = (),
        attributes: Optional[Dict[int, Any]] = None,
    ) -> bool:
        """Apply a batch of edits; returns whether anything changed.

        Duplicate edits, edits that cancel out (insert-then-delete of
        the same edge), and attribute re-assignments of the current
        value all leave the caches exactly as a fresh session on the
        final graph would have them.  Only components actually touched
        by the edits are re-solved by the next query — untouched
        components keep serving from the result cache (their signatures
        are unchanged).
        """
        changed = False
        for kind, u, arg in edit_steps(add_edges, remove_edges, attributes):
            if kind == "add_edge":
                changed = self.add_edge(u, arg) or changed
            elif kind == "remove_edge":
                changed = self.remove_edge(u, arg) or changed
            else:
                changed = self.set_attribute(u, arg) or changed
        return changed

    def drop_results(self) -> None:
        """Clear only the cached per-component search results.

        Preprocessing caches (filtered graphs, survivor sets, prepared
        components) stay — the next query repeats the
        search work but none of the preprocessing.  The differential
        harness uses this to compare a maintained session's
        preprocessing, counter for counter, against a fresh session's.
        """
        self._results.clear()
        self._unsaved_results.clear()

    def invalidate(self) -> None:
        """Drop every cache, including per-component results.

        The next query re-runs preprocessing and search from scratch;
        normally unnecessary (edits invalidate precisely), but useful
        after out-of-band mutation of a ``copy=False`` graph: a held
        dict graph is re-frozen into :attr:`csr`, so such mutations
        reach the queries.
        """
        if self._graph is not None:
            self._csr = freeze_graph(self._graph)
        self._version += 1
        self._results.clear()
        self._unsaved_results.clear()
        self._ensure_fresh()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """JSON-able snapshot of every cache layer's size and traffic.

        The public view the query service's stats endpoint and the
        store's write-through logic consume — callers never need to
        reach into the session's private cache dicts.  Hit/miss counts
        are the cumulative :attr:`total_stats` counters; eviction counts
        are tracked by the LRU layers themselves.
        """
        return {
            "results": {
                "size": len(self._results),
                "limit": self._result_limit,
                "hits": self.total_stats.cache_hits,
                "misses": self.total_stats.cache_misses,
                "evictions": self._result_evictions,
                "unsaved": len(self._unsaved_results),
            },
            "edge_values": {
                "size": len(self._edge_values),
                "entries": sorted(
                    f"{getattr(mkey[0], '__name__', 'custom')}/csr"
                    for mkey in self._edge_values
                ),
            },
            "filtered_graphs": len(self._filtered),
            "survivor_sets": sum(
                len(per_k) for per_k in self._survivors.values()
            ),
            "prepared_components": len(self._prepared),
            "reused": {
                "preprocess": self.total_stats.reused_preprocess,
                "filters": self.total_stats.reused_filters,
                "seeded_peels": self.total_stats.seeded_peels,
                "threshold_seeds": self.total_stats.threshold_seeds,
            },
            "maintenance": self.maintenance_stats.to_dict(),
        }

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    def save(self, store, name: str) -> str:
        """Persist the session's graph and warm state into ``store``.

        Writes the current graph as a snapshot (upsert under ``name``),
        every built-in-metric edge-value cache, and
        all result-cache entries computed since the last save
        (write-through — previously loaded entries are already on disk).
        Entries that cannot be persisted (custom metric callables) are
        skipped, never corrupted.  Returns the graph's fingerprint; all
        derived rows are stored under it, and stale rows are pruned.
        """
        from repro.exceptions import StoreError
        from repro.store import codec

        self._ensure_fresh()
        fp = store.save_graph(name, self._csr)
        for mkey, cache in self._edge_values.items():
            try:
                mname = codec.metric_name(mkey[0])
            except StoreError:
                continue  # custom metric: cannot round-trip a callable
            store.save_edge_metric(name, mname, "csr", cache.to_payload(), fp)
        entries = []
        for key in list(self._unsaved_results):
            value = self._results.get(key)
            if value is None and key not in self._results:
                continue  # evicted (or surgically invalidated) since computed
            entries.append((
                codec.encode_result_key(key),
                codec.encode_result_value(key, value),
            ))
        if entries:
            store.save_results(name, entries, fp)
        self._unsaved_results.clear()
        store.prune(name)
        return fp

    @classmethod
    def load(
        cls,
        store,
        name: str,
        *,
        metric: Union[str, Callable] = "jaccard",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        result_cache_limit: int = 4096,
        maintenance: bool = True,
    ) -> "KRCoreSession":
        """Warm-start a session from a stored graph.

        Restores the graph in CSR form (the snapshot with its pending
        edit-log entries replayed; no dict graph is built), every
        persisted edge-metric value cache, and the result cache — so a
        previously computed query is served with **zero** engine
        invocations (result-cache hits only) and byte-identical results.
        Only rows whose fingerprint matches the stored graph are
        restored; a stale row (post-edit, or written for a different
        graph) is skipped and simply recomputed on demand, and so is an
        edge-metric row an older release wrote for the python backend.
        """
        from repro.exceptions import InvalidParameterError as _IPE
        from repro.exceptions import StoreError
        from repro.store import codec

        session = cls(
            store.load_graph(name),
            metric=metric,
            config=config,
            backend=backend,
            copy=False,
            result_cache_limit=result_cache_limit,
            maintenance=maintenance,
        )
        for mname, _backend, payload in store.load_edge_metrics(name):
            try:
                predicate = SimilarityPredicate(mname, 0.0)
                cache = EdgeSimilarityCache.from_payload(
                    session._csr, predicate, payload
                )
            except (_IPE, StoreError, KeyError):
                continue  # unusable payload: rebuild lazily instead
            session._edge_values[(predicate.metric, predicate.kind)] = cache
        for key_text, value_text in store.load_results(name):
            try:
                key = codec.decode_result_key(key_text)
                value = codec.decode_result_value(value_text)
            except StoreError:
                continue
            session._result_put(key, value, saved=True)
        return session

    def _ensure_fresh(self) -> None:
        if self._prep_version != self._version:
            self._edge_values.clear()
            self._filtered.clear()
            self._seeded_filters.clear()
            self._survivors.clear()
            self._prepared.clear()
            self._prep_version = self._version

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def enumerate(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        with_stats: bool = False,
    ):
        """All maximal (k,r)-cores, sorted by decreasing size.

        Mirrors :func:`repro.core.api.enumerate_maximal_krcores`
        parameter-for-parameter (``plan=`` selects execution); repeated
        queries are served from the session caches (observable via the
        stats reuse counters).
        """
        k = _positive_k(k)
        predicate = self._resolve_predicate(r, metric, predicate)
        engine, cfg = resolve_enumeration_setup(
            algorithm, config if config is not None else self._default_config
        )
        cfg = self._apply_overrides(cfg, backend, plan, time_limit, node_limit)
        cores, stats = self._solve_enumeration(k, predicate, cfg, engine)
        cores.sort(key=lambda c: (-c.size, sorted(c.vertices)))
        self.total_stats.merge(stats)
        if with_stats:
            return cores, stats
        return cores

    def maximum(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        with_stats: bool = False,
    ):
        """The maximum (k,r)-core (``None`` when none exists)."""
        k = _positive_k(k)
        predicate = self._resolve_predicate(r, metric, predicate)
        if config is not None:
            cfg = config
        elif self._default_config is not None:
            cfg = self._default_config
        else:
            cfg = resolve_max_config(algorithm)
        cfg = self._apply_overrides(cfg, backend, plan, time_limit, node_limit)
        core, stats = self._solve_maximum(k, predicate, cfg)
        self.total_stats.merge(stats)
        if with_stats:
            return core, stats
        return core

    def maximum_outcome(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        mode: Optional[str] = None,
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        with_stats: bool = False,
    ):
        """The maximum query with degraded modes and a residual bound.

        ``mode`` (default: the config's ``mode`` field) selects:

        * ``"exact"`` — the full search; a tripped budget raises (or
          honours ``on_budget="partial"``) exactly like :meth:`maximum`.
        * ``"anytime"`` — the full search, but a tripped budget returns
          the best incumbent with ``status="budget"`` and an
          ``upper_bound`` folding in every per-component bound the
          search established before stopping.  When the budget does not
          trip the outcome is the exact answer with ``gap == 0`` —
          byte-identical core, shared result caches.
        * ``"heuristic"`` — only the greedy §8 lower-bound pass per
          component; no branch-and-bound, no exact-result caching.

        Returns a :class:`~repro.core.results.MaximumOutcome` (or
        ``(outcome, stats)`` with ``with_stats=True``).
        """
        k = _positive_k(k)
        predicate = self._resolve_predicate(r, metric, predicate)
        if config is not None:
            cfg = config
        elif self._default_config is not None:
            cfg = self._default_config
        else:
            cfg = resolve_max_config(algorithm)
        cfg = self._apply_overrides(cfg, backend, plan, time_limit, node_limit)
        mode = mode if mode is not None else cfg.mode
        if mode not in QUERY_MODES:
            raise InvalidParameterError(
                f"mode must be one of {QUERY_MODES}, got {mode!r}"
            )

        if mode == "heuristic":
            stats = SearchStats()
            start = time.monotonic()
            budget = Budget(cfg.time_limit, cfg.node_limit)
            parts = self._prepare(k, predicate, stats)
            best: Optional[FrozenSet[int]] = None
            for part in parts:
                found = greedy_core_in_component(
                    self._context(part, k, cfg, stats, budget)
                )
                if found is not None and (
                    best is None or len(found) > len(best)
                ):
                    best = found
            core = KRCore(best, k, predicate.r) if best else None
            upper = self._maximum_upper_bound(
                k, predicate, cfg, len(best) if best else 0, stats
            )
            stats.elapsed = time.monotonic() - start
            self.total_stats.merge(stats)
            outcome = MaximumOutcome(
                core=core, mode=mode, status="heuristic", upper_bound=upper,
            )
            return (outcome, stats) if with_stats else outcome

        run_cfg = cfg.evolve(on_budget="partial") if mode == "anytime" else cfg
        core, stats = self._solve_maximum(k, predicate, run_cfg)
        self.total_stats.merge(stats)
        size = core.size if core is not None else 0
        if stats.timed_out:
            upper = self._maximum_upper_bound(k, predicate, cfg, size, stats)
            status = "budget"
        else:
            upper = size
            status = "exact"
        outcome = MaximumOutcome(
            core=core, mode=mode, status=status, upper_bound=upper,
        )
        return (outcome, stats) if with_stats else outcome

    def _maximum_upper_bound(
        self,
        k: int,
        predicate: SimilarityPredicate,
        cfg: SearchConfig,
        incumbent_size: int,
        stats: SearchStats,
    ) -> int:
        """Residual upper bound on the true maximum size.

        Folds the incumbent with every per-component bound in the
        result cache — ``("exact", core)`` entries contribute their true
        size, ``("atmost", b)`` entries their proven bound, and
        untouched components their vertex count (always sound).
        """
        fp = self._config_fingerprint(cfg)
        parts = self._prepare(k, predicate, stats)
        upper = incumbent_size
        for part in parts:
            entry = self._result_get(("max", fp, k, part.signature))
            if entry is None:
                bound = len(part.vertices)
            else:
                tag, payload = entry
                if tag == "exact":
                    bound = len(payload) if payload is not None else 0
                else:
                    bound = min(payload, len(part.vertices))
            upper = max(upper, bound)
        return upper

    def top_cores(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        t: int = 1,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        with_stats: bool = False,
    ):
        """The ``t`` largest maximal (k,r)-cores, budget-tolerant.

        Runs the enumeration; when the budget trips, the cores the
        completed components found are ranked instead of raising, and
        the outcome carries ``status="budget"`` (larger cores may exist
        in the unsearched components).  Returns a
        :class:`~repro.core.results.TopCoresOutcome`.
        """
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            raise InvalidParameterError(
                f"t must be a positive integer, got {t!r}"
            )
        try:
            cores, stats = self.enumerate(
                k, r, metric=metric, predicate=predicate,
                algorithm=algorithm, config=config, backend=backend,
                plan=plan, time_limit=time_limit, node_limit=node_limit,
                with_stats=True,
            )
        except SearchBudgetExceeded as exc:
            cores, stats = exc.partial
            cores = sorted(cores, key=lambda c: (-c.size, sorted(c.vertices)))
            self.total_stats.merge(stats)
        status = "budget" if stats.timed_out else "exact"
        outcome = TopCoresOutcome(
            cores=list(cores[:t]), t=t, status=status,
            total_found=len(cores),
        )
        return (outcome, stats) if with_stats else outcome

    def statistics(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        with_stats: bool = False,
    ):
        """Count / max size / average size of all maximal (k,r)-cores."""
        cores, stats = self.enumerate(
            k, r, metric=metric, predicate=predicate, algorithm=algorithm,
            config=config, backend=backend, plan=plan,
            time_limit=time_limit, node_limit=node_limit, with_stats=True,
        )
        summary = summarize_cores(cores)
        if with_stats:
            return summary, stats
        return summary

    def memberships(
        self,
        k: int,
        r: Optional[float] = None,
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> Dict[int, int]:
        """``vertex -> number of maximal (k,r)-cores containing it``.

        Vertices in no core are absent from the mapping.
        """
        cores = self.enumerate(
            k, r, metric=metric, predicate=predicate, algorithm=algorithm,
            config=config, backend=backend, plan=plan,
            time_limit=time_limit, node_limit=node_limit,
        )
        counts: Dict[int, int] = {}
        for core in cores:
            for u in core:
                counts[u] = counts.get(u, 0) + 1
        return counts

    def sweep(
        self,
        ks: Sequence[int],
        rs: Sequence[float],
        *,
        metric: Union[str, Callable, None] = None,
        predicate: Optional[SimilarityPredicate] = None,
        algorithm: str = "advanced",
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        plan: Optional[Union[ExecutionPlan, dict]] = None,
        time_limit: Optional[float] = None,
        with_stats: bool = False,
    ):
        """Statistics over the ``ks`` × ``rs`` grid, one row per point.

        Rows are emitted in request order (``for k in ks: for r in rs``)
        but computed threshold-major, loosest threshold first, with ``k``
        ascending: every ``k`` of a threshold shares one filtered graph,
        each peel seeds the next, and every threshold after the first is
        filtered inside the previous one's core (``threshold_seeds``).
        Each row is ``{"k", "r", "count", "max_size", "avg_size"}``.

        On the process executor the whole grid's uncached component
        searches are collected up front, de-duplicated by their exact
        engine-input signature, and fanned into **one** hardness-ordered
        pool pass; the per-point statistics loop then runs entirely from
        the result cache.  Rows are identical to the serial sweep.
        """
        ks = [_positive_k(k_) for k_ in ks]
        rs = list(rs)
        agg = SearchStats()
        engine, cfg = resolve_enumeration_setup(
            algorithm, config if config is not None else self._default_config
        )
        cfg = self._apply_overrides(cfg, backend, plan, time_limit, None)
        if make_executor(cfg) is not None:
            self._sweep_prefill(ks, rs, metric, predicate, engine, cfg, agg)
        rows_by: Dict[Tuple[int, float], Dict[str, float]] = {}
        for r_ in self._loosest_first(rs, metric, predicate):
            for k_ in sorted(set(ks)):
                if (k_, r_) in rows_by:
                    continue
                summary, stats = self.statistics(
                    k_, r_, metric=metric,
                    predicate=(
                        predicate.with_threshold(r_) if predicate is not None
                        else None
                    ),
                    algorithm=algorithm, config=config, backend=backend,
                    plan=plan, time_limit=time_limit, with_stats=True,
                )
                rows_by[(k_, r_)] = {"k": k_, "r": r_, **summary}
                agg.merge(stats)
        rows = [dict(rows_by[(k_, r_)]) for k_ in ks for r_ in rs]
        if with_stats:
            return rows, agg
        return rows

    def _loosest_first(
        self,
        rs: Sequence[float],
        metric: Union[str, Callable, None],
        predicate: Optional[SimilarityPredicate],
    ) -> List[float]:
        """The distinct thresholds of ``rs``, loosest first: descending
        for a distance metric, ascending for a similarity."""
        if not rs:
            return []
        kind = self._sweep_point_predicate(rs[0], metric, predicate).kind
        return sorted(set(rs), reverse=kind is MetricKind.DISTANCE)

    def _sweep_point_predicate(
        self,
        r_: float,
        metric: Union[str, Callable, None],
        predicate: Optional[SimilarityPredicate],
    ) -> SimilarityPredicate:
        """The predicate one sweep grid point resolves to."""
        if predicate is not None:
            return predicate.with_threshold(r_)
        return SimilarityPredicate(metric or self._default_metric, r_)

    def _sweep_prefill(
        self,
        ks: Sequence[int],
        rs: Sequence[float],
        metric: Union[str, Callable, None],
        predicate: Optional[SimilarityPredicate],
        engine: str,
        cfg: SearchConfig,
        agg: SearchStats,
    ) -> None:
        """Solve every uncached component of a sweep grid in one pool pass.

        Walks the grid in the sweep's computation order, preparing each
        point through the layered caches, and collects the component
        searches whose results are not yet cached — keyed by the exact
        engine-input signature, so a component shared by several grid
        points (or several points inducing the same similarity
        structure) is solved exactly once.  Tasks are submitted
        hardest-estimated first; results land in the session result
        cache, from which the per-point statistics loop then serves the
        whole grid.
        """
        executor = make_executor(cfg)
        fp = self._config_fingerprint(cfg)
        budget = Budget(cfg.time_limit, cfg.node_limit)
        pending: Dict[Tuple, Tuple[int, Any]] = {}
        for r_ in self._loosest_first(rs, metric, predicate):
            pred = self._sweep_point_predicate(r_, metric, predicate)
            for k_ in sorted(set(ks)):
                for part in self._prepare(k_, pred, agg):
                    key = ("enum", engine, fp, k_, part.signature)
                    if key in pending or key in self._results:
                        continue
                    pending[key] = (k_, part)
        if not pending:
            return
        items = sorted(
            pending.items(),
            key=lambda kv: component_sort_key(
                len(kv[1][1].vertices),
                kv[1][1].max_degree,
                min(kv[1][1].vertices),
            ),
        )
        tasks = [
            component_task(
                cid, "enumerate", engine, part.vertices, part.adj,
                part.index, k_, cfg, time_left=remaining_time(budget),
                bitset=part.bitset,
            )
            for cid, (_, (k_, part)) in enumerate(items)
        ]
        for (key, _), out in zip(items, executor.run(tasks)):
            agg.merge(out.stats)
            if out.status == "budget":
                # The prefill shares ONE budget window across the whole
                # grid, but the serial sweep gives every point its own —
                # so a prefill trip must not fail (or constrain) the
                # sweep.  Stop prefilling; the per-point loop re-solves
                # whatever is still missing under the exact per-point
                # budget semantics.
                break
            raise_for_outcome(out)  # worker faults are real errors
            agg.cache_misses += 1
            self._result_put(key, out.result)

    # ------------------------------------------------------------------
    # Query plumbing
    # ------------------------------------------------------------------
    def _resolve_predicate(
        self,
        r: Optional[float],
        metric: Union[str, Callable, None],
        predicate: Optional[SimilarityPredicate],
    ) -> SimilarityPredicate:
        if predicate is not None:
            return predicate
        if r is None:
            raise InvalidParameterError(
                "pass either r= (with metric=) or predicate="
            )
        return SimilarityPredicate(metric or self._default_metric, r)

    def _apply_overrides(
        self,
        cfg: SearchConfig,
        backend: Optional[str],
        plan: Optional[Union[ExecutionPlan, dict]],
        time_limit: Optional[float],
        node_limit: Optional[int],
    ) -> SearchConfig:
        backend = backend if backend is not None else self._default_backend
        if backend is not None:
            cfg = cfg.evolve(backend=backend)
        resolved = resolve_execution_plan(plan)
        if resolved is not None:
            cfg = cfg.evolve(plan=resolved)
        if time_limit is not None:
            cfg = cfg.evolve(time_limit=time_limit)
        if node_limit is not None:
            cfg = cfg.evolve(node_limit=node_limit)
        return cfg

    @staticmethod
    def _config_fingerprint(cfg: SearchConfig) -> SearchConfig:
        """Budget- and executor-free view of a config — result-relevant knobs only.

        Budgets never change a *completed* component's result (results
        are cached only after a component finishes searching), and the
        execution layer never changes any result at all, so
        budget-limited/unlimited and serial/parallel runs all share
        cache entries.  ``split_depth`` stays: unlike the executor it
        reshapes the search *schedule* itself (identically on every
        executor), so it is treated as a result-relevant knob and split
        and unsplit runs keep separate entries.
        """
        return cfg.evolve(
            time_limit=None, node_limit=None, on_budget="raise",
            executor="serial", workers=None, mode="exact",
        )

    def _solve_enumeration(
        self,
        k: int,
        predicate: SimilarityPredicate,
        cfg: SearchConfig,
        engine: str,
    ) -> Tuple[List[KRCore], SearchStats]:
        component_fn = resolve_engine(engine)
        executor = make_executor(cfg)
        fp = self._config_fingerprint(cfg)
        stats = SearchStats()
        budget = Budget(cfg.time_limit, cfg.node_limit)
        start = time.monotonic()
        cores: List[KRCore] = []
        founds: Dict[int, List[FrozenSet[int]]] = {}
        try:
            parts = self._prepare(k, predicate, stats)
            # The engines are pure functions of (vertices, adj, index,
            # k, config); the signature captures exactly those, so sweep
            # points that induce the same filtered component and
            # similarity structure share results.
            keys = [("enum", engine, fp, k, part.signature) for part in parts]
            missing: List[int] = []
            for i, part in enumerate(parts):
                found = self._result_get(keys[i])
                if found is not None:
                    stats.cache_hits += 1
                    founds[i] = found
                else:
                    missing.append(i)
            if missing and executor is None:
                for i in missing:
                    ctx = self._context(parts[i], k, cfg, stats, budget)
                    found = component_fn(ctx)
                    parts[i].bitset = ctx.bitset  # keep the packed form warm
                    stats.cache_misses += 1
                    self._result_put(keys[i], found)
                    founds[i] = found
            elif missing:
                tasks = [
                    component_task(
                        i, "enumerate", engine, parts[i].vertices,
                        parts[i].adj, parts[i].index, k, cfg,
                        time_left=remaining_time(budget),
                        bitset=parts[i].bitset,
                    )
                    for i in missing
                ]
                for i, out in zip(missing, executor.run(tasks)):
                    merge_outcome(out, stats, cfg.node_limit)
                    stats.cache_misses += 1
                    self._result_put(keys[i], out.result)
                    founds[i] = out.result
            for i in range(len(parts)):
                for vs in founds[i]:
                    cores.append(KRCore(vs, k, predicate.r))
        except SearchBudgetExceeded:
            stats.timed_out = True
            # Partial results: everything the completed components found
            # (cached entries from this query included), in part order.
            cores = [
                KRCore(vs, k, predicate.r)
                for i in sorted(founds)
                for vs in founds[i]
            ]
            if cfg.on_budget == "raise":
                stats.elapsed = time.monotonic() - start
                raise SearchBudgetExceeded(
                    "enumeration budget exceeded", partial=(cores, stats)
                ) from None
        stats.elapsed = time.monotonic() - start
        return cores, stats

    def _solve_maximum(
        self,
        k: int,
        predicate: SimilarityPredicate,
        cfg: SearchConfig,
    ) -> Tuple[Optional[KRCore], SearchStats]:
        executor = make_executor(cfg)
        fp = self._config_fingerprint(cfg)
        stats = SearchStats()
        budget = Budget(cfg.time_limit, cfg.node_limit)
        start = time.monotonic()
        best: Optional[FrozenSet[int]] = None
        try:
            parts = self._prepare(k, predicate, stats)
            # The solver's two-phase batch schedule (maximum_schedule +
            # iter_maximum_batches) with the result cache interposed at
            # batch-formation time via `admit`: cache hits resolve
            # immediately (and tighten the between-batch termination);
            # the surviving members of a batch solve — concurrently on
            # the process executor — seeded with the best core known
            # when the batch formed.
            cache_info: Dict[int, Tuple[Tuple, Any]] = {}

            def admit(part: _PreparedComponent) -> bool:
                nonlocal best
                seed_size = len(best) if best is not None else 0
                key = ("max", fp, k, part.signature)
                entry = self._result_get(key)
                if entry is not None:
                    tag, payload = entry
                    if tag == "exact":
                        # The component's true maximum is known.
                        stats.cache_hits += 1
                        if payload is not None and len(payload) > seed_size:
                            best = payload
                        return False
                    if payload <= seed_size:
                        # tag == "atmost": the component cannot beat the
                        # current best — skipping matches the engine,
                        # which only ever improves strictly.
                        stats.cache_hits += 1
                        return False
                cache_info[id(part)] = (key, entry)
                return True

            schedule = maximum_schedule(parts)
            for batch in iter_maximum_batches(schedule, lambda: best, admit):
                # Cache hits may have grown `best` mid-formation; drop
                # members that can no longer win before paying a search.
                seed = best
                batch = [
                    part for part in batch
                    if seed is None or len(part.vertices) > len(seed)
                ]
                if not batch:
                    continue
                founds: List[Optional[FrozenSet[int]]] = []
                try:
                    if cfg.split_depth > 0:
                        # Branch-level work sharing: components run
                        # sequentially; each one's branch tree splits
                        # into the parallel units (or an identical
                        # inline schedule when executor is None).
                        for part in batch:
                            ctx = self._context(part, k, cfg, stats, budget)
                            founds.append(
                                solve_component_split(ctx, seed, executor)
                            )
                            part.bitset = ctx.bitset  # keep packed form warm
                            stats.cache_misses += 1
                    elif executor is None:
                        for part in batch:
                            ctx = self._context(part, k, cfg, stats, budget)
                            founds.append(
                                find_maximum_in_component(ctx, seed)
                            )
                            part.bitset = ctx.bitset  # keep packed form warm
                            stats.cache_misses += 1
                    else:
                        tasks = [
                            component_task(
                                i, "maximum", "engine", part.vertices,
                                part.adj, part.index, k, cfg, seed_best=seed,
                                time_left=remaining_time(budget),
                                bitset=part.bitset,
                            )
                            for i, part in enumerate(batch)
                        ]
                        for out in executor.run(tasks):
                            merge_outcome(out, stats, cfg.node_limit)
                            stats.cache_misses += 1
                            founds.append(out.result)
                finally:
                    # Fold (and cache) completed batch-mates even when a
                    # later member tripped the budget mid-batch.
                    for part, found in zip(batch, founds):
                        key, entry = cache_info[id(part)]
                        if improves(found, seed):
                            # A strict improvement over the seed is the
                            # component's true maximum — cacheable
                            # exactly even when a batch-mate beats it
                            # globally.
                            self._result_put(key, ("exact", found))
                            if best is None or len(found) > len(best):
                                best = found
                        elif seed is None:
                            self._result_put(key, ("exact", None))  # no core
                        else:
                            bound = len(seed)
                            if entry is not None and entry[0] == "atmost":
                                bound = min(bound, entry[1])
                            self._result_put(key, ("atmost", bound))
        except SearchBudgetExceeded:
            stats.timed_out = True
            if cfg.on_budget == "raise":
                stats.elapsed = time.monotonic() - start
                partial = KRCore(best, k, predicate.r) if best else None
                raise SearchBudgetExceeded(
                    "maximum search budget exceeded", partial=(partial, stats)
                ) from None
        stats.elapsed = time.monotonic() - start
        if best is None:
            return None, stats
        return KRCore(best, k, predicate.r), stats

    def _context(
        self,
        part: _PreparedComponent,
        k: int,
        cfg: SearchConfig,
        stats: SearchStats,
        budget: Budget,
    ) -> ComponentContext:
        return ComponentContext(
            vertices=part.vertices,
            adj=None,
            index=None,
            k=k,
            config=cfg,
            stats=stats,
            budget=budget,
            rng=random.Random(cfg.seed),
            csr=part.csr,
            bitset=part.bitset,
            arrays=part.arrays,
        )

    # ------------------------------------------------------------------
    # Layered preprocessing
    # ------------------------------------------------------------------
    def _prepare(
        self,
        k: int,
        predicate: SimilarityPredicate,
        stats: SearchStats,
    ) -> List[_PreparedComponent]:
        k = _positive_k(k)
        self._ensure_fresh()
        mkey: MetricKey = (predicate.metric, predicate.kind)
        pkey = (mkey, predicate.r, k)
        parts = self._prepared.get(pkey)
        if parts is not None:
            stats.reused_preprocess += 1
            stats.components = len(parts)
            return parts
        filtered, survivors = self._survivor_set(mkey, predicate, k, stats)
        parts = self._prepared_parts(predicate, filtered, survivors)
        parts.sort(key=lambda part: -part.max_degree)  # stable: ties keep order
        self._prepared[pkey] = parts
        stats.components = len(parts)
        return parts

    def _prepared_parts(
        self,
        predicate: SimilarityPredicate,
        filtered: CSRGraph,
        survivors: np.ndarray,
    ) -> List[_PreparedComponent]:
        """Algorithm 1 line 4 and per-component preparation, in canonical
        component order, from one batched array pass
        (:func:`~repro.core.solver.component_arrays`).

        ``survivors`` is the filtered k-core, or a closed region of it:
        the maintenance layer passes the components an edit touched, so
        the session and maintenance share this one preparation path.
        """
        return [
            _PreparedComponent(arrays, filtered)
            for arrays in component_arrays(
                self._csr, predicate, filtered, survivors
            )
        ]

    # ------------------------------------------------------------------
    # Bounded cross-edit caches (LRU over dict insertion order)
    # ------------------------------------------------------------------
    def _result_get(self, key: Tuple):
        found = self._results.pop(key, None)
        if found is not None:
            self._results[key] = found  # reinsert last = most recently used
        return found

    def _evict_results(self, keys: List[Tuple]) -> int:
        """Drop ``keys`` from the result cache and from the unsaved set,
        whose keys hold component signatures that a long-lived session
        must not keep alive; returns how many."""
        for key in keys:
            self._results.pop(key)
            self._unsaved_results.discard(key)
        return len(keys)

    def _result_put(self, key: Tuple, value, *, saved: bool = False) -> None:
        self._results.pop(key, None)
        self._results[key] = value
        if saved:
            self._unsaved_results.discard(key)
        else:
            self._unsaved_results.add(key)
        while len(self._results) > self._result_limit:
            evicted = next(iter(self._results))
            self._results.pop(evicted)
            self._unsaved_results.discard(evicted)
            self._result_evictions += 1

    def _edge_cache(
        self, mkey: MetricKey, predicate: SimilarityPredicate
    ) -> EdgeSimilarityCache:
        cache = self._edge_values.get(mkey)
        if cache is None:
            cache = EdgeSimilarityCache(self._csr, predicate)
            self._edge_values[mkey] = cache
        return cache

    def _survivor_set(
        self,
        mkey: MetricKey,
        predicate: SimilarityPredicate,
        k: int,
        stats: SearchStats,
    ) -> Tuple[CSRGraph, np.ndarray]:
        """Algorithm 1 lines 1 and 3 at ``(k, r)``: ``(filtered, survivors)``.

        Raising a distance threshold (or lowering a similarity one) only
        adds edges, and k-cores are nested, so the ``(k, r)`` core lies
        inside every cached core at ``k' <= k`` and a threshold at least
        as loose as ``r``.  The peel seeds from the smallest such core.
        When ``r`` has no filtered graph serving ``k`` and a seed exists,
        the filter runs inside the seed only (its rows, its edges) and
        records the seed's ``k'``: that restricted graph serves later
        queries at ``r`` only for ``k >= k'``.
        """
        r = predicate.r
        fkey = (mkey, r)
        self._predicates[fkey] = predicate
        per_k = self._survivors.setdefault(fkey, {})
        seed = self._threshold_seed(mkey, r, k)
        filtered = self._filtered.get(fkey)
        if filtered is not None and self._seeded_filters.get(fkey, 0) <= k:
            stats.reused_filters += 1
        elif seed is not None:
            filtered = self._edge_cache(mkey, predicate).filtered_within(
                r, seed[1]
            )
            self._filtered[fkey] = filtered
            self._seeded_filters[fkey] = seed[0]
            stats.threshold_seeds += 1
        else:
            filtered = self._edge_cache(mkey, predicate).filtered_at(r)
            self._filtered[fkey] = filtered
            self._seeded_filters.pop(fkey, None)
        if k in per_k:
            return filtered, per_k[k][0]
        survivors = kcore_survivors(
            filtered, k, "csr", seed=None if seed is None else seed[1]
        )
        if seed is not None:
            stats.seeded_peels += 1
        per_k[k] = (survivors, int(np.count_nonzero(survivors)))
        return filtered, survivors

    def _threshold_seed(
        self, mkey: MetricKey, r: float, k: int
    ) -> Optional[Tuple[int, np.ndarray]]:
        """``(k', survivors)`` of the smallest cached core containing the
        ``(k, r)`` core, or ``None``: same metric, ``k' <= k`` and a
        threshold at least as loose as ``r`` (``r' >= r`` for a
        distance, ``r' <= r`` for a similarity), ``(k, r)`` itself
        excluded.  Sizes are stored beside the sets, so the choice
        recounts nothing.
        """
        similarity = mkey[1] is MetricKind.SIMILARITY
        best = None
        for (mkey0, r0), per_k in self._survivors.items():
            if mkey0 != mkey:
                continue
            if (r0 > r) if similarity else (r0 < r):
                continue
            for k0, (survivors, size) in per_k.items():
                if k0 > k or (k0 == k and r0 == r):
                    continue
                if best is None or size < best[0]:
                    best = (size, k0, survivors)
        return None if best is None else best[1:]
