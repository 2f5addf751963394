"""Per-edge similarity values for threshold sweeps and prepared sessions.

The Figure 7 / 13 / 14 experiments sweep the threshold ``r`` over the
same graph; recomputing every metric value per sweep point is pure
waste, since only the *comparison* changes.
:class:`EdgeSimilarityCache` stores one metric value per *edge* of a
frozen graph, so the dissimilar-edge deletion of Algorithm 1 line 1
becomes a pure comparison pass at every threshold instead of ``O(m)``
metric evaluations.

Used by :class:`repro.core.session.KRCoreSession` (and through it the
multi-threshold profiles of :mod:`repro.core.decomposition`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.similarity.index import edge_profile_similarities, squared_edge_lengths
from repro.similarity.metrics import (
    MetricKind,
    euclidean_distance,
    jaccard,
    weighted_jaccard,
)
from repro.similarity.threshold import SimilarityPredicate


class EdgeSimilarityCache:
    """Per-edge metric values of one frozen graph under one metric.

    The dissimilar-edge deletion of Algorithm 1 (line 1) evaluates the
    metric on every edge; across an r-sweep only the threshold
    *comparison* changes.  This cache computes the per-edge values once —
    vectorised where the metric allows it — and materialises the filtered
    graph at any threshold with :meth:`filtered_at`.

    The keep decisions are identical to
    :func:`repro.similarity.index.remove_dissimilar_edges` (python
    backend) / :func:`~repro.similarity.index.remove_dissimilar_edges_csr`
    (csr backend) at every threshold: the same scalar metric calls or the
    same vectorised value computations decide, including the borderline
    re-check band of the squared-distance geo path.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.csr.CSRGraph` for ``backend="csr"``,
        :class:`~repro.graph.attributed_graph.AttributedGraph` for
        ``backend="python"``.
    predicate:
        Supplies the metric and comparison direction; its own ``r`` is
        ignored.
    """

    def __init__(
        self,
        graph,
        predicate: SimilarityPredicate,
        backend: str = "python",
    ):
        self._backend = backend
        self._predicate = predicate
        if backend == "csr":
            if not isinstance(graph, CSRGraph):
                raise InvalidParameterError(
                    "EdgeSimilarityCache(backend='csr') needs a CSRGraph"
                )
            self._init_csr(graph, predicate)
        else:
            if not isinstance(graph, AttributedGraph):
                raise InvalidParameterError(
                    "EdgeSimilarityCache(backend='python') needs an "
                    "AttributedGraph"
                )
            self._init_python(graph, predicate)

    # ------------------------------------------------------------------
    # CSR backend
    # ------------------------------------------------------------------
    def _init_csr(self, csr: CSRGraph, predicate: SimilarityPredicate) -> None:
        self._csr = csr
        eu, ev = csr.edge_array()
        self._eu, self._ev = eu, ev
        self._keys = eu * csr.vertex_count + ev
        if eu.size == 0:
            self._base = np.zeros(0, dtype=bool)
            self._mode = "scalar"
            self._live = np.zeros(0, dtype=np.int64)
            self._values = np.zeros(0, dtype=np.float64)
            return
        has = csr.attribute_mask()
        self._base = has[eu] & has[ev]
        live = np.nonzero(self._base)[0]
        self._live = live
        if (
            predicate.metric is euclidean_distance
            and predicate.kind is MetricKind.DISTANCE
        ):
            # Squared pairwise distances, exactly as the one-shot filter
            # computes them; thresholds re-use them with the same 1-ulp
            # borderline re-check through the scalar predicate.
            self._mode = "euclid2"
            self._values = squared_edge_lengths(csr, eu, ev, self._base)
            return
        if (
            predicate.metric in (jaccard, weighted_jaccard)
            and predicate.kind is MetricKind.SIMILARITY
        ):
            sims = edge_profile_similarities(csr, eu, ev, live, predicate)
            if sims is not None:
                self._mode = "sims"
                self._values = sims
                return
        self._mode = "scalar"
        self._values = np.array(
            [
                predicate.value(csr.attribute(int(eu[i])), csr.attribute(int(ev[i])))
                for i in live.tolist()
            ],
            dtype=np.float64,
        )

    def _keep(self, r: float, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Keep decision at threshold ``r`` of every edge, or of the edge
        ids ``ids`` (:meth:`CSRGraph.edge_array` order).

        The one comparison path of the csr backend: :meth:`filtered_at`,
        :meth:`filtered_within` and :meth:`decisions` all decide here,
        including the 1-ulp borderline re-check of the squared-distance
        path through the scalar predicate.
        """
        keep = self._base.copy() if ids is None else self._base[ids]
        if keep.size == 0:
            return keep
        if self._mode == "euclid2":
            d2 = self._values if ids is None else self._values[ids]
            r2 = r * r
            with np.errstate(invalid="ignore"):
                near = d2 <= r2 * (1.0 - 1e-12)
                far = d2 > r2 * (1.0 + 1e-12)
            keep &= ~far
            pred_r = self._predicate.with_threshold(r)
            for i in np.nonzero(keep & ~near & ~far)[0].tolist():
                e = i if ids is None else int(ids[i])
                keep[i] = pred_r.similar(
                    self._csr.attribute(int(self._eu[e])),
                    self._csr.attribute(int(self._ev[e])),
                )
            return keep
        if ids is None:
            where, values = self._live, self._values
        else:
            # ``_values`` is aligned with the ascending live edge ids.
            where = np.nonzero(keep)[0]
            values = self._values[np.searchsorted(self._live, ids[where])]
        if self._predicate.kind is MetricKind.SIMILARITY:
            keep[where] = values >= r
        else:
            keep[where] = values <= r
        return keep

    # ------------------------------------------------------------------
    # Python (set-based) backend
    # ------------------------------------------------------------------
    def _init_python(
        self, graph: AttributedGraph, predicate: SimilarityPredicate
    ) -> None:
        self._graph = graph
        self._edges: List[Tuple[int, int]] = []
        values: List[Optional[float]] = []
        for u, v in graph.edges():
            self._edges.append((u, v))
            if not graph.has_attribute(u) or not graph.has_attribute(v):
                values.append(None)  # missing attribute: never similar
            else:
                values.append(
                    predicate.value(graph.attribute(u), graph.attribute(v))
                )
        self._edge_values = values

    # ------------------------------------------------------------------
    # Incremental refresh (streaming-edit maintenance)
    # ------------------------------------------------------------------
    def refresh(
        self,
        graph,
        *,
        added_edges: Iterable[Tuple[int, int]] = (),
        removed_edges: Iterable[Tuple[int, int]] = (),
        dirty_vertex: Optional[int] = None,
    ) -> None:
        """Bring the cache in step with an edited graph, re-scoring only
        what changed.

        ``graph`` is the post-edit substrate (the same kind the cache
        was built from).  ``added_edges`` / ``removed_edges`` are the
        structural deltas; ``dirty_vertex`` marks an attribute edit, so
        only its incident edge values are recomputed.  Untouched values
        are carried over verbatim — after a refresh the cache is
        value-identical to one built fresh on the edited graph.
        """
        if self._backend == "csr":
            self._refresh_csr(graph, added_edges, removed_edges, dirty_vertex)
            return
        self._graph = graph
        predicate = self._predicate

        def value_of(a: int, b: int) -> Optional[float]:
            if not graph.has_attribute(a) or not graph.has_attribute(b):
                return None  # missing attribute: never similar
            return predicate.value(graph.attribute(a), graph.attribute(b))

        for a, b in removed_edges:
            pair = (a, b) if a < b else (b, a)
            try:
                i = self._edges.index(pair)
            except ValueError:
                continue
            self._edges.pop(i)
            self._edge_values.pop(i)
        for a, b in added_edges:
            pair = (a, b) if a < b else (b, a)
            if pair in self._edges:
                continue
            self._edges.append(pair)
            self._edge_values.append(value_of(*pair))
        if dirty_vertex is not None:
            for i, (a, b) in enumerate(self._edges):
                if a == dirty_vertex or b == dirty_vertex:
                    self._edge_values[i] = value_of(a, b)

    def _refresh_csr(
        self,
        csr: CSRGraph,
        added_edges: Iterable[Tuple[int, int]],
        removed_edges: Iterable[Tuple[int, int]],
        dirty_vertex: Optional[int],
    ) -> None:
        predicate = self._predicate
        old_live = self._live
        old_values, old_mode = self._values, self._mode
        key_old = self._keys
        self._csr = csr
        eu, ev = csr.edge_array()
        n = csr.vertex_count
        self._eu, self._ev = eu, ev
        # Encoded (u, v) keys are strictly increasing in edge_array order
        # on both sides, so carried-over values resolve by searchsorted.
        key_new = eu * n + ev
        self._keys = key_new
        if eu.size == 0:
            self._base = np.zeros(0, dtype=bool)
            self._live = np.zeros(0, dtype=np.int64)
            self._values = np.zeros(0, dtype=np.float64)
            return
        has = csr.attribute_mask()
        base = has[eu] & has[ev]
        self._base = base
        live = np.nonzero(base)[0]
        self._live = live
        dirty = np.zeros(eu.size, dtype=bool)
        if dirty_vertex is not None:
            dirty |= (eu == dirty_vertex) | (ev == dirty_vertex)
        for a, b in added_edges:
            lo, hi = (a, b) if a < b else (b, a)
            pos = int(np.searchsorted(key_new, lo * n + hi))
            if pos < key_new.size and int(key_new[pos]) == lo * n + hi:
                dirty[pos] = True
        if old_mode == "euclid2":
            # Full-length squared distances; carry clean matches, recompute
            # the rest with the same vectorised expression as the fill.
            values = np.full(eu.size, np.nan, dtype=np.float64)
            if key_old.size:
                pos = np.searchsorted(key_old, key_new)
                pos_c = np.minimum(pos, key_old.size - 1)
                carry = (key_old[pos_c] == key_new) & ~dirty
                values[carry] = old_values[pos_c[carry]]
            redo = np.nonzero(np.isnan(values) & base)[0]
            if redo.size:
                values[redo] = squared_edge_lengths(
                    csr, eu[redo], ev[redo], np.ones(redo.size, dtype=bool)
                )
            self._values = values
            return
        # "sims" / "scalar": values aligned with the live edge list.
        values = np.full(live.size, np.nan, dtype=np.float64)
        if old_live.size and live.size:
            old_live_keys = key_old[old_live]
            live_keys = key_new[live]
            pos = np.searchsorted(old_live_keys, live_keys)
            pos_c = np.minimum(pos, old_live_keys.size - 1)
            carry = (old_live_keys[pos_c] == live_keys) & ~dirty[live]
            values[carry] = old_values[pos_c[carry]]
        redo_local = np.nonzero(np.isnan(values))[0]
        if redo_local.size:
            redo = live[redo_local]
            got = None
            if old_mode == "sims":
                got = edge_profile_similarities(csr, eu, ev, redo, predicate)
            if got is not None:
                values[redo_local] = got
            else:
                for t, i in zip(redo_local.tolist(), redo.tolist()):
                    values[t] = predicate.value(
                        csr.attribute(int(eu[i])), csr.attribute(int(ev[i]))
                    )
        self._values = values

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Portable snapshot of the cached per-edge metric values.

        The payload carries only the *values* (plus, on the python
        backend, the edge order they are aligned with); the structural
        arrays are recomputed deterministically from the graph on
        restore, so a payload is valid exactly for the graph it was
        computed on — :meth:`from_payload` validates the alignment and
        the store's fingerprint checks guarantee it.
        """
        if self._backend == "csr":
            return {
                "backend": "csr",
                "mode": self._mode,
                "values": np.ascontiguousarray(self._values, dtype=np.float64),
            }
        return {
            "backend": "python",
            "edges": [[u, v] for u, v in self._edges],
            "values": list(self._edge_values),
        }

    @classmethod
    def from_payload(
        cls,
        graph,
        predicate: SimilarityPredicate,
        payload: Dict[str, object],
        backend: str = "python",
    ) -> "EdgeSimilarityCache":
        """Rebuild a cache from :meth:`to_payload` output without
        re-evaluating the metric.

        ``graph`` must be the same frozen graph (same kind as
        ``backend``) the payload was computed on; mismatched payloads
        raise :class:`~repro.exceptions.InvalidParameterError`.
        """
        if payload.get("backend") != backend:
            raise InvalidParameterError(
                f"edge-value payload was built for backend "
                f"{payload.get('backend')!r}, not {backend!r}"
            )
        cache = cls.__new__(cls)
        cache._backend = backend
        cache._predicate = predicate
        if backend == "csr":
            if not isinstance(graph, CSRGraph):
                raise InvalidParameterError(
                    "EdgeSimilarityCache.from_payload(backend='csr') needs "
                    "a CSRGraph"
                )
            mode = payload.get("mode")
            if mode not in ("euclid2", "sims", "scalar"):
                raise InvalidParameterError(
                    f"unknown edge-value payload mode {mode!r}"
                )
            cache._csr = graph
            eu, ev = graph.edge_array()
            cache._eu, cache._ev = eu, ev
            cache._keys = eu * graph.vertex_count + ev
            if eu.size == 0:
                cache._base = np.zeros(0, dtype=bool)
                cache._live = np.zeros(0, dtype=np.int64)
                cache._values = np.zeros(0, dtype=np.float64)
                cache._mode = "scalar"
                return cache
            has = graph.attribute_mask()
            cache._base = has[eu] & has[ev]
            cache._live = np.nonzero(cache._base)[0]
            cache._mode = mode
            values = np.ascontiguousarray(payload["values"], dtype=np.float64)
            expected = eu.size if mode == "euclid2" else cache._live.size
            if values.ndim != 1 or values.size != expected:
                raise InvalidParameterError(
                    f"edge-value payload has {values.size} values, the "
                    f"graph needs {expected} — stale payload?"
                )
            cache._values = values
            return cache
        if not isinstance(graph, AttributedGraph):
            raise InvalidParameterError(
                "EdgeSimilarityCache.from_payload(backend='python') needs "
                "an AttributedGraph"
            )
        cache._graph = graph
        edges = [(int(u), int(v)) for u, v in payload["edges"]]
        values = list(payload["values"])
        if len(edges) != len(values) or set(edges) != set(graph.edges()):
            raise InvalidParameterError(
                "edge-value payload does not match the graph's edge set "
                "— stale payload?"
            )
        cache._edges = edges
        cache._edge_values = values
        return cache

    def decisions(self, pairs: Iterable[Tuple[int, int]], r: float) -> List[bool]:
        """Keep/drop decision for each vertex pair at threshold ``r``.

        Pairs that are not current edges, or whose endpoints lack an
        attribute, come back ``False`` — exactly the edges
        :meth:`filtered_at` would omit.  Decisions replicate the one-shot
        filter bit-for-bit, including the squared-distance borderline
        re-check band of the geo path.
        """
        if self._backend == "csr":
            n = self._csr.vertex_count
            wanted = np.array(
                [a * n + b if a < b else b * n + a for a, b in pairs],
                dtype=np.int64,
            )
            out = np.zeros(wanted.size, dtype=bool)
            if wanted.size and self._keys.size:
                pos = np.minimum(
                    np.searchsorted(self._keys, wanted), self._keys.size - 1
                )
                found = self._keys[pos] == wanted
                out[found] = self._keep(r, pos[found])
            return out.tolist()
        out: List[bool] = []
        similarity = self._predicate.kind is MetricKind.SIMILARITY
        for a, b in pairs:
            pair = (a, b) if a < b else (b, a)
            try:
                i = self._edges.index(pair)
            except ValueError:
                out.append(False)
                continue
            value = self._edge_values[i]
            if value is None:
                out.append(False)
            elif similarity:
                out.append(value >= r)
            else:
                out.append(value <= r)
        return out

    # ------------------------------------------------------------------
    # Shared surface
    # ------------------------------------------------------------------
    def filtered_within(self, r: float, mask: np.ndarray) -> CSRGraph:
        """The filtered graph at ``r`` restricted to the vertices of ``mask``.

        csr backend only.  Keeps the edges whose two endpoints are in
        ``mask`` and that :meth:`filtered_at` keeps, deciding each through
        the same comparison path, and gathers only the masked rows
        (:meth:`CSRGraph.filter_induced`).  When ``mask`` holds a looser
        threshold's core, the k-core of the result equals the k-core of
        :meth:`filtered_at` for every ``k`` that core was peeled at or
        above.
        """
        if self._backend != "csr":
            raise InvalidParameterError(
                "filtered_within needs the csr backend"
            )
        return self._csr.filter_induced(mask, lambda ids: self._keep(r, ids))

    def filtered_at(self, r: float):
        """The graph with every edge dissimilar at threshold ``r`` deleted.

        Returns a :class:`CSRGraph` (csr backend) or a fresh
        :class:`AttributedGraph` copy (python backend) — the same kind
        the one-shot preprocessing produces.
        """
        if self._backend == "csr":
            return self._csr.filter_edges(self._keep(r))
        out = self._graph.copy()
        similarity = self._predicate.kind is MetricKind.SIMILARITY
        for (u, v), value in zip(self._edges, self._edge_values):
            if value is None:
                out.remove_edge(u, v)
            elif similarity:
                if value < r:
                    out.remove_edge(u, v)
            elif value > r:
                out.remove_edge(u, v)
        return out
