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
from repro.graph.csr import CSRGraph
from repro.similarity.index import edge_profile_similarities, squared_edge_lengths
from repro.similarity.metrics import (
    MetricKind,
    euclidean_distance,
    jaccard,
    weighted_jaccard,
)
from repro.similarity.threshold import SimilarityPredicate


def _check_csr(graph, backend: str, where: str) -> None:
    if backend not in ("csr",):
        raise InvalidParameterError(
            f"{where} supports only backend='csr', got {backend!r}"
        )
    if not isinstance(graph, CSRGraph):
        raise InvalidParameterError(f"{where} needs a CSRGraph")


class EdgeSimilarityCache:
    """Per-edge metric values of one frozen graph under one metric.

    The dissimilar-edge deletion of Algorithm 1 (line 1) evaluates the
    metric on every edge; across an r-sweep only the threshold
    *comparison* changes.  This cache computes the per-edge values once —
    vectorised where the metric allows it — and materialises the filtered
    graph at any threshold with :meth:`filtered_at`.

    The keep decisions are identical to
    :func:`~repro.similarity.index.remove_dissimilar_edges_csr` at every
    threshold: the same scalar metric calls or the same vectorised value
    computations decide, including the borderline re-check band of the
    squared-distance geo path.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.csr.CSRGraph` whose edges are scored.
    predicate:
        Supplies the metric and comparison direction; its own ``r`` is
        ignored.
    backend:
        Only ``"csr"`` is accepted; any other value raises
        :class:`~repro.exceptions.InvalidParameterError`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        predicate: SimilarityPredicate,
        backend: str = "csr",
    ):
        _check_csr(graph, backend, "EdgeSimilarityCache")
        self._predicate = predicate
        self._bind(graph)
        eu, ev, live = self._eu, self._ev, self._live
        if eu.size == 0:
            self._mode = "scalar"
            self._values = np.zeros(0, dtype=np.float64)
            return
        if (
            predicate.metric is euclidean_distance
            and predicate.kind is MetricKind.DISTANCE
        ):
            # Squared pairwise distances, exactly as the one-shot filter
            # computes them; thresholds re-use them with the same 1-ulp
            # borderline re-check through the scalar predicate.
            self._mode = "euclid2"
            self._values = squared_edge_lengths(graph, eu, ev, self._base)
            return
        if (
            predicate.metric in (jaccard, weighted_jaccard)
            and predicate.kind is MetricKind.SIMILARITY
        ):
            sims = edge_profile_similarities(graph, eu, ev, live, predicate)
            if sims is not None:
                self._mode = "sims"
                self._values = sims
                return
        self._mode = "scalar"
        self._values = np.array(
            [
                predicate.value(
                    graph.attribute(int(eu[i])), graph.attribute(int(ev[i]))
                )
                for i in live.tolist()
            ],
            dtype=np.float64,
        )

    def _bind(self, csr: CSRGraph) -> None:
        """Point the cache at ``csr``: its edge arrays, their encoded
        ``(u, v)`` keys (strictly increasing in edge order), the
        both-endpoints-attributed mask and the live edge ids.  Build,
        :meth:`refresh` and :meth:`from_payload` all start here; only the
        values differ."""
        self._csr = csr
        eu, ev = csr.edge_array()
        self._eu, self._ev = eu, ev
        self._keys = eu * csr.vertex_count + ev
        if eu.size == 0:
            self._base = np.zeros(0, dtype=bool)
            self._live = np.zeros(0, dtype=np.int64)
            return
        has = csr.attribute_mask()
        self._base = has[eu] & has[ev]
        self._live = np.nonzero(self._base)[0]

    def _keep(self, r: float, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Keep decision at threshold ``r`` of every edge, or of the edge
        ids ``ids`` (:meth:`CSRGraph.edge_array` order).

        The one comparison path: :meth:`filtered_at`,
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
    # Incremental refresh (streaming-edit maintenance)
    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: CSRGraph,
        *,
        added_edges: Iterable[Tuple[int, int]] = (),
        dirty_vertex: Optional[int] = None,
    ) -> None:
        """Bring the cache in step with an edited graph, re-scoring only
        what changed.

        ``graph`` is the post-edit CSR.  ``added_edges`` are the
        structural insertions (a removed edge needs no re-scoring: its
        value is simply not carried over); ``dirty_vertex`` marks an
        attribute edit, so only its incident edge values are
        recomputed.  Untouched values are carried over verbatim — after
        a refresh the cache is value-identical to one built fresh on the
        edited graph.
        """
        predicate = self._predicate
        old_live, old_keys = self._live, self._keys
        old_values, old_mode = self._values, self._mode
        self._bind(graph)
        eu, ev, live, key_new = self._eu, self._ev, self._live, self._keys
        n = graph.vertex_count
        if eu.size == 0:
            self._values = np.zeros(0, dtype=np.float64)
            return
        dirty = np.zeros(eu.size, dtype=bool)
        if dirty_vertex is not None:
            dirty |= (eu == dirty_vertex) | (ev == dirty_vertex)
        for a, b in added_edges:
            lo, hi = (a, b) if a < b else (b, a)
            pos = int(np.searchsorted(key_new, lo * n + hi))
            if pos < key_new.size and int(key_new[pos]) == lo * n + hi:
                dirty[pos] = True
        # Keys are strictly increasing in edge order on both sides, so
        # carried-over values resolve by searchsorted.
        if old_mode == "euclid2":
            # Full-length squared distances; carry clean matches, recompute
            # the rest with the same vectorised expression as the fill.
            values = np.full(eu.size, np.nan, dtype=np.float64)
            if old_keys.size:
                pos = np.searchsorted(old_keys, key_new)
                pos_c = np.minimum(pos, old_keys.size - 1)
                carry = (old_keys[pos_c] == key_new) & ~dirty
                values[carry] = old_values[pos_c[carry]]
            redo = np.nonzero(np.isnan(values) & self._base)[0]
            if redo.size:
                values[redo] = squared_edge_lengths(
                    graph, eu[redo], ev[redo], np.ones(redo.size, dtype=bool)
                )
            self._values = values
            return
        # "sims" / "scalar": values aligned with the live edge list.
        values = np.full(live.size, np.nan, dtype=np.float64)
        if old_live.size and live.size:
            old_live_keys = old_keys[old_live]
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
                got = edge_profile_similarities(graph, eu, ev, redo, predicate)
            if got is not None:
                values[redo_local] = got
            else:
                for t, i in zip(redo_local.tolist(), redo.tolist()):
                    values[t] = predicate.value(
                        graph.attribute(int(eu[i])), graph.attribute(int(ev[i]))
                    )
        self._values = values

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Portable snapshot of the cached per-edge metric values.

        The payload carries only the *values*; the structural arrays are
        recomputed deterministically from the graph on restore, so a
        payload is valid exactly for the graph it was computed on —
        :meth:`from_payload` validates the alignment and the store's
        fingerprint checks guarantee it.
        """
        return {
            "backend": "csr",
            "mode": self._mode,
            "values": np.ascontiguousarray(self._values, dtype=np.float64),
        }

    @classmethod
    def from_payload(
        cls,
        graph: CSRGraph,
        predicate: SimilarityPredicate,
        payload: Dict[str, object],
    ) -> "EdgeSimilarityCache":
        """Rebuild a cache from :meth:`to_payload` output without
        re-evaluating the metric.

        ``graph`` must be the same frozen graph the payload was computed
        on; mismatched payloads — including the ``"python"`` edge-list
        payloads of older releases — raise
        :class:`~repro.exceptions.InvalidParameterError`.
        """
        _check_csr(graph, str(payload.get("backend")), "edge-value payload")
        mode = payload.get("mode")
        if mode not in ("euclid2", "sims", "scalar"):
            raise InvalidParameterError(
                f"unknown edge-value payload mode {mode!r}"
            )
        cache = cls.__new__(cls)
        cache._predicate = predicate
        cache._bind(graph)
        if cache._eu.size == 0:
            cache._mode = "scalar"
            cache._values = np.zeros(0, dtype=np.float64)
            return cache
        cache._mode = mode
        values = np.ascontiguousarray(payload["values"], dtype=np.float64)
        expected = cache._eu.size if mode == "euclid2" else cache._live.size
        if values.ndim != 1 or values.size != expected:
            raise InvalidParameterError(
                f"edge-value payload has {values.size} values, the "
                f"graph needs {expected} — stale payload?"
            )
        cache._values = values
        return cache

    # ------------------------------------------------------------------
    # Decisions and filtered graphs
    # ------------------------------------------------------------------
    def decisions(self, pairs: Iterable[Tuple[int, int]], r: float) -> List[bool]:
        """Keep/drop decision for each vertex pair at threshold ``r``.

        Pairs that are not current edges, or whose endpoints lack an
        attribute, come back ``False`` — exactly the edges
        :meth:`filtered_at` would omit.  Decisions replicate the one-shot
        filter bit-for-bit, including the squared-distance borderline
        re-check band of the geo path.
        """
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

    def filtered_within(self, r: float, mask: np.ndarray) -> CSRGraph:
        """The filtered graph at ``r`` restricted to the vertices of ``mask``.

        Keeps the edges whose two endpoints are in ``mask`` and that
        :meth:`filtered_at` keeps, deciding each through the same
        comparison path, and gathers only the masked rows
        (:meth:`CSRGraph.filter_induced`).  When ``mask`` holds a looser
        threshold's core, the k-core of the result equals the k-core of
        :meth:`filtered_at` for every ``k`` that core was peeled at or
        above.
        """
        return self._csr.filter_induced(mask, lambda ids: self._keep(r, ids))

    def filtered_at(self, r: float) -> CSRGraph:
        """The graph with every edge dissimilar at threshold ``r`` deleted."""
        return self._csr.filter_edges(self._keep(r))
