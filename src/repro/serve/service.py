"""The long-running (k,r)-core query service over a persistent store.

:class:`KRCoreService` is the transport-independent core of the daemon
(:mod:`repro.serve.http` wraps it in a JSON HTTP server; tests drive it
directly).  It owns one warm :class:`~repro.core.session.KRCoreSession`
per stored graph, loaded lazily from the :class:`~repro.store.GraphStore`
and used behind a per-graph lock, so concurrent requests against the
same graph serialise on the session while different graphs proceed in
parallel.  Search execution is selected by an
:class:`~repro.core.config.ExecutionPlan` — a service-level ``plan``
default, overridden by a per-request ``plan`` knob.

Concurrent *identical* read requests are coalesced: the first request
computes, the rest wait on the same in-flight entry and share the
result, so a thundering herd of equal queries costs one computation.
Identity is the canonical JSON of ``(graph, op, params)``; a request
that joins an in-flight computation observes the graph as of that
computation's start (requests are linearised at computation start).

Edits patch the session's CSR graph, apply its incremental maintenance
path (:mod:`repro.core.maintenance`), and append to the persistent edit
log under the edited CSR's fingerprint — the stored fingerprint
advances, so every derived row computed on the pre-edit graph stops
being served at once.  The session's CSR came from the store's load with
its fingerprint's bucket digests (:mod:`repro.graph.fingerprint`) and
each edit re-hashes only the bucket it touches, so an edit's fingerprint
costs a bucket, not a pass over the graph.  A daemon never builds a dict
graph, on either search engine.  :meth:`flush` (and graceful shutdown
via :meth:`close`) write-through the dirty session state.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SearchConfig, resolve_execution_plan
from repro.core.session import KRCoreSession
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    SearchBudgetExceeded,
    ServiceError,
    StoreError,
)
from repro.graph.fingerprint import csr_fingerprint
from repro.store import GraphStore, codec

#: Read operations eligible for request coalescing.
_READ_OPS = ("enumerate", "maximum", "top", "statistics", "sweep")


def _coerce_plan(value: Any) -> dict:
    if not isinstance(value, dict):
        raise ValueError("plan must be a JSON object of ExecutionPlan fields")
    return value


#: Per-request knobs accepted by every query endpoint, with coercers.
#: ``plan`` carries a whole :class:`~repro.core.config.ExecutionPlan`
#: as its field dict.
_QUERY_KNOBS = {
    "metric": str,
    "algorithm": str,
    "backend": str,
    "plan": _coerce_plan,
    "time_limit": float,
    "node_limit": int,
}


class _GraphEntry:
    """One graph's warm session plus its serialisation lock."""

    __slots__ = ("name", "session", "lock", "loaded_at", "dirty")

    def __init__(self, name: str, session: KRCoreSession):
        self.name = name
        self.session = session
        self.lock = threading.RLock()
        self.loaded_at = time.time()
        self.dirty = False


class _Inflight:
    """Rendezvous for coalesced identical requests."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class KRCoreService:
    """Serve enumerate/maximum/statistics/sweep/edit over stored graphs.

    Parameters
    ----------
    store:
        The persistent store (owned by the caller unless ``close`` is
        used, which closes it after flushing).
    plan:
        Default :class:`~repro.core.config.ExecutionPlan` (or its field
        dict) for every query; a request's own ``plan`` replaces it.
    config / backend / metric:
        Session defaults, as in :class:`KRCoreSession`.
    """

    def __init__(
        self,
        store: GraphStore,
        *,
        plan: Optional[Any] = None,
        config: Optional[SearchConfig] = None,
        backend: Optional[str] = None,
        metric: str = "jaccard",
        maintenance: bool = True,
    ):
        self._store = store
        self._plan = resolve_execution_plan(plan)
        self._config = config
        self._backend = backend
        self._metric = metric
        self._maintenance = maintenance
        self._entries: Dict[str, _GraphEntry] = {}
        self._entries_lock = threading.RLock()
        self._inflight: Dict[Tuple, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self.started = time.time()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "coalesced": 0,
            "edits": 0,
            "flushes": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> GraphStore:
        return self._store

    def flush(self, name: Optional[str] = None) -> Dict[str, str]:
        """Write-through warm session state; returns name -> fingerprint."""
        with self._entries_lock:
            entries = [
                e for e in self._entries.values()
                if name is None or e.name == name
            ]
        if name is not None and not entries and not self._store.has_graph(name):
            raise ServiceError(f"no stored graph named {name!r}", status=404)
        out: Dict[str, str] = {}
        for entry in entries:
            with entry.lock:
                out[entry.name] = entry.session.save(self._store, entry.name)
                entry.dirty = False
        self._count("flushes")
        return out

    def close(self) -> None:
        """Graceful shutdown: flush every dirty session, close the store."""
        self.flush()
        self._store.close()

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def handle(self, name: str, op: str, params: Dict[str, Any]) -> Any:
        """Dispatch one request; the single entry point the HTTP layer uses."""
        self._count("requests")
        try:
            if op in _READ_OPS:
                return self._read_op(name, op, params)
            if op == "edit":
                return self.edit(name, params)
            if op == "flush":
                return {"flushed": self.flush(name)}
            if op == "stats":
                return self.graph_stats(name)
            if op == "edits":
                return {"edits": self._edit_log_payload(name)}
            raise ServiceError(f"unknown operation {op!r}", status=404)
        except ServiceError:
            self._count("errors")
            raise
        except (InvalidParameterError, StoreError) as exc:
            self._count("errors")
            raise ServiceError(str(exc), status=400) from exc
        except ReproError as exc:
            self._count("errors")
            raise ServiceError(str(exc), status=500) from exc

    def health(self) -> Dict[str, Any]:
        with self._entries_lock:
            loaded = sorted(self._entries)
        return {
            "ok": True,
            "uptime": time.time() - self.started,
            "graphs": [g["name"] for g in self._store.list_graphs()],
            "loaded": loaded,
            "counters": dict(self.counters),
        }

    def _edit_log_payload(self, name: str) -> List[Dict[str, Any]]:
        """The edit log with attribute values back in tagged JSON form
        (the decoded log holds frozensets, which JSON cannot carry)."""
        rows = []
        for row in self._store.edit_log(name):
            edit = dict(row["edit"])
            edit["attributes"] = {
                str(u): json.loads(codec.encode_attribute(value))
                for u, value in edit["attributes"].items()
            }
            edit["add_edges"] = [list(e) for e in edit["add_edges"]]
            edit["remove_edges"] = [list(e) for e in edit["remove_edges"]]
            rows.append({**row, "edit": edit})
        return rows

    def graph_stats(self, name: str) -> Dict[str, Any]:
        """Cache/stats snapshot for one graph (loads its session)."""
        entry = self._entry(name)
        with entry.lock:
            return {
                "graph": name,
                "fingerprint": self._store.fingerprint(name),
                "dirty": entry.dirty,
                "cache": entry.session.cache_stats(),
                "total_stats": entry.session.total_stats.to_dict(),
                "store": self._store.stats(),
                "counters": dict(self.counters),
            }

    # ------------------------------------------------------------------
    # Reads (coalesced)
    # ------------------------------------------------------------------
    def _read_op(self, name: str, op: str, params: Dict[str, Any]) -> Any:
        key = (name, op, codec.canonical_json(params))
        with self._inflight_lock:
            waiter = self._inflight.get(key)
            leader = waiter is None
            if leader:
                waiter = _Inflight()
                self._inflight[key] = waiter
        if not leader:
            self._count("coalesced")
            waiter.event.wait()
            if waiter.error is not None:
                raise waiter.error
            return waiter.result
        try:
            entry = self._entry(name)
            with entry.lock:
                result = self._dispatch(entry, op, params)
            waiter.result = result
            return result
        except BaseException as exc:
            waiter.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            waiter.event.set()

    def _dispatch(self, entry: _GraphEntry, op: str, params: Dict[str, Any]):
        session = entry.session
        extra = {"maximum": ("mode",), "top": ("t",)}.get(op, ())
        kwargs = self._query_kwargs(params, extra=extra)
        with_stats = bool(params.get("with_stats", False))
        if op == "sweep":
            ks = params.get("ks")
            rs = params.get("rs")
            if not isinstance(ks, list) or not isinstance(rs, list):
                raise ServiceError("sweep needs list parameters ks and rs")
            rows, stats = session.sweep(
                [int(k) for k in ks], [float(r) for r in rs],
                with_stats=True, **kwargs,
            )
            out: Dict[str, Any] = {"rows": rows}
            if with_stats:
                out["stats"] = stats.to_dict()
            entry.dirty = True
            return out
        k = params.get("k")
        r = params.get("r")
        if k is None or r is None:
            raise ServiceError(f"{op} needs parameters k and r")
        k, r = int(k), float(r)
        if op == "enumerate":
            cores, stats = session.enumerate(k, r, with_stats=True, **kwargs)
            out = {
                "k": k, "r": r,
                "count": len(cores),
                "cores": [sorted(core.vertices) for core in cores],
            }
        elif op == "maximum":
            mode = params.get("mode")
            if mode is not None:
                # Degraded-capable path: anytime/heuristic answers carry
                # their status and residual bound gap.
                try:
                    outcome, stats = session.maximum_outcome(
                        k, r, mode=str(mode), with_stats=True, **kwargs
                    )
                    payload = outcome.to_dict()
                    payload["core"] = payload["vertices"]
                except SearchBudgetExceeded as exc:
                    # mode="exact" with a raising budget still surfaces
                    # the incumbent the session holds, never a bare 500.
                    core, stats = exc.partial
                    payload = {
                        "mode": str(mode), "status": "budget",
                        "size": core.size if core is not None else 0,
                        "core": (
                            sorted(core.vertices)
                            if core is not None else None
                        ),
                    }
                out = {"k": k, "r": r, **payload}
            else:
                try:
                    core, stats = session.maximum(
                        k, r, with_stats=True, **kwargs
                    )
                    status = "ok"
                except SearchBudgetExceeded as exc:
                    core, stats = exc.partial
                    status = "budget"
                out = {
                    "k": k, "r": r,
                    "status": status,
                    "core": (
                        sorted(core.vertices) if core is not None else None
                    ),
                    "size": core.size if core is not None else 0,
                }
        elif op == "top":
            t = params.get("t", 1)
            if isinstance(t, bool) or not isinstance(t, int) or t < 1:
                raise ServiceError(
                    f"parameter 't' must be a positive integer, got {t!r}"
                )
            outcome, stats = session.top_cores(
                k, r, t=t, with_stats=True, **kwargs
            )
            out = {"k": k, "r": r, **outcome.to_dict()}
        else:  # statistics
            summary, stats = session.statistics(k, r, with_stats=True, **kwargs)
            out = {"k": k, "r": r, **summary}
        if with_stats:
            out["stats"] = stats.to_dict()
        entry.dirty = True
        return out

    def _query_kwargs(
        self, params: Dict[str, Any], extra: Tuple[str, ...] = ()
    ) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        for knob, coerce in _QUERY_KNOBS.items():
            value = params.get(knob)
            if value is not None:
                try:
                    kwargs[knob] = coerce(value)
                except (TypeError, ValueError):
                    raise ServiceError(
                        f"parameter {knob!r} has invalid value {value!r}"
                    ) from None
        if "plan" not in kwargs and self._plan is not None:
            kwargs["plan"] = self._plan
        unknown = (
            set(params)
            - set(_QUERY_KNOBS)
            - {"k", "r", "ks", "rs", "with_stats"}
            - set(extra)
        )
        if unknown:
            raise ServiceError(f"unknown parameters: {sorted(unknown)}")
        return kwargs

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def edit(self, name: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a batch edit, maintain the session, persist the log.

        ``params`` carries ``add_edges`` / ``remove_edges`` as pair
        lists and ``attributes`` as ``{vertex: tagged-value}`` using the
        store codec's tagged encoding (e.g. ``["set", ["a", "b"]]``).
        """
        unknown = set(params) - {"add_edges", "remove_edges", "attributes"}
        if unknown:
            raise ServiceError(f"unknown edit fields: {sorted(unknown)}")
        add_edges = [
            (int(u), int(v)) for u, v in params.get("add_edges", [])
        ]
        remove_edges = [
            (int(u), int(v)) for u, v in params.get("remove_edges", [])
        ]
        attributes = {
            int(u): codec.decode_attribute(codec.canonical_json(value))
            for u, value in (params.get("attributes") or {}).items()
        }
        self._count("edits")
        entry = self._entry(name)
        with entry.lock:
            changed = entry.session.edit(
                add_edges=add_edges,
                remove_edges=remove_edges,
                attributes=attributes,
            )
            if changed:
                fp = csr_fingerprint(entry.session.csr)
                seq = self._store.record_edit(
                    name,
                    codec.encode_edit(add_edges, remove_edges, attributes),
                    fp,
                )
                entry.dirty = True
            else:
                fp = self._store.fingerprint(name)
                seq = None
            return {
                "changed": changed,
                "seq": seq,
                "fingerprint": fp,
                "maintenance": entry.session.maintenance_stats.to_dict(),
            }

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _GraphEntry:
        with self._entries_lock:
            entry = self._entries.get(name)
            if entry is not None:
                return entry
            if not self._store.has_graph(name):
                raise ServiceError(
                    f"no stored graph named {name!r}", status=404
                )
            session = KRCoreSession.load(
                self._store, name,
                metric=self._metric,
                config=self._config,
                backend=self._backend,
                maintenance=self._maintenance,
            )
            entry = _GraphEntry(name, session)
            self._entries[name] = entry
            return entry

    def _count(self, counter: str) -> None:
        with self._counters_lock:
            self.counters[counter] += 1


__all__ = ["KRCoreService"]
