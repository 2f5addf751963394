"""Sqlite-backed persistence for graphs, similarity caches and results.

:class:`GraphStore` is the on-disk layer under
:class:`~repro.core.session.KRCoreSession` and the query service: named
graphs, per-(metric, backend) edge-metric values, the per-component
result cache, and the service's edit log all live in one sqlite
database.

Canonical data: a snapshot plus its edit log
--------------------------------------------
A stored graph is one versioned array snapshot — a single ``graphs`` row
— plus the ``edits`` log.  The snapshot holds the CSR ``indptr`` /
``indices`` arrays; the attributes, as a float64 point column (vertex
ids plus ``(x, y)``) when every attribute is a 2-d point and otherwise
as an encoded column (:func:`~repro.store.codec.encode_attribute` per
vertex); the labels, only when they differ from the defaults; ``n``,
``m``, and ``snapshot_seq``, the last edit-log entry it includes.  The
row also carries the graph's *current* fingerprint: fingerprint v2
(:mod:`repro.graph.fingerprint`), a SHA-256 over per-bucket SHA-256
digests of binary edge and attribute records.

:meth:`GraphStore.save_graph` hashes the snapshot columns it encodes: the
float64 point column as written, or the decoded values of an encoded
column, so the fingerprint is that of the graph a load returns.
:meth:`GraphStore.record_edit` only appends an edit's payload to the log
and advances that fingerprint; callers pass the edited graph's
fingerprint, which a :class:`~repro.graph.csr.CSRGraph` carries through
its edits at the cost of the one bucket each touches.
:meth:`GraphStore.load_graph` decodes the snapshot, checks its arrays
are a canonical CSR, hashes every bucket from the columns, replays the
log entries past ``snapshot_seq`` onto it
(:func:`~repro.graph.csr.apply_edit`, the order
:meth:`KRCoreSession.edit` applies edits in, re-hashing the buckets they
touch) and checks the result's fingerprint against the current one.  A
changed array element, a malformed blob, or an altered or missing log
payload raises :class:`StoreError`: a graph is served exactly or not at
all.  A save of a graph whose log has pending entries writes a new
snapshot, so the replay stays short; the entries stay in the log as
history.

Staleness safety
----------------
Every derived row (edge-metric payloads, result entries) is stored
together with the fingerprint of the graph it was computed on.  Loaders
only ever return rows whose fingerprint matches the *current* stored
graph, so an edited or re-saved graph can never serve a stale cache
entry — the rows simply stop matching and are removed by the next
:meth:`prune` / save cycle.  Sessions write edge-metric rows for the
``csr`` backend only; :meth:`prune` also removes the ``python`` rows
older releases wrote, which no session reads.

Concurrency
-----------
One connection serves all threads (``check_same_thread=False``) behind
an internal lock; file-backed stores run in WAL mode so the service's
reader threads do not block its writer.  The schema carries a version
number; opening a database written by another version drops every
table and starts empty, so an old-layout row is never served.
"""

from __future__ import annotations

import io
import json
import sqlite3
import threading
import time
import zipfile
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GraphError, StoreError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph, apply_edit
from repro.graph.fingerprint import (
    bucket_digests,
    csr_fingerprint,
    fingerprint_hex,
)
from repro.store.codec import (
    canonical_json,
    decode_attribute,
    decode_edit,
    encode_attribute,
)

#: Bump on any incompatible schema change; mismatched stores rebuild.
#: Version 3: fingerprint v2 (:mod:`repro.graph.fingerprint`) in every
#: fingerprint column.  Version 2 had the same tables under SHA-256 over
#: text records; version 1 kept a row per edge, attribute and label.
SCHEMA_VERSION = 3

_TABLES = {
    "meta": "(key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "graphs": (
        "(name TEXT PRIMARY KEY, n INTEGER NOT NULL, m INTEGER NOT NULL, "
        "fingerprint TEXT NOT NULL, snapshot_seq INTEGER NOT NULL, "
        "labels TEXT, created REAL NOT NULL, updated REAL NOT NULL, "
        "arrays BLOB NOT NULL)"
    ),
    "edge_metrics": (
        "(graph TEXT NOT NULL, metric TEXT NOT NULL, backend TEXT NOT NULL, "
        "fingerprint TEXT NOT NULL, meta TEXT NOT NULL, arrays BLOB, "
        "PRIMARY KEY (graph, metric, backend))"
    ),
    "results": (
        "(graph TEXT NOT NULL, key TEXT NOT NULL, "
        "fingerprint TEXT NOT NULL, value TEXT NOT NULL, "
        "PRIMARY KEY (graph, key))"
    ),
    "edits": (
        "(graph TEXT NOT NULL, seq INTEGER NOT NULL, applied REAL NOT NULL, "
        "payload TEXT NOT NULL, fingerprint TEXT NOT NULL, "
        "PRIMARY KEY (graph, seq))"
    ),
}

_INDICES = (
    "CREATE INDEX IF NOT EXISTS idx_results_graph_fp "
    "ON results (graph, fingerprint)",
)

#: What a malformed snapshot blob or log payload raises while decoding.
_DECODE_ERRORS = (
    ValueError, TypeError, KeyError, IndexError, EOFError, OSError,
    zipfile.BadZipFile, GraphError,
)


def _pack_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _unpack_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _encode_snapshot(csr: CSRGraph) -> Tuple[Dict[str, np.ndarray], Optional[str]]:
    """The snapshot columns of ``csr``: its arrays and its labels (JSON,
    or ``None`` for the default labels)."""
    arrays = {"indptr": csr.indptr, "indices": csr.indices}
    attributes = csr._attributes
    ids = sorted(attributes)
    values = [attributes[u] for u in ids]
    if all(isinstance(v, (tuple, list)) and len(v) == 2 for v in values):
        try:
            points = np.array(values, dtype=np.float64).reshape(-1, 2)
        except (TypeError, ValueError):
            raise StoreError(
                "a 2-element attribute value is not a numeric point"
            ) from None
        arrays["point_ids"] = np.array(ids, dtype=np.int64)
        arrays["points"] = points
    else:
        arrays["attr_ids"] = np.array(ids, dtype=np.int64)
        # canonical_json escapes every control character, so "\n" never
        # occurs inside an encoded value.
        arrays["attr_codes"] = np.frombuffer(
            "\n".join(map(encode_attribute, values)).encode(), dtype=np.uint8
        )
    labels = csr._labels
    if labels is not None and labels != [str(u) for u in csr.vertices()]:
        return arrays, canonical_json(list(labels))
    return arrays, None


def _snapshot_attributes(
    arrays: Dict[str, np.ndarray], n: int
) -> Tuple[np.ndarray, Union[np.ndarray, List[Any]]]:
    """The attributed vertex ids of a snapshot and their values: the
    float64 point column as stored, or the decoded values of an encoded
    column — the ``(ids, values)`` pair
    :func:`~repro.graph.fingerprint.bucket_digests` takes.

    Raises :class:`StoreError` unless the ids ascend strictly (every
    save writes them so) and name vertices of an ``n``-vertex graph.
    """
    if "points" in arrays:
        ids, values = arrays["point_ids"], arrays["points"]
    else:
        ids = arrays["attr_ids"]
        codes = arrays["attr_codes"].tobytes().decode()
        values = [decode_attribute(c) for c in codes.split("\n")] if ids.size else []
    if len(values) != ids.size or (np.diff(ids) <= 0).any() or (
        ids.size and (ids[0] < 0 or ids[-1] >= n)
    ):
        raise StoreError("snapshot attribute ids are not distinct vertices")
    return ids, values


def _snapshot_graph(
    n: int, arrays: Dict[str, np.ndarray], labels: Optional[str]
) -> CSRGraph:
    """The graph a snapshot's columns decode to, validated, with its
    bucket digests built from the columns.

    Point attributes come back as ``(float, float)`` tuples and seed the
    graph's geo-point column; encoded ones as
    :func:`~repro.store.codec.decode_attribute` returns them.
    """
    indptr = arrays["indptr"]
    if indptr.shape != (n + 1,):
        raise StoreError(f"snapshot indptr has shape {indptr.shape}, n is {n}")
    ids, values = _snapshot_attributes(arrays, n)
    points = isinstance(values, np.ndarray)
    attributes = dict(zip(
        ids.tolist(),
        zip(values[:, 0].tolist(), values[:, 1].tolist()) if points else values,
    ))
    label_list = json.loads(labels) if labels is not None else None
    if label_list is not None and (
        len(label_list) != n or not all(isinstance(x, str) for x in label_list)
    ):
        raise StoreError("snapshot labels are not one string per vertex")
    csr = CSRGraph(indptr, arrays["indices"], attributes, label_list)
    csr.validate()
    csr._digests = bucket_digests(*csr.edge_array(), ids, values)
    if points:
        csr._geo = np.full((n, 2), np.nan, dtype=np.float64)
        csr._geo[ids] = values
    return csr


class GraphStore:
    """Named persistent graphs with fingerprint-guarded derived caches.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store
        (tests).  The file is created on first use.
    """

    def __init__(self, path: str):
        self._path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self._path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        if self._path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._ensure_schema()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            tables = [
                name for (name,) in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%'"
                )
            ]
            version = None
            if "meta" in tables:
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                version = int(row[0]) if row else None
            if version != SCHEMA_VERSION:
                # Another layout (or none recorded): start empty, so no
                # row written under it can ever be served.
                for table in tables:
                    quoted = table.replace('"', '""')
                    self._conn.execute(f'DROP TABLE IF EXISTS "{quoted}"')
            for table, spec in _TABLES.items():
                self._conn.execute(f"CREATE TABLE IF NOT EXISTS {table} {spec}")
            for stmt in _INDICES:
                self._conn.execute(stmt)
            if version != SCHEMA_VERSION:
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def list_graphs(self) -> List[Dict[str, Any]]:
        """Summaries of every stored graph (name order).

        ``m`` counts the snapshot's edges; ``pending_edits`` log entries
        apply on top of it when the graph loads.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, n, m, fingerprint, created, updated, "
                "(SELECT COUNT(*) FROM edits "
                " WHERE graph = name AND seq > snapshot_seq) "
                "FROM graphs ORDER BY name"
            ).fetchall()
        return [
            {
                "name": name, "n": n, "m": m, "fingerprint": fp,
                "created": created, "updated": updated,
                "pending_edits": pending,
            }
            for name, n, m, fp, created, updated, pending in rows
        ]

    def has_graph(self, name: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM graphs WHERE name = ?", (name,)
            ).fetchone()
            return row is not None

    def fingerprint(self, name: str) -> str:
        """Current fingerprint of a stored graph."""
        with self._lock:
            row = self._conn.execute(
                "SELECT fingerprint FROM graphs WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise StoreError(f"no stored graph named {name!r}")
        return row[0]

    def save_graph(
        self, name: str, graph: Union[AttributedGraph, CSRGraph]
    ) -> str:
        """Upsert a graph under ``name`` as a new snapshot; returns its
        fingerprint.

        ``graph`` may be either form; an :class:`AttributedGraph` is
        frozen to CSR first.  The fingerprint is that of the graph
        :meth:`load_graph` will return, hashed from the snapshot columns
        — point attributes are stored, and so fingerprinted, as the
        float64 pairs a load decodes, whatever number types or sequence
        the caller used.

        Re-saving an identical graph whose log has no pending entries is
        a no-op (derived rows survive).  Saving a changed graph, or any
        graph whose log has pending entries, writes a new snapshot that
        includes every logged edit; derived rows of a changed graph go
        stale — they stop being served immediately and are removed by
        the next :meth:`prune`.
        """
        csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_attributed(graph)
        arrays, labels = _encode_snapshot(csr)
        fp = fingerprint_hex(
            bucket_digests(
                *csr.edge_array(), *_snapshot_attributes(arrays, csr.vertex_count)
            )
        )
        now = time.time()
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT n, fingerprint, snapshot_seq FROM graphs WHERE name = ?",
                (name,),
            ).fetchone()
            last = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM edits WHERE graph = ?",
                (name,),
            ).fetchone()[0]
            if row is not None and tuple(row) == (csr.vertex_count, fp, last):
                return fp
            self._conn.execute(
                "INSERT INTO graphs (name, n, m, fingerprint, snapshot_seq, "
                "labels, created, updated, arrays) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "n = excluded.n, m = excluded.m, "
                "fingerprint = excluded.fingerprint, "
                "snapshot_seq = excluded.snapshot_seq, "
                "labels = excluded.labels, updated = excluded.updated, "
                "arrays = excluded.arrays",
                (name, csr.vertex_count, csr.edge_count, fp, last, labels,
                 now, now, _pack_arrays(arrays)),
            )
        return fp

    def save_csr_graph(self, name: str, csr: CSRGraph) -> str:
        """:meth:`save_graph` of a CSR graph — the ingestion path, which
        never materialises an :class:`AttributedGraph`."""
        return self.save_graph(name, csr)

    def load_graph(self, name: str) -> CSRGraph:
        """The stored graph: its snapshot with the pending edit-log
        entries replayed, verified against the stored fingerprint.

        The snapshot's buckets are hashed from its columns and the replay
        re-hashes the buckets each entry touches; the returned graph
        keeps the digests, so its next edits carry them on.

        Raises :class:`StoreError` when there is no such graph, when the
        snapshot's arrays are not a canonical CSR or fail to decode, when
        a pending log payload fails to decode or apply, and when the
        result's fingerprint differs from the stored one.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT n, fingerprint, snapshot_seq, labels, arrays "
                "FROM graphs WHERE name = ?",
                (name,),
            ).fetchone()
            if row is None:
                raise StoreError(f"no stored graph named {name!r}")
            n, fp, snapshot_seq, labels, blob = row
            pending = self._conn.execute(
                "SELECT payload FROM edits WHERE graph = ? AND seq > ? "
                "ORDER BY seq",
                (name, snapshot_seq),
            ).fetchall()
        try:
            graph = _snapshot_graph(n, _unpack_arrays(blob), labels)
            for (payload,) in pending:
                graph = apply_edit(graph, **decode_edit(payload))
            actual = csr_fingerprint(graph)
        except (StoreError, *_DECODE_ERRORS) as exc:
            raise StoreError(
                f"stored graph {name!r} does not decode: {exc}"
            ) from None
        if actual != fp:
            raise StoreError(
                f"stored graph {name!r} fails its fingerprint check "
                f"(stored {fp[:12]}…, rebuilt {actual[:12]}…) — "
                "database corrupted or written by an incompatible codec"
            )
        return graph

    def load_csr(self, name: str, graph: Optional[CSRGraph] = None) -> CSRGraph:
        """The stored CSR form of ``name``.

        ``graph``, when given, must be what :meth:`load_graph` returned
        for ``name``: that is the CSR form already, so it is returned
        as is — no second blob read or fingerprint.  Without it, this is
        :meth:`load_graph`.
        """
        if isinstance(graph, CSRGraph):
            return graph
        return self.load_graph(name)

    def delete_graph(self, name: str) -> None:
        """Remove a graph and every derived/log row under its name."""
        with self._lock, self._conn:
            for table in ("graphs", "edge_metrics", "results", "edits"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE "
                    + ("name" if table == "graphs" else "graph")
                    + " = ?",
                    (name,),
                )

    # ------------------------------------------------------------------
    # Derived rows: edge-metric values
    # ------------------------------------------------------------------
    def save_edge_metric(
        self,
        name: str,
        metric: str,
        backend: str,
        payload: Dict[str, Any],
        fingerprint: str,
    ) -> None:
        """Persist one :class:`EdgeSimilarityCache` payload."""
        arrays = {
            key: value for key, value in payload.items()
            if isinstance(value, np.ndarray)
        }
        meta = {
            key: value for key, value in payload.items()
            if not isinstance(value, np.ndarray)
        }
        blob = _pack_arrays(arrays) if arrays else None
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO edge_metrics "
                "(graph, metric, backend, fingerprint, meta, arrays) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (name, metric, backend, fingerprint, json.dumps(meta), blob),
            )

    def load_edge_metrics(
        self, name: str
    ) -> List[Tuple[str, str, Dict[str, Any]]]:
        """Every current-fingerprint edge-metric payload of ``name``.

        Returns ``(metric_name, backend, payload)`` triples; stale rows
        are silently skipped.
        """
        with self._lock:
            fp = self.fingerprint(name)
            rows = self._conn.execute(
                "SELECT metric, backend, fingerprint, meta, arrays "
                "FROM edge_metrics WHERE graph = ? ORDER BY metric, backend",
                (name,),
            ).fetchall()
        out = []
        for metric, backend, row_fp, meta, blob in rows:
            if row_fp != fp:
                continue
            payload: Dict[str, Any] = json.loads(meta)
            if blob is not None:
                payload.update(_unpack_arrays(blob))
            out.append((metric, backend, payload))
        return out

    # ------------------------------------------------------------------
    # Derived rows: result-cache entries
    # ------------------------------------------------------------------
    def save_results(
        self,
        name: str,
        entries: Iterable[Tuple[str, str]],
        fingerprint: str,
    ) -> int:
        """Upsert encoded ``(key, value)`` result entries; returns count."""
        rows = [
            (name, key, fingerprint, value) for key, value in entries
        ]
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO results (graph, key, fingerprint, value) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def load_results(self, name: str) -> List[Tuple[str, str]]:
        """Encoded ``(key, value)`` entries matching the current graph.

        Ordered by insertion (rowid), so a reloaded session's LRU order
        approximates the saved session's.
        """
        with self._lock:
            fp = self.fingerprint(name)
            return self._conn.execute(
                "SELECT key, value FROM results "
                "WHERE graph = ? AND fingerprint = ? ORDER BY rowid",
                (name, fp),
            ).fetchall()

    def result_count(self, name: str, current_only: bool = True) -> int:
        with self._lock:
            if current_only:
                fp = self.fingerprint(name)
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results "
                    "WHERE graph = ? AND fingerprint = ?",
                    (name, fp),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM results WHERE graph = ?", (name,)
                ).fetchone()
            return int(row[0])

    def prune(self, name: str) -> int:
        """Delete stale derived rows (fingerprint mismatch, or an
        edge-metric row of a backend other than ``csr``); returns count."""
        with self._lock, self._conn:
            fp = self.fingerprint(name)
            metrics = self._conn.execute(
                "DELETE FROM edge_metrics WHERE graph = ? "
                "AND (fingerprint != ? OR backend != 'csr')",
                (name, fp),
            )
            results = self._conn.execute(
                "DELETE FROM results WHERE graph = ? AND fingerprint != ?",
                (name, fp),
            )
            return metrics.rowcount + results.rowcount

    # ------------------------------------------------------------------
    # Edit log
    # ------------------------------------------------------------------
    def record_edit(
        self,
        name: str,
        payload: str,
        new_fingerprint: str,
        *,
        add_edges: Sequence[Tuple[int, int]] = (),
        remove_edges: Sequence[Tuple[int, int]] = (),
        attributes: Optional[Dict[int, Any]] = None,
    ) -> int:
        """Append one batch edit to the log and advance the fingerprint.

        ``payload`` is the edit's :func:`~repro.store.codec.encode_edit`
        text and ``new_fingerprint`` the fingerprint of the graph after
        it.  The snapshot is not touched — :meth:`load_graph` replays the
        payload — and the advanced fingerprint stops every derived row
        computed on the old graph from being served.  The keyword
        arguments are the payload's decoded parts, accepted from callers
        that pass both; the log records ``payload`` alone.  Returns the
        edit's sequence number.
        """
        decode_edit(payload)  # refuse a payload the replay could not read
        now = time.time()
        with self._lock, self._conn:
            if not self.has_graph(name):
                raise StoreError(f"no stored graph named {name!r}")
            seq_row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM edits WHERE graph = ?",
                (name,),
            ).fetchone()
            seq = int(seq_row[0])
            self._conn.execute(
                "INSERT INTO edits (graph, seq, applied, payload, fingerprint) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, seq, now, payload, new_fingerprint),
            )
            self._conn.execute(
                "UPDATE graphs SET fingerprint = ?, updated = ? WHERE name = ?",
                (new_fingerprint, now, name),
            )
        return seq

    def edit_log(self, name: str) -> List[Dict[str, Any]]:
        """The persisted edit history of ``name`` (sequence order)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, applied, payload, fingerprint FROM edits "
                "WHERE graph = ? ORDER BY seq",
                (name,),
            ).fetchall()
        return [
            {
                "seq": seq, "applied": applied,
                "edit": decode_edit(payload), "fingerprint": fp,
            }
            for seq, applied, payload, fp in rows
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Row counts per table plus the snapshots' total edge count (the
        service's cache-stats endpoint)."""
        with self._lock:
            out: Dict[str, Any] = {"path": self._path}
            for table in _TABLES:
                if table == "meta":
                    continue
                row = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()
                out[table] = int(row[0])
            row = self._conn.execute(
                "SELECT COALESCE(SUM(m), 0) FROM graphs"
            ).fetchone()
            out["edges"] = int(row[0])
            return out
