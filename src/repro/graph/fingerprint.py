"""Fingerprint v2: a bucketed SHA-256 digest of a graph's content.

A graph's fingerprint is a pure function of its edge set and its
attribute map — not of its vertex count, its labels, the order edges
were inserted in, or ``PYTHONHASHSEED``.  The store keys every derived
row by it and checks every load against it, and the daemon returns it
after each edit.

Records
-------
The content is written as fixed-width little-endian binary records:

* an edge: ``(1, u, v)`` with ``u < v``, three int64;
* a point attribute — a 2-tuple of real numbers — of vertex ``u``:
  ``(2, u, x, y)``, two int64 and two float64, so ``(1, 2)`` and
  ``(1.0, 2.0)`` are the same record, as the store saves them;
* any other attribute of ``u``: ``(3, u, length)``, three int64,
  followed by the ``length`` UTF-8 bytes of its canonical string
  (:func:`canonical_attribute`: sorted set members, sorted dict keys).

Edge and point records are built as numpy structured arrays, never one
Python string per record.

Buckets
-------
A record of vertex ``u`` (an edge's lower end) goes to bucket
``u // BUCKET_WIDTH``.  A bucket's digest is the SHA-256 of its records:
its edges in ``(u, v)`` order, then its point records, then its other
attribute records, each in vertex order.  The fingerprint is the SHA-256
of the ``(bucket index as int64, digest)`` pairs of the non-empty
buckets, in index order.

An edit changes the records of one bucket only.  :class:`CSRGraph`
keeps its bucket digests in a slot filled on first use, and
:func:`~repro.graph.csr.with_edge_added`,
:func:`~repro.graph.csr.with_edge_removed` and
:func:`~repro.graph.csr.with_attribute` carry them over, re-hashing the
touched bucket from the edited rows (:func:`rehash_bucket`): a
fingerprint after an edit costs one bucket and one pass over the bucket
digests, not the graph.  A tree of SHA-256 digests keeps SHA-256's
collision resistance, which a sum of per-record digests would not (it
falls to a generalised-birthday attack, and the daemon both takes edits
and returns fingerprints).
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Any, Dict, List, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph

#: Vertices per bucket.  A fixed part of the format, not a knob: another
#: width gives other fingerprints for the same graph.
BUCKET_WIDTH = 64

_EDGE, _POINT, _TEXT = 1, 2, 3
_EDGE_RECORD = np.dtype([("tag", "<i8"), ("u", "<i8"), ("v", "<i8")])
_POINT_RECORD = np.dtype(
    [("tag", "<i8"), ("u", "<i8"), ("x", "<f8"), ("y", "<f8")]
)
_TEXT_HEAD = struct.Struct("<qqq")
_REAL = (int, float, np.integer, np.floating)

#: Bucket index -> SHA-256 digest of its records (non-empty buckets only).
Digests = Dict[int, bytes]


def canonical_attribute(attr: Any) -> str:
    """Order-independent string of one non-point attribute value."""
    if isinstance(attr, (frozenset, set)):
        return "s:" + ",".join(sorted(map(str, attr)))
    if isinstance(attr, dict):
        return "d:" + ",".join(f"{key}={attr[key]!r}" for key in sorted(attr))
    return f"v:{attr!r}"


def _is_point(value: Any) -> bool:
    return (
        isinstance(value, tuple) and len(value) == 2
        and isinstance(value[0], _REAL) and isinstance(value[1], _REAL)
    )


def _text_record(u: int, value: Any) -> bytes:
    text = canonical_attribute(value).encode()
    return _TEXT_HEAD.pack(_TEXT, u, len(text)) + text


def bucket_digests(
    eu: np.ndarray,
    ev: np.ndarray,
    ids: np.ndarray,
    values: Union[np.ndarray, List[Any]],
) -> Digests:
    """The digest of every non-empty bucket of a graph's records.

    ``(eu, ev)`` are the edges, ``eu < ev``, sorted by ``(eu, ev)``;
    ``ids`` are the attributed vertices, ascending, and ``values`` their
    attribute values — a list, or the ``(len(ids), 2)`` float64 column
    when every value is a point.
    """
    ids = np.asarray(ids, dtype=np.int64)
    is_point = (
        None if isinstance(values, np.ndarray)
        else [_is_point(v) for v in values]
    )
    if is_point is None or all(is_point):
        point_ids = ids
        xy = np.asarray(values, dtype=np.float64).reshape(-1, 2)
        text_ids, texts = ids[:0], []
    else:
        mask = np.array(is_point, dtype=bool)
        point_ids, text_ids = ids[mask], ids[~mask]
        xy = np.array(
            [v for v, p in zip(values, is_point) if p], dtype=np.float64
        ).reshape(-1, 2)
        texts = [
            _text_record(u, value)
            for u, value, p in zip(ids.tolist(), values, is_point) if not p
        ]
    edges = np.empty(eu.size, dtype=_EDGE_RECORD)
    edges["tag"], edges["u"], edges["v"] = _EDGE, eu, ev
    points = np.empty(point_ids.size, dtype=_POINT_RECORD)
    points["tag"], points["u"] = _POINT, point_ids
    points["x"], points["y"] = xy[:, 0], xy[:, 1]
    keys = (eu // BUCKET_WIDTH, point_ids // BUCKET_WIDTH,
            text_ids // BUCKET_WIDTH)
    used = np.zeros(max((int(k[-1]) + 1 for k in keys if k.size), default=0),
                    dtype=bool)
    for key in keys:
        used[key] = True
    buckets = np.flatnonzero(used)
    e0, e1, p0, p1, t0, t1 = (
        np.searchsorted(key, buckets, side).tolist()
        for key in keys for side in ("left", "right")
    )
    edge_bytes, point_bytes = edges.view(np.uint8), points.view(np.uint8)
    ew, pw = _EDGE_RECORD.itemsize, _POINT_RECORD.itemsize
    out: Digests = {}
    for i, b in enumerate(buckets.tolist()):
        h = hashlib.sha256(edge_bytes[e0[i] * ew:e1[i] * ew])
        h.update(point_bytes[p0[i] * pw:p1[i] * pw])
        h.update(b"".join(texts[t0[i]:t1[i]]))
        out[b] = h.digest()
    return out


def graph_digests(csr: "CSRGraph") -> Digests:
    """Every bucket digest of ``csr``, built from scratch."""
    attributes = csr._attributes
    ids = sorted(attributes)
    return bucket_digests(
        *csr.edge_array(), np.array(ids, dtype=np.int64),
        [attributes[u] for u in ids],
    )


def rehash_bucket(csr: "CSRGraph", digests: Digests, u: int) -> Digests:
    """``digests`` with the bucket of vertex ``u`` re-hashed from
    ``csr``'s rows and attributes (a new dict; ``digests`` is kept)."""
    b = u // BUCKET_WIDTH
    lo, hi = b * BUCKET_WIDTH, min((b + 1) * BUCKET_WIDTH, csr.vertex_count)
    src = np.repeat(
        np.arange(lo, hi, dtype=np.int64), np.diff(csr.indptr[lo:hi + 1])
    )
    dst = csr.indices[int(csr.indptr[lo]):int(csr.indptr[hi])]
    upper = src < dst
    attributes = csr._attributes
    ids = [w for w in range(lo, hi) if w in attributes]
    out = dict(digests)
    out.pop(b, None)
    out.update(bucket_digests(
        src[upper], dst[upper], np.array(ids, dtype=np.int64),
        [attributes[w] for w in ids],
    ))
    return out


def fingerprint_hex(digests: Digests) -> str:
    """The fingerprint of a graph with these bucket digests."""
    return hashlib.sha256(b"".join(
        b.to_bytes(8, "little") + digests[b] for b in sorted(digests)
    )).hexdigest()


def csr_fingerprint(graph: "CSRGraph") -> str:
    """Fingerprint v2 of a CSR graph — from its carried bucket digests
    when an edit left them, else from one build that the graph keeps."""
    return fingerprint_hex(graph.bucket_digests())


__all__ = [
    "BUCKET_WIDTH",
    "bucket_digests",
    "canonical_attribute",
    "csr_fingerprint",
    "fingerprint_hex",
    "graph_digests",
    "rehash_bucket",
]
