"""Canonical JSON codecs for the persistent graph store.

Everything the store persists beyond raw numpy arrays — attribute
profiles, search configs, component signatures, result-cache keys and
values — goes through these codecs.  The encoding is *canonical*: the
same logical value always produces the same byte string (sorted keys,
sorted set members, no whitespace variation), so encoded result keys can
be compared and looked up as text and the store never aliases two
distinct cache entries.

Only values the library itself produces are supported.  Custom metric
callables, arbitrary attribute objects, and other unpersistable inputs
raise :class:`~repro.exceptions.StoreError`; callers that merely want to
skip such entries catch it (see :meth:`KRCoreSession.save`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import SearchConfig
from repro.exceptions import InvalidParameterError, StoreError
from repro.similarity.metrics import _METRIC_NAMES

#: Reverse map of the built-in metric registry: callable -> public name.
_METRIC_BY_FN: Dict[Callable, str] = {fn: name for name, fn in _METRIC_NAMES.items()}

#: Fields of :class:`SearchConfig`, in declaration order (the codec
#: round-trips through keyword construction, so order only matters for
#: canonical output).
_CONFIG_FIELDS = (
    "order", "branch", "lam", "retain_candidates", "move_similarity_free",
    "early_termination", "maximal_check", "check_order", "bound",
    "warm_start", "backend", "executor", "workers", "split_depth",
    "seed", "time_limit", "node_limit", "on_budget", "mode",
)


def canonical_json(value: Any) -> str:
    """Serialise with a canonical layout (sorted keys, tight separators)."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise StoreError(f"value is not JSON-encodable: {exc}") from None


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

def metric_name(metric: Callable) -> str:
    """Public name of a built-in metric callable.

    Custom callables are not persistable (a function cannot round-trip
    through a database) and raise :class:`StoreError`.
    """
    name = _METRIC_BY_FN.get(metric)
    if name is None:
        raise StoreError(
            f"metric {getattr(metric, '__name__', metric)!r} is not a "
            "built-in; custom metrics cannot be persisted"
        )
    return name


# ----------------------------------------------------------------------
# Attribute profiles
# ----------------------------------------------------------------------

def encode_attribute(value: Any) -> str:
    """Tagged JSON encoding of one vertex attribute profile.

    Covers the three profile shapes the similarity metrics understand:
    set-likes (``["set", [...]]``), counter dicts
    (``["counter", [[item, count], ...]]``) and 2-d points
    (``["point", [x, y]]``).  Anything else raises :class:`StoreError`.
    """
    if isinstance(value, (set, frozenset)):
        items = sorted(value, key=lambda x: (x.__class__.__name__, str(x)))
        return canonical_json(["set", items])
    if isinstance(value, dict):
        pairs = sorted(
            ([k, v] for k, v in value.items()),
            key=lambda kv: (kv[0].__class__.__name__, str(kv[0])),
        )
        return canonical_json(["counter", pairs])
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return canonical_json(["point", [float(value[0]), float(value[1])]])
    raise StoreError(
        f"attribute value of type {type(value).__name__} is not persistable"
    )


def decode_attribute(text: str) -> Any:
    """Inverse of :func:`encode_attribute`."""
    try:
        tag, payload = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise StoreError(f"malformed attribute payload: {exc}") from None
    if tag == "set":
        return frozenset(payload)
    if tag == "counter":
        return {k: v for k, v in payload}
    if tag == "point":
        return (float(payload[0]), float(payload[1]))
    raise StoreError(f"unknown attribute tag {tag!r}")


# ----------------------------------------------------------------------
# Search configs
# ----------------------------------------------------------------------

def encode_config(cfg: SearchConfig) -> Dict[str, Any]:
    """Field dict of a :class:`SearchConfig` (all fields JSON scalars)."""
    return {name: getattr(cfg, name) for name in _CONFIG_FIELDS}


def decode_config(fields: Dict[str, Any]) -> SearchConfig:
    """Rebuild a :class:`SearchConfig` from its field dict.

    A payload naming an unknown field (one a later version dropped) or
    an invalid value raises :class:`StoreError`, like any malformed row.
    """
    try:
        return SearchConfig(**fields)
    except (TypeError, InvalidParameterError) as exc:
        raise StoreError(f"malformed config payload: {exc}") from None


# ----------------------------------------------------------------------
# Component signatures and result-cache keys
# ----------------------------------------------------------------------

def _encode_edges_key(edges_key: Any) -> List[Any]:
    if isinstance(edges_key, bytes):
        return ["b", edges_key.hex()]
    if isinstance(edges_key, frozenset):
        return ["s", sorted([u, v] for u, v in edges_key)]
    raise StoreError(
        f"unsupported component edges key type {type(edges_key).__name__}"
    )


def _decode_edges_key(payload: List[Any]) -> Any:
    tag, body = payload
    if tag == "b":
        return bytes.fromhex(body)
    if tag == "s":
        return frozenset((u, v) for u, v in body)
    raise StoreError(f"unknown edges-key tag {tag!r}")


def _encode_signature(signature: Tuple) -> List[Any]:
    vertices, edges_key, pair_key = signature
    return [
        sorted(vertices),
        _encode_edges_key(edges_key),
        sorted([u, v] for u, v in pair_key),
    ]


def _decode_signature(payload: List[Any]) -> Tuple:
    vertices, edges_key, pair_key = payload
    return (
        frozenset(vertices),
        _decode_edges_key(edges_key),
        frozenset((u, v) for u, v in pair_key),
    )


def encode_result_key(key: Tuple) -> str:
    """Canonical text form of one session result-cache key.

    The session keys enumeration results as
    ``("enum", engine, config_fp, k, signature)`` and maximum results as
    ``("max", config_fp, k, signature)``; both encode to a canonical
    JSON array usable as a database key.
    """
    if key[0] == "enum":
        _, engine, fp, k, signature = key
        return canonical_json(
            ["enum", engine, encode_config(fp), k, _encode_signature(signature)]
        )
    if key[0] == "max":
        _, fp, k, signature = key
        return canonical_json(
            ["max", encode_config(fp), k, _encode_signature(signature)]
        )
    raise StoreError(f"unknown result-key mode {key[0]!r}")


def decode_result_key(text: str) -> Tuple:
    """Inverse of :func:`encode_result_key`."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise StoreError(f"malformed result key: {exc}") from None
    mode = payload[0]
    if mode == "enum":
        _, engine, fields, k, signature = payload
        return ("enum", engine, decode_config(fields), k,
                _decode_signature(signature))
    if mode == "max":
        _, fields, k, signature = payload
        return ("max", decode_config(fields), k, _decode_signature(signature))
    raise StoreError(f"unknown result-key mode {mode!r}")


def encode_result_value(key: Tuple, value: Any) -> str:
    """Canonical text form of one result-cache value.

    Enumeration entries are lists of frozen vertex sets (order
    preserved); maximum entries are ``("exact", vertices-or-None)`` or
    ``("atmost", bound)``.
    """
    if key[0] == "enum":
        return canonical_json(["cores", [sorted(vs) for vs in value]])
    tag, payload = value
    if tag == "exact":
        return canonical_json(
            ["exact", sorted(payload) if payload is not None else None]
        )
    if tag == "atmost":
        return canonical_json(["atmost", int(payload)])
    raise StoreError(f"unknown maximum result tag {tag!r}")


def decode_result_value(text: str) -> Any:
    """Inverse of :func:`encode_result_value`."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise StoreError(f"malformed result value: {exc}") from None
    tag = payload[0]
    if tag == "cores":
        return [frozenset(vs) for vs in payload[1]]
    if tag == "exact":
        body = payload[1]
        return ("exact", frozenset(body) if body is not None else None)
    if tag == "atmost":
        return ("atmost", int(payload[1]))
    raise StoreError(f"unknown result-value tag {tag!r}")


# ----------------------------------------------------------------------
# Edit-log payloads
# ----------------------------------------------------------------------

def encode_edit(
    add_edges: Any = (),
    remove_edges: Any = (),
    attributes: Optional[Dict[int, Any]] = None,
) -> str:
    """Canonical text form of one batch edit (the service's edit log)."""
    return canonical_json({
        "add_edges": [[int(u), int(v)] for u, v in add_edges],
        "remove_edges": [[int(u), int(v)] for u, v in remove_edges],
        "attributes": {
            str(u): encode_attribute(value)
            for u, value in (attributes or {}).items()
        },
    })


def decode_edit(text: str) -> Dict[str, Any]:
    """Inverse of :func:`encode_edit` (attribute values decoded)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise StoreError(f"malformed edit payload: {exc}") from None
    return {
        "add_edges": [(int(u), int(v)) for u, v in payload.get("add_edges", [])],
        "remove_edges": [
            (int(u), int(v)) for u, v in payload.get("remove_edges", [])
        ],
        "attributes": {
            int(u): decode_attribute(value)
            for u, value in payload.get("attributes", {}).items()
        },
    }


__all__ = [
    "canonical_json",
    "metric_name",
    "encode_attribute", "decode_attribute",
    "encode_config", "decode_config",
    "encode_result_key", "decode_result_key",
    "encode_result_value", "decode_result_value",
    "encode_edit", "decode_edit",
]
