"""Chunked streaming ingestion: real-scale edge lists straight to CSR.

The plain-text readers of :mod:`repro.graph.io` route every line through
the python-dict :class:`~repro.graph.builder.GraphBuilder` — fine for
test fixtures, hopeless for the paper's million-edge SNAP-class inputs
(Gowalla, DBLP): the dict adjacency alone costs an order of magnitude
more memory than the graph, and per-edge python set insertion dominates
the load time.  This module parses the same formats a text block at a
time, converts token batches to ``int64`` arrays with numpy, and
assembles the :class:`~repro.graph.csr.CSRGraph` with the packed-key
sort of :meth:`CSRGraph.from_edges` — no python-dict adjacency is ever
built.

Block path
----------
A file is read in blocks of ``repro.graph.io._READ_CHARS`` characters,
each cut after its last ``\\n``.  The lines of a block up to and
including its last ``#`` go through the per-line parser, so headers and
comments parse as they always did.  The rest is classified in numpy
(:func:`_split_block`): if it is ASCII, breaks lines only with ``\\n``
and every line holds 0 fields or the format's field count (2 for an
edge, 3 for a point), it becomes one ``str.split()``.  Its tokens join
the parse batches exactly as the line parser would have added them, so
batches, stats and error line numbers do not depend on the path taken.
Any other block — ``\\r``, ``\\v``, a ragged row, a non-ASCII label, a
custom ``sep`` — goes to the line parser, which raises the typed
errors.  A point block is cast per block (labels to ``int64`` or
through the relabel map, coordinates to ``float64``); a bad number or
an unknown label sends the block to the line parser too.  Set and
counter files always take the line parser.

Contract
--------
* **Typed failures, never a partial graph.**  Ragged rows, non-integer
  ids, header/body disagreement, policy violations, memory-ceiling
  trips and malformed attribute lines all raise
  :class:`~repro.exceptions.IngestError`; a caller either gets a
  complete CSR or an exception.
* **Policy flags.**  ``self_loops`` / ``duplicates`` accept ``"skip"``
  (drop, counted in the stats) or ``"error"``; the line readers of
  :mod:`repro.graph.io` accept the same flags with the same meaning.
* **Memory ceiling.**  ``memory_limit_mb`` bounds the ingester's
  accumulated int64 edge buffers, checked after every batch of
  ``chunk_lines`` rows, so a larger-than-expected file trips mid-stream
  instead of thrashing.  The text block being parsed (and its tokens)
  sits outside the ceiling.
* **Line endings.**  ``\\n``, ``\\r\\n`` and bare ``\\r`` all terminate
  lines, whatever object the source is — the ingester does its own
  universal-newline split instead of trusting the handle's translation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple, Union,
)

import numpy as np

from repro.exceptions import IngestError
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    EDGE_POLICIES,
    _check_edge_policy,
    iter_blocks,
    iter_raw_lines,
    parse_attribute_record,
    split_edge_line,
)

PathOrFile = Union[str, os.PathLike, TextIO]

#: Lines per parse batch — big enough that the numpy str->int64 cast
#: amortises, small enough that one batch's token lists stay cheap.
DEFAULT_CHUNK_LINES = 65536

#: Class of each ASCII character for :func:`_split_block`: part of a
#: field, whitespace (``str.split``'s set, ``\n`` included), or a line
#: break other than ``\n``.
_FIELD, _SPACE, _OTHER_BREAK = 0, 1, 2
_CHAR_CLASS = np.array(
    [
        _OTHER_BREAK if c != "\n" and len(f"a{c}a".splitlines()) > 1
        else _SPACE if c.isspace() else _FIELD
        for c in map(chr, range(128))
    ],
    dtype=np.uint8,
)


@dataclass
class IngestStats:
    """Observable counters of one ingest run (returned via ``with_stats``)."""

    lines: int = 0                  # physical lines seen (incl. comments)
    comment_lines: int = 0
    edge_lines: int = 0             # well-formed edge rows parsed
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0
    chunks: int = 0                 # parse batches converted to arrays
    peak_buffer_bytes: int = 0      # high-water mark of the parse buffers
    declared_nodes: Optional[int] = None
    declared_edges: Optional[int] = None
    relabelled: bool = False        # ids were compacted to 0..n-1
    attribute_lines: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lines": self.lines,
            "comment_lines": self.comment_lines,
            "edge_lines": self.edge_lines,
            "self_loops_dropped": self.self_loops_dropped,
            "duplicates_dropped": self.duplicates_dropped,
            "chunks": self.chunks,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "declared_nodes": self.declared_nodes,
            "declared_edges": self.declared_edges,
            "relabelled": self.relabelled,
            "attribute_lines": self.attribute_lines,
            **self.extra,
        }


def _parse_header_counts(line: str) -> Tuple[Optional[int], Optional[int]]:
    """Declared (nodes, edges) from a header comment, if any.

    Accepts both this repo's ``# nodes N edges M`` and the SNAP dump
    convention ``# Nodes: N Edges: M``.
    """
    parts = line.replace(":", " ").split()
    nodes = edges = None
    for i, tok in enumerate(parts[:-1]):
        low = tok.lower()
        if low == "nodes" and parts[i + 1].lstrip("-").isdigit():
            nodes = int(parts[i + 1])
        elif low == "edges" and parts[i + 1].lstrip("-").isdigit():
            edges = int(parts[i + 1])
    return nodes, edges


def _split_block(
    text: str, fields: int,
) -> Optional[Tuple[List[str], np.ndarray, int]]:
    """Tokens of a block whose every line holds 0 or ``fields`` fields.

    Returns ``(text.split(), rows, lines)``: ``rows`` is the 0-based
    line, within the block, of each non-blank line and ``lines`` the
    block's line count.  Returns ``None`` when the block must go to the
    line parser: it is not ASCII, it breaks a line with anything but
    ``\\n``, or some line holds another number of fields.
    """
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    cls = _CHAR_CLASS[raw]
    if (cls == _OTHER_BREAK).any():
        return None
    in_field = cls == _FIELD
    starts = in_field.copy()
    starts[1:] &= ~in_field[:-1]
    line_of = np.searchsorted(
        np.flatnonzero(raw == ord("\n")), np.flatnonzero(starts)
    )
    per_line = np.bincount(line_of)
    if ((per_line != 0) & (per_line != fields)).any():
        return None
    lines = text.count("\n") + (not text.endswith("\n"))
    return text.split(), line_of[::fields], lines


def _comment_cut(text: str) -> int:
    """End of the line holding ``text``'s last ``#`` (0 when it has
    none): the part of a block the line parser takes."""
    hash_at = text.rfind("#")
    if hash_at < 0:
        return 0
    end = text.find("\n", hash_at)
    return len(text) if end < 0 else end + 1


def _route_blocks(
    source: PathOrFile,
    parse_lines: Callable[[str], None],
    parse_block: Optional[Callable[[str], bool]],
) -> None:
    """Feed every block of ``source`` to ``parse_block`` after its
    comment lines, or to ``parse_lines`` where ``parse_block`` declines
    (returns ``False``) or is ``None``."""
    for block in iter_blocks(source):
        cut = _comment_cut(block) if parse_block else len(block)
        parse_lines(block[:cut])
        rest = block[cut:]
        if rest and not parse_block(rest):
            parse_lines(rest)


def _tokens_to_int64(tokens: List[str], linenos: List[int]) -> np.ndarray:
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for tok, lineno in zip(tokens, linenos):
            try:
                int(tok)
            except ValueError:
                raise IngestError(
                    f"edge list line {lineno}: non-integer vertex id {tok!r}"
                ) from None
        raise IngestError(
            "edge list contains an out-of-range vertex id"
        ) from None


class _EdgeAccumulator:
    """Chunk arrays plus the memory-ceiling bookkeeping."""

    def __init__(self, memory_limit_mb: Optional[float], stats: IngestStats):
        if memory_limit_mb is not None and memory_limit_mb <= 0:
            raise IngestError(
                f"memory_limit_mb must be positive, got {memory_limit_mb}"
            )
        self.limit_bytes = (
            None if memory_limit_mb is None
            else int(memory_limit_mb * 1024 * 1024)
        )
        self.stats = stats
        self.chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self.nbytes = 0

    def add(self, u: np.ndarray, v: np.ndarray, lineno: int) -> None:
        self.chunks.append((u, v))
        self.nbytes += u.nbytes + v.nbytes
        self.stats.chunks += 1
        self.stats.peak_buffer_bytes = max(
            self.stats.peak_buffer_bytes, self.nbytes
        )
        if self.limit_bytes is not None and self.nbytes > self.limit_bytes:
            raise IngestError(
                f"memory ceiling tripped: edge buffers reached "
                f"{self.nbytes} bytes (> {self.limit_bytes}) "
                f"after line {lineno}"
            )

    def concatenated(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        u = np.concatenate([c[0] for c in self.chunks])
        v = np.concatenate([c[1] for c in self.chunks])
        return u, v


def _parse_edges(
    source: PathOrFile,
    sep: Optional[str],
    self_loops: str,
    duplicates: str,
    chunk_lines: int,
    memory_limit_mb: Optional[float],
    stats: IngestStats,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stream the file into unique edges; see :func:`_unique_edges`."""
    acc = _EdgeAccumulator(memory_limit_mb, stats)
    toks_u: List[str] = []
    toks_v: List[str] = []
    linenos: List[int] = []
    lineno = 0

    def flush(rows: int) -> None:
        """Convert the first ``rows`` pending rows into one batch."""
        batch_lines = linenos[:rows]
        u = _tokens_to_int64(toks_u[:rows], batch_lines)
        v = _tokens_to_int64(toks_v[:rows], batch_lines)
        loops = u == v
        if loops.any():
            if self_loops == "error":
                where = int(np.argmax(loops))
                raise IngestError(
                    f"edge list line {batch_lines[where]}: self loop "
                    f"{int(u[where])} -> {int(v[where])} "
                    f"(self_loops='error')"
                )
            stats.self_loops_dropped += int(loops.sum())
            keep = ~loops
            u, v = u[keep], v[keep]
        acc.add(u, v, batch_lines[-1])
        del toks_u[:rows], toks_v[:rows], linenos[:rows]

    def parse_lines(text: str) -> None:
        nonlocal lineno
        for raw in text.splitlines():
            lineno += 1
            stats.lines += 1
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                stats.comment_lines += 1
                if stats.declared_nodes is None and stats.declared_edges is None:
                    nodes, edges = _parse_header_counts(line)
                    stats.declared_nodes = nodes
                    stats.declared_edges = edges
                continue
            u, v = split_edge_line(line, sep, lineno)
            toks_u.append(u)
            toks_v.append(v)
            linenos.append(lineno)
            stats.edge_lines += 1
            if len(toks_u) >= chunk_lines:
                flush(chunk_lines)

    def parse_block(text: str) -> bool:
        nonlocal lineno
        split = _split_block(text, 2)
        if split is None:
            return False
        tokens, rows, lines = split
        toks_u.extend(tokens[0::2])
        toks_v.extend(tokens[1::2])
        linenos.extend((rows + (lineno + 1)).tolist())
        lineno += lines
        stats.lines += lines
        stats.edge_lines += rows.size
        while len(toks_u) >= chunk_lines:
            flush(chunk_lines)
        return True

    _route_blocks(source, parse_lines, parse_block if sep is None else None)
    if toks_u:
        flush(len(toks_u))
    return _unique_edges(*acc.concatenated(), duplicates, stats)


def _unique_edges(
    u: np.ndarray, v: np.ndarray, duplicates: str, stats: IngestStats,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical unique edges in compact ids, sorted by ``(lo, hi)``.

    Returns ``(lo, hi, ids)``: ``ids`` is the sorted distinct original
    ids, and ``lo < hi`` index into it.  Duplicates (the same unordered
    pair, in either direction) are found by sorting one packed key
    ``lo * n + hi`` over the compact ids, where ``n <= 2m`` keeps the
    key in int64.
    """
    if u.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    max_id = int(hi.max())
    if lo.min() >= 0 and max_id < 2 * lo.size:
        # Ids can be dense only below the endpoint count: mark them
        # instead of sorting every endpoint.
        seen = np.zeros(max_id + 1, dtype=bool)
        seen[lo] = True
        seen[hi] = True
        ids = np.flatnonzero(seen)
        if ids.size <= max_id:
            rank = np.cumsum(seen) - 1
            lo, hi = rank[lo], rank[hi]
    else:
        ids = np.unique(np.concatenate([lo, hi]))
        lo = np.searchsorted(ids, lo)
        hi = np.searchsorted(ids, hi)
    n = ids.size
    key = lo * n + hi
    key.sort()
    dup = key[1:] == key[:-1]
    n_dup = int(np.count_nonzero(dup))
    if n_dup:
        if duplicates == "error":
            a, b = divmod(int(key[np.argmax(dup)]), n)
            raise IngestError(
                f"duplicate edge ({int(ids[a])}, {int(ids[b])}) "
                f"appears more than once (duplicates='error')"
            )
        stats.duplicates_dropped += n_dup
        key = key[np.concatenate(([True], ~dup))]
    lo, hi = np.divmod(key, n)
    return lo, hi, ids


def _assemble_csr(
    lo: np.ndarray,
    hi: np.ndarray,
    ids: np.ndarray,
    stats: IngestStats,
) -> Tuple[CSRGraph, Dict[str, int]]:
    """Honour the header and build the CSR graph from compact edges.

    Returns the graph plus the ``original id -> dense id`` map (empty
    when ids were already dense, meaning the map is the identity).
    """
    declared = stats.declared_nodes
    if ids.size and ids[0] < 0:
        raise IngestError("vertex ids must be non-negative")
    distinct = int(ids.size)
    max_id = int(ids[-1]) if distinct else -1

    if stats.declared_edges is not None and stats.declared_edges != lo.size:
        raise IngestError(
            f"header/body disagreement: header declares "
            f"{stats.declared_edges} edges, file yields {lo.size} "
            f"(after {stats.self_loops_dropped} self loop(s) and "
            f"{stats.duplicates_dropped} duplicate(s) dropped)"
        )
    if declared is not None and declared < distinct:
        raise IngestError(
            f"header/body disagreement: header declares {declared} "
            f"nodes, edge rows name {distinct} distinct vertices"
        )

    dense = distinct == max_id + 1  # ids already form a 0..max prefix
    labels: Optional[List[str]] = None
    mapping: Dict[str, int] = {}
    if dense:
        n = max(declared or 0, distinct)
    else:
        # Original ids survive as labels.  Header padding on top of
        # relabelled ids would be ambiguous (which ids were the isolated
        # ones?), so declared > distinct is only honoured for dense
        # inputs.
        if declared is not None and declared > distinct:
            raise IngestError(
                f"header/body disagreement: header declares {declared} "
                f"nodes but the edge rows use sparse ids "
                f"({distinct} distinct, max {max_id}) — cannot tell "
                f"which ids the isolated vertices carry"
            )
        n = distinct
        labels = [str(i) for i in ids.tolist()]
        mapping = {label: i for i, label in enumerate(labels)}
        stats.relabelled = True
    graph = CSRGraph.from_edges(n, lo, hi, None, labels)
    return graph, mapping


def ingest_edge_list(
    source: PathOrFile,
    *,
    sep: Optional[str] = None,
    self_loops: str = "skip",
    duplicates: str = "skip",
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    memory_limit_mb: Optional[float] = None,
    with_stats: bool = False,
):
    """Stream an edge-list file into a :class:`CSRGraph`.

    Parameters
    ----------
    source:
        Path or text handle.  ``#`` comments and blank lines are
        skipped; a ``# nodes N edges M`` (or SNAP ``# Nodes: N
        Edges: M``) header is validated against the body — disagreement
        is an :class:`IngestError`, and for dense ids a larger declared
        node count pads isolated vertices (matching
        :func:`repro.graph.io.read_edge_list`).
    sep:
        Field separator (``None`` = any whitespace, the SNAP default).
    self_loops / duplicates:
        ``"skip"`` drops them (counted in the stats), ``"error"``
        raises.  A duplicate is the same unordered pair, whichever
        direction each occurrence was written in.
    chunk_lines:
        Rows per numpy conversion batch.
    memory_limit_mb:
        Ceiling on the accumulated int64 edge buffers, checked after
        every chunk; tripping it raises mid-file.
    with_stats:
        Also return the :class:`IngestStats` for the run.

    Ids need not be dense: sparse ids are compacted to ``0..n-1`` with
    the original ids kept as labels.  No python-dict adjacency is built
    at any point.
    """
    _check_edge_policy("self_loops", self_loops)
    _check_edge_policy("duplicates", duplicates)
    if chunk_lines < 1:
        raise IngestError(f"chunk_lines must be >= 1, got {chunk_lines}")
    stats = IngestStats()
    lo, hi, ids = _parse_edges(
        source, sep, self_loops, duplicates, chunk_lines,
        memory_limit_mb, stats,
    )
    graph, _ = _assemble_csr(lo, hi, ids, stats)
    if with_stats:
        return graph, stats
    return graph


def ingest_attributes(
    source: PathOrFile,
    kind: str,
    *,
    label_to_id: Optional[Dict[str, int]] = None,
    n: Optional[int] = None,
    on_unknown: str = "error",
    stats: Optional[IngestStats] = None,
) -> Dict[int, Any]:
    """Stream an attribute file into a ``dense id -> value`` dict.

    ``label_to_id`` maps file labels to dense ids (the ingester's
    relabel map); when ``None``, labels must be the dense ids
    themselves, bounded by ``n`` when given.  ``on_unknown`` decides
    what a label with no mapped vertex does: ``"error"`` (default) or
    ``"skip"`` — the readers' add-isolated-vertex behaviour is not
    available here, because a built CSR cannot grow.  A malformed line
    (wrong field count, a bad number) raises :class:`IngestError`
    naming its line.
    """
    if on_unknown not in ("error", "skip"):
        raise IngestError(
            f"on_unknown must be 'error' or 'skip', got {on_unknown!r}"
        )
    out: Dict[int, Any] = {}
    lineno = 0

    def parse_lines(text: str) -> None:
        nonlocal lineno
        for raw in text.splitlines():
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            label, value = parse_attribute_record(line, kind, lineno)
            if label_to_id is not None:
                ident = label_to_id.get(label)
            else:
                try:
                    ident = int(label)
                except ValueError:
                    ident = None
                if ident is not None and (
                    ident < 0 or (n is not None and ident >= n)
                ):
                    ident = None
            if ident is None:
                if on_unknown == "error":
                    raise IngestError(
                        f"attribute line {lineno}: label {label!r} names no "
                        f"vertex of the ingested graph"
                    )
                continue
            out[ident] = value
            if stats is not None:
                stats.attribute_lines += 1

    def parse_points(text: str) -> bool:
        """One block of ``v x y`` lines, if every label names a vertex
        and every number casts."""
        nonlocal lineno
        split = _split_block(text, 3)
        if split is None:
            return False
        tokens, _, lines = split
        labels = tokens[0::3]
        try:
            xs = np.array(tokens[1::3], dtype=np.float64).tolist()
            ys = np.array(tokens[2::3], dtype=np.float64).tolist()
            ids = (
                None if label_to_id is not None
                else np.array(labels, dtype=np.int64)
            )
        except (ValueError, OverflowError):
            return False  # the line parser raises or skips, by line
        if ids is None:
            idents = list(map(label_to_id.get, labels))
            if None in idents:
                return False
        else:
            if ids.size and (
                ids.min() < 0 or (n is not None and ids.max() >= n)
            ):
                return False
            idents = ids.tolist()
        out.update(zip(idents, zip(xs, ys)))
        lineno += lines
        if stats is not None:
            stats.attribute_lines += len(idents)
        return True

    _route_blocks(source, parse_lines, parse_points if kind == "point" else None)
    return out


def ingest_attributed_graph(
    edge_source: PathOrFile,
    attr_source: PathOrFile,
    kind: str,
    *,
    sep: Optional[str] = None,
    self_loops: str = "skip",
    duplicates: str = "skip",
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    memory_limit_mb: Optional[float] = None,
    on_unknown: str = "skip",
    with_stats: bool = False,
):
    """Stream edges + attributes into one attributed :class:`CSRGraph`.

    The attribute pass reuses the edge pass's relabel map, so attribute
    files keyed by original SNAP ids line up with the compacted graph.
    ``on_unknown`` defaults to ``"skip"`` here: real attribute dumps
    routinely cover vertices the edge file never names.
    """
    _check_edge_policy("self_loops", self_loops)
    _check_edge_policy("duplicates", duplicates)
    if chunk_lines < 1:
        raise IngestError(f"chunk_lines must be >= 1, got {chunk_lines}")
    stats = IngestStats()
    lo, hi, ids = _parse_edges(
        edge_source, sep, self_loops, duplicates, chunk_lines,
        memory_limit_mb, stats,
    )
    # Assemble once without attributes to learn the relabel map, then
    # attach the attribute dict (values only — never adjacency).
    graph, mapping = _assemble_csr(lo, hi, ids, stats)
    attributes = ingest_attributes(
        attr_source, kind,
        label_to_id=mapping if stats.relabelled else None,
        n=graph.vertex_count,
        on_unknown=on_unknown,
        stats=stats,
    )
    if attributes:
        graph = CSRGraph(
            graph.indptr, graph.indices, attributes,
            [graph.label(u) for u in graph.vertices()]
            if stats.relabelled else None,
        )
    if with_stats:
        return graph, stats
    return graph


__all__ = [
    "DEFAULT_CHUNK_LINES",
    "EDGE_POLICIES",
    "IngestStats",
    "ingest_attributed_graph",
    "ingest_attributes",
    "ingest_edge_list",
    "iter_raw_lines",
]
