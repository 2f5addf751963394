"""Plain-text graph IO.

The paper's datasets ship as SNAP-style edge lists plus per-vertex
attribute files (geo check-ins for Gowalla/Brightkite, keyword lists for
DBLP, interest lists for Pokec).  These readers/writers let downstream
users load the real files when they have them; the benchmark suite uses
the synthetic analogs in :mod:`repro.datasets` instead.

Formats
-------
Edge list: one ``u<sep>v`` pair per line; ``#`` comments ignored.
Attributes, three kinds selected by ``kind``:

* ``"point"``  — ``vertex x y`` (geo coordinate, floats)
* ``"set"``    — ``vertex item1 item2 ...`` (interest/keyword set)
* ``"counter"``— ``vertex item:count item:count ...`` (counted keywords,
  the DBLP "attended conferences / published journals" multiset)

A malformed line raises :class:`~repro.exceptions.IngestError` naming
its line, the error :mod:`repro.graph.ingest` raises for it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple, Union

from repro.exceptions import GraphError, IngestError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint

PathOrFile = Union[str, os.PathLike, TextIO]

#: Accepted values of the ``self_loops`` / ``duplicates`` policy flags
#: (shared with :mod:`repro.graph.ingest`).
EDGE_POLICIES = ("skip", "error")

#: Characters per raw read of the streaming line splitter.
_READ_CHARS = 1 << 20


def _open_for_read(source: PathOrFile):
    if hasattr(source, "read"):
        return source, False
    # newline="" turns off the handle's own translation; the splitter
    # below handles every line-ending convention identically for paths
    # and caller-supplied objects.
    return open(source, "r", encoding="utf-8", newline=""), True


def iter_blocks(source: PathOrFile, read_chars: Optional[int] = None) -> Iterator[str]:
    """Stream the text in blocks of about ``read_chars`` characters
    (default: ``_READ_CHARS``, read at call time).

    Each block ends right after its last ``\\n``, so no block splits a
    line or a ``\\r\\n`` pair, and a file's lines are its blocks'
    ``splitlines()``.  A read with no ``\\n`` at all (a bare-``\\r``
    dump) is cut after its last ``\\r`` that has a character after it,
    so memory stays about one block plus one line.
    """
    fh, should_close = _open_for_read(source)
    try:
        carry = ""
        while True:
            chunk = fh.read(read_chars or _READ_CHARS)
            if not chunk:
                break
            buf = carry + chunk
            cut = buf.rfind("\n") + 1 or buf.rfind("\r", 0, len(buf) - 1) + 1
            if cut:
                yield buf[:cut]
            carry = buf[cut:]
        if carry:
            yield carry
    finally:
        if should_close:
            fh.close()


def iter_raw_lines(source: PathOrFile, read_chars: Optional[int] = None) -> Iterator[str]:
    """Stream logical lines with universal newline handling.

    Splits on ``\\n``, ``\\r\\n``, bare ``\\r`` (classic-Mac dumps) and
    every other break of ``str.splitlines``, regardless of how the
    handle was opened — a caller-supplied ``io.StringIO`` gets the same
    lines as a path, so a stray ``\\r`` can never survive into a token
    and silently change labels or fingerprints.  Lines are yielded
    without their terminators, from :func:`iter_blocks`.
    """
    for block in iter_blocks(source, read_chars):
        yield from block.splitlines()


def _check_edge_policy(name: str, value: str) -> None:
    if value not in EDGE_POLICIES:
        raise IngestError(
            f"{name} policy must be one of {EDGE_POLICIES}, got {value!r}"
        )


def _open_for_write(target: PathOrFile):
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8"), True


def _parse_vertex_count_header(line: str) -> Optional[int]:
    """Declared vertex count from a ``# nodes N edges M`` header line.

    :func:`write_edge_list` emits this header so isolated (possibly
    attributeless) vertices survive the round trip; generic SNAP
    comments return ``None`` and are ignored as before.
    """
    parts = line.split()
    if len(parts) >= 3 and parts[0] == "#" and parts[1] == "nodes":
        try:
            return int(parts[2])
        except ValueError:
            return None
    return None


def split_edge_line(line: str, sep: Optional[str], lineno: int) -> List[str]:
    """The two fields of a stripped edge-list line, for both edge
    readers; any other field count is an :class:`IngestError`."""
    parts = line.split(sep)
    if len(parts) != 2:
        raise IngestError(
            f"edge list line {lineno}: expected exactly two fields, "
            f"got {len(parts)} in {line!r}"
        )
    return parts


def _build_from_edge_lines(
    builder: GraphBuilder,
    source: PathOrFile,
    sep: Optional[str],
    self_loops: str = "skip",
    duplicates: str = "skip",
) -> None:
    """Feed an edge-list file into ``builder``, honouring the vertex-count
    header: trailing isolated vertices (which have no edge lines to name
    them) are padded back in under their default labels."""
    _check_edge_policy("self_loops", self_loops)
    _check_edge_policy("duplicates", duplicates)
    declared: Optional[int] = None
    seen: set = set()
    for lineno, raw in enumerate(iter_raw_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if declared is None:
                declared = _parse_vertex_count_header(line)
            continue
        a, b = split_edge_line(line, sep, lineno)
        if a == b:
            if self_loops == "error":
                raise IngestError(
                    f"edge list line {lineno}: self loop on {a!r}"
                )
            continue  # real SNAP dumps contain a few self loops
        pair = (a, b) if a <= b else (b, a)
        if pair in seen:
            if duplicates == "error":
                raise IngestError(
                    f"edge list line {lineno}: duplicate edge "
                    f"({pair[0]!r}, {pair[1]!r})"
                )
            continue
        seen.add(pair)
        builder.add_edge(a, b)
    if declared is not None:
        candidate = builder.vertex_count
        while builder.vertex_count < declared:
            label = str(candidate)
            candidate += 1
            try:
                builder.id_of(label)
            except GraphError:
                builder.add_vertex(label)


def read_edge_list(
    source: PathOrFile,
    sep: Optional[str] = None,
    *,
    self_loops: str = "skip",
    duplicates: str = "skip",
) -> AttributedGraph:
    """Load an edge-list file into an :class:`AttributedGraph`.

    Vertex labels are kept (accessible through ``graph.label``); ids are
    assigned in order of first appearance.  ``self_loops`` and
    ``duplicates`` take the ingester's policy values (``"skip"`` — the
    default, matching real SNAP dumps — or ``"error"``).  A
    ``# nodes N edges M`` header (as written by :func:`write_edge_list`)
    restores isolated vertices, so a graph with attributeless isolated
    vertices round-trips losslessly.  All line-ending conventions are
    accepted, including from caller-supplied file objects.
    """
    builder = GraphBuilder()
    _build_from_edge_lines(builder, source, sep, self_loops, duplicates)
    return builder.build()


def parse_attribute_line(line: str, kind: str) -> Tuple[str, Any]:
    """Parse one attribute line into ``(vertex_label, value)``.

    See the module docstring for the three ``kind`` formats.
    """
    parts = line.split()
    if not parts:
        raise GraphError("empty attribute line")
    label = parts[0]
    if kind == "point":
        if len(parts) != 3:
            raise GraphError(f"point attribute needs 'v x y', got {line!r}")
        return label, (float(parts[1]), float(parts[2]))
    if kind == "set":
        return label, frozenset(parts[1:])
    if kind == "counter":
        # Counts stay ints when written as ints: ``graph_fingerprint``
        # reprs counter values, so coercing 2 -> 2.0 would silently
        # change a graph's fingerprint across a save/load round trip.
        counts: Dict[str, float] = {}
        for token in parts[1:]:
            key, _, num = token.rpartition(":")
            if not key:
                raise GraphError(
                    f"counter attribute token {token!r} is not 'item:count'"
                )
            try:
                value: Any = int(num)
            except ValueError:
                value = float(num)
            counts[key] = counts.get(key, 0) + value
        return label, counts
    raise GraphError(f"unknown attribute kind {kind!r}")


def parse_attribute_record(line: str, kind: str, lineno: int) -> Tuple[str, Any]:
    """:func:`parse_attribute_line` for both attribute readers; a
    malformed line is an :class:`IngestError` naming ``lineno``."""
    try:
        return parse_attribute_line(line, kind)
    except (GraphError, ValueError) as exc:
        raise IngestError(f"attribute line {lineno}: {exc}") from None


def read_attributes(source: PathOrFile, kind: str) -> Dict[str, Any]:
    """Load a whole attribute file into ``label -> value``."""
    out: Dict[str, Any] = {}
    for lineno, raw in enumerate(iter_raw_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, value = parse_attribute_record(line, kind, lineno)
        out[label] = value
    return out


def read_attributed_graph(
    edge_source: PathOrFile,
    attr_source: PathOrFile,
    kind: str,
    sep: Optional[str] = None,
    *,
    self_loops: str = "skip",
    duplicates: str = "skip",
) -> AttributedGraph:
    """Load edges + attributes in one call.

    Vertices that appear only in the attribute file are added as isolated
    vertices; vertices missing an attribute keep ``None`` (similarity
    metrics raise :class:`MissingAttributeError` if they are reached,
    which preprocessing normally prevents by k-core pruning).  The
    ``self_loops``/``duplicates`` policy flags match
    :func:`read_edge_list`.
    """
    builder = GraphBuilder()
    _build_from_edge_lines(builder, edge_source, sep, self_loops, duplicates)
    for label, value in read_attributes(attr_source, kind).items():
        builder.set_attribute(label, value)
    return builder.build()


def graph_fingerprint(graph: AttributedGraph) -> str:
    """Fingerprint v2 of a dict graph: :func:`~repro.graph.fingerprint.csr_fingerprint`
    of its CSR freeze, so both forms of one graph share one digest.

    A pure function of the edges and attributes (see
    :mod:`repro.graph.fingerprint`), independent of adjacency-set
    iteration order and of ``PYTHONHASHSEED``.  The freeze walks every
    adjacency set, so a caller holding the CSR form should hash that.
    """
    return csr_fingerprint(CSRGraph.from_attributed(graph))


def write_edge_list(graph: AttributedGraph, target: PathOrFile) -> None:
    """Write ``graph`` as a label edge list (one edge per line)."""
    fh, should_close = _open_for_write(target)
    try:
        fh.write(f"# nodes {graph.vertex_count} edges {graph.edge_count}\n")
        for u, v in graph.edges():
            fh.write(f"{graph.label(u)}\t{graph.label(v)}\n")
    finally:
        if should_close:
            fh.close()


def write_attributes(graph: AttributedGraph, target: PathOrFile, kind: str) -> None:
    """Write vertex attributes in the format accepted by the readers."""
    fh, should_close = _open_for_write(target)
    try:
        for u in graph.vertices():
            if not graph.has_attribute(u):
                continue
            value = graph.attribute(u)
            if kind == "point":
                x, y = value
                fh.write(f"{graph.label(u)} {x} {y}\n")
            elif kind == "set":
                items = " ".join(sorted(value))
                fh.write(f"{graph.label(u)} {items}\n")
            elif kind == "counter":
                items = " ".join(
                    f"{key}:{num}" for key, num in sorted(value.items())
                )
                fh.write(f"{graph.label(u)} {items}\n")
            else:
                raise GraphError(f"unknown attribute kind {kind!r}")
    finally:
        if should_close:
            fh.close()
