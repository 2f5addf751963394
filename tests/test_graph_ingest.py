"""Streaming edge-list ingester: malformed inputs, policies, scale.

The malformed-input matrix pins the contract from the issue: every
failure mode is a typed :class:`IngestError`, and a failed ingest never
hands back a partially-built CSR.  The instrumentation-hook test pins
the core performance claim — the streaming path builds numpy batches
straight into CSR form without ever touching the python-dict adjacency
types (``GraphBuilder`` / ``AttributedGraph``).
"""

import io
import random

import numpy as np
import pytest

import repro.graph.ingest as ingest_mod
import repro.graph.io as graph_io
from repro.exceptions import IngestError
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.ingest import (
    DEFAULT_CHUNK_LINES,
    IngestStats,
    ingest_attributed_graph,
    ingest_attributes,
    ingest_edge_list,
)
from repro.graph.io import graph_fingerprint, read_attributed_graph, read_edge_list


class TestBasicIngest:
    def test_dense_ids(self):
        g = ingest_edge_list(io.StringIO("0 1\n1 2\n"))
        assert isinstance(g, CSRGraph)
        assert g.vertex_count == 3
        assert g.edge_count == 2

    def test_sparse_ids_relabelled(self):
        g, stats = ingest_edge_list(
            io.StringIO("10 700\n700 42\n"), with_stats=True
        )
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert stats.relabelled
        assert {g.label(u) for u in g.vertices()} == {"10", "42", "700"}

    def test_header_pads_isolated_vertices(self):
        g = ingest_edge_list(io.StringIO("# nodes 5 edges 1\n0 1\n"))
        assert g.vertex_count == 5
        assert g.edge_count == 1

    def test_snap_header_form(self):
        g, stats = ingest_edge_list(
            io.StringIO("# Nodes: 4 Edges: 2\n0 1\n1 2\n"), with_stats=True
        )
        assert stats.declared_nodes == 4
        assert stats.declared_edges == 2
        assert g.vertex_count == 4

    def test_crlf_input(self):
        g = ingest_edge_list(io.StringIO("0 1\r\n1 2\r\n"))
        assert g.edge_count == 2

    def test_custom_separator(self):
        g = ingest_edge_list(io.StringIO("0,1\n1,2\n"), sep=",")
        assert g.edge_count == 2

    def test_matches_reader_fingerprint(self):
        text = "# nodes 4 edges 3\n0 1\n1 2\n2 3\n"
        g_csr = ingest_edge_list(io.StringIO(text))
        g_ref = read_edge_list(io.StringIO(text))
        assert csr_fingerprint(g_csr) == graph_fingerprint(g_ref)

    def test_empty_file(self):
        g = ingest_edge_list(io.StringIO(""))
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_comments_and_blanks_only(self):
        g, stats = ingest_edge_list(
            io.StringIO("# hi\n\n# there\n"), with_stats=True
        )
        assert g.vertex_count == 0
        assert stats.comment_lines == 2


class TestMalformedInputs:
    """Every malformed input is a typed IngestError — never a partial CSR."""

    def test_ragged_row_three_fields(self):
        with pytest.raises(IngestError, match="exactly two fields"):
            ingest_edge_list(io.StringIO("0 1\n1 2 3\n"))

    def test_ragged_row_one_field(self):
        with pytest.raises(IngestError, match="exactly two fields"):
            ingest_edge_list(io.StringIO("0 1\n7\n"))

    def test_non_integer_ids(self):
        with pytest.raises(IngestError, match="non-integer vertex id"):
            ingest_edge_list(io.StringIO("0 1\nalice bob\n"))

    def test_non_integer_reports_line(self):
        with pytest.raises(IngestError, match="line 3"):
            ingest_edge_list(io.StringIO("0 1\n1 2\nx 4\n"))

    def test_negative_ids(self):
        with pytest.raises(IngestError, match="non-negative"):
            ingest_edge_list(io.StringIO("-1 2\n"))

    def test_out_of_range_id(self):
        with pytest.raises(IngestError, match="out-of-range"):
            ingest_edge_list(io.StringIO(f"0 {2 ** 70}\n"))

    def test_header_declares_fewer_nodes_than_body(self):
        with pytest.raises(IngestError, match="header/body disagreement"):
            ingest_edge_list(io.StringIO("# nodes 2 edges 2\n0 1\n1 2\n"))

    def test_header_declares_wrong_edge_count(self):
        with pytest.raises(IngestError, match="header/body disagreement"):
            ingest_edge_list(io.StringIO("# nodes 3 edges 5\n0 1\n1 2\n"))

    def test_header_padding_refused_for_sparse_ids(self):
        with pytest.raises(IngestError, match="sparse ids"):
            ingest_edge_list(io.StringIO("# nodes 9 edges 1\n10 700\n"))

    def test_bad_chunk_lines(self):
        with pytest.raises(IngestError, match="chunk_lines"):
            ingest_edge_list(io.StringIO("0 1\n"), chunk_lines=0)

    def test_bad_memory_limit(self):
        with pytest.raises(IngestError, match="memory_limit_mb"):
            ingest_edge_list(io.StringIO("0 1\n"), memory_limit_mb=-1)

    def test_bad_policy(self):
        with pytest.raises(IngestError, match="duplicates"):
            ingest_edge_list(io.StringIO("0 1\n"), duplicates="maybe")

    def test_memory_ceiling_trips_mid_file(self):
        # tiny chunks + a ceiling below the total edge volume: the
        # error fires part-way through the stream, not at the end
        rows = "\n".join(f"{i} {i + 1}" for i in range(5000))
        with pytest.raises(IngestError, match="memory ceiling"):
            ingest_edge_list(
                io.StringIO(rows), chunk_lines=100,
                memory_limit_mb=0.01,
            )

    def test_failure_never_yields_partial_graph(self):
        # the call raises; there is no object to be partial
        src = io.StringIO("0 1\n1 2\nbad row here\n")
        result = None
        with pytest.raises(IngestError):
            result = ingest_edge_list(src)
        assert result is None


class TestPolicies:
    def test_self_loops_skipped_and_counted(self):
        g, stats = ingest_edge_list(
            io.StringIO("0 0\n0 1\n2 2\n"), with_stats=True
        )
        assert g.edge_count == 1
        assert stats.self_loops_dropped == 2

    def test_self_loops_error(self):
        with pytest.raises(IngestError, match="self loop"):
            ingest_edge_list(io.StringIO("0 1\n1 1\n"), self_loops="error")

    def test_duplicates_skipped_and_counted(self):
        g, stats = ingest_edge_list(
            io.StringIO("0 1\n1 0\n0 1\n"), with_stats=True
        )
        assert g.edge_count == 1
        assert stats.duplicates_dropped == 2

    def test_duplicates_error_catches_reversed_pair(self):
        with pytest.raises(IngestError, match="duplicate"):
            ingest_edge_list(io.StringIO("0 1\n1 0\n"), duplicates="error")

    def test_duplicate_check_spans_chunks(self):
        src = io.StringIO("0 1\n1 2\n2 3\n1 0\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_edge_list(src, chunk_lines=2, duplicates="error")


class TestChunking:
    def test_result_independent_of_chunk_size(self):
        text = "\n".join(f"{i % 50} {(i * 7 + 1) % 50}" for i in range(400))
        fps = set()
        for chunk in (1, 7, 64, 100000):
            g = ingest_edge_list(io.StringIO(text), chunk_lines=chunk)
            fps.add(csr_fingerprint(g))
        assert len(fps) == 1

    def test_stats_count_chunks(self):
        rows = "\n".join(f"{i} {i + 1}" for i in range(10))
        __, stats = ingest_edge_list(
            io.StringIO(rows), chunk_lines=3, with_stats=True
        )
        assert stats.chunks == 4  # 3+3+3+1
        assert stats.edge_lines == 10
        assert stats.peak_buffer_bytes > 0


class TestAttributes:
    # sparse numeric ids: the ingester relabels to 0..2, and the
    # attribute pass must follow the relabel map
    EDGES = "10 20\n20 30\n"
    ATTRS = "10 rock\n20 jazz\n30 pop\n"

    def test_attributed_ingest_matches_reader(self):
        g_csr = ingest_attributed_graph(
            io.StringIO(self.EDGES), io.StringIO(self.ATTRS), "set"
        )
        g_ref = read_attributed_graph(
            io.StringIO(self.EDGES), io.StringIO(self.ATTRS), "set"
        )
        assert csr_fingerprint(g_csr) == graph_fingerprint(g_ref)

    def test_unknown_label_skipped_by_default(self):
        g = ingest_attributed_graph(
            io.StringIO(self.EDGES),
            io.StringIO(self.ATTRS + "99 metal\n"), "set",
        )
        assert g.vertex_count == 3

    def test_unknown_label_error_mode(self):
        with pytest.raises(IngestError, match="names no vertex"):
            ingest_attributed_graph(
                io.StringIO(self.EDGES),
                io.StringIO("99 metal\n"), "set",
                on_unknown="error",
            )

    def test_ingest_attributes_dense_ids(self):
        attrs = ingest_attributes(
            io.StringIO("0 a b\n2 c\n"), "set", n=3
        )
        assert attrs == {0: frozenset({"a", "b"}), 2: frozenset({"c"})}

    def test_ingest_attributes_out_of_range_dense_id(self):
        with pytest.raises(IngestError, match="names no vertex"):
            ingest_attributes(io.StringIO("7 a\n"), "set", n=3)

    def test_bad_on_unknown(self):
        with pytest.raises(IngestError, match="on_unknown"):
            ingest_attributes(io.StringIO(""), "set", on_unknown="wat")


class TestNoDictAdjacency:
    """The streaming path must never build python-dict adjacency."""

    def test_ingest_avoids_builder_and_attributed_graph(self, monkeypatch):
        import repro.graph.attributed_graph as ag_mod
        import repro.graph.builder as builder_mod

        def boom(*args, **kwargs):
            raise AssertionError(
                "streaming ingest touched a python-dict adjacency type"
            )

        monkeypatch.setattr(builder_mod.GraphBuilder, "add_edge", boom)
        monkeypatch.setattr(builder_mod.GraphBuilder, "__init__", boom)
        monkeypatch.setattr(ag_mod.AttributedGraph, "__init__", boom)

        rows = "\n".join(f"{i} {(i + 1) % 200}" for i in range(200))
        g, stats = ingest_edge_list(io.StringIO(rows), with_stats=True)
        assert g.edge_count == 200
        ga = ingest_attributed_graph(
            io.StringIO("0 1\n1 2\n"), io.StringIO("0 a\n1 b\n"), "set"
        )
        assert ga.has_attribute(0)


class TestScale:
    def test_million_edge_ingest_within_memory_ceiling(self):
        # ~1M edges on a 2**17-vertex ring-with-chords; the int64 edge
        # buffers total ~16 MB, so a 64 MB ceiling must hold throughout.
        n = 1 << 17
        m = 1_000_000
        rng = np.random.default_rng(7)
        u = rng.integers(0, n, size=m, dtype=np.int64)
        v = (u + rng.integers(1, n, size=m, dtype=np.int64)) % n
        buf = io.StringIO(
            "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))
        )
        g, stats = ingest_edge_list(
            buf, memory_limit_mb=64, with_stats=True,
        )
        assert g.vertex_count == n
        assert stats.edge_lines == m
        assert 0 < stats.peak_buffer_bytes <= 64 * 1024 * 1024
        # duplicates in the random draw are dropped, the rest survive
        assert g.edge_count == m - stats.duplicates_dropped \
            - stats.self_loops_dropped
        assert g.edge_count > 900_000


def _outcome(call):
    """``("ok", value)`` or ``("error", type name, message)`` of ``call()``."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared, never swallowed
        return ("error", type(exc).__name__, str(exc))


def _line_path_only(m):
    """Patch the block classifier to decline every block."""
    m.setattr(ingest_mod, "_split_block", lambda text, fields: None)


def _both_paths(monkeypatch, call):
    """Outcomes of ``call`` with the block path on and declined."""
    bulk = _outcome(call)
    with monkeypatch.context() as m:
        _line_path_only(m)
        line = _outcome(call)
    return bulk, line


def _snapshot(result):
    """Everything an ingest run hands back, in comparable form."""
    graph, stats = result
    return (
        graph.indptr.tolist(),
        graph.indices.tolist(),
        [graph.label(u) for u in graph.vertices()],
        repr(list(graph._attributes.items())),  # repr: nan == nan, order kept
        stats.to_dict(),
    )


_BREAKS = ["\n"] * 12 + ["\r\n", "\r", "\v", "\x1c"]


def _join(rows, rng):
    """Rows joined by mostly ``\\n`` with the odd other line break,
    blank or whitespace-only line, and no trailing newline at times."""
    out = []
    for row in rows:
        out.append(row)
        out.append(rng.choice(_BREAKS))
        if rng.random() < 0.05:
            out.append(rng.choice(["", " ", "\t", "  \t "]) + "\n")
    if rng.random() < 0.3:
        out.pop()
    return "".join(out)


def _edge_text(rng, sparse):
    n = rng.randint(2, 40)
    ids = (
        rng.sample(range(10, 10 ** 6), n) if sparse else list(range(n))
    )
    headers = [None, "# random graph"]
    if not sparse:
        headers.append(f"# Nodes: {n + 2}")  # pads isolated vertices
    header = rng.choice(headers)
    rows = [header] if header else []
    for _ in range(rng.randint(0, 120)):
        a, b = rng.choice(ids), rng.choice(ids)  # loops + duplicates too
        gap = rng.choice([" ", "\t", "  ", " \t"])
        lead = " " if rng.random() < 0.05 else ""
        rows.append(f"{lead}{a}{gap}{b}")
        if rng.random() < 0.04:
            rows.append(rng.choice(["# mid-file comment", "# café ünïcode"]))
    return _join(rows, rng), ids


def _point_text(rng, labels):
    rows = []
    for label in labels:
        if rng.random() < 0.1:
            continue  # a vertex without a point
        x = rng.choice(["1.5", "-0.0", "1e3", "+.5", "7", "2.25E-3", "nan"])
        y = repr(rng.uniform(-500, 500))
        rows.append(f"{label} {x}\t{y}")
        if rng.random() < 0.05:
            rows.append(f"{label} {y} {x}")  # a repeat overwrites
        if rng.random() < 0.04:
            rows.append(rng.choice(["# comment", "é 1 2", "99999999 3 4"]))
    rng.shuffle(rows)
    return _join(rows, rng)


class TestBlockPathEquivalence:
    """The block path gives what the line parser gives, field for field.

    Every run is repeated with the block classifier patched to decline,
    which sends every line through the line parser; a tiny read size
    spreads the oddities across many block boundaries.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(graph_io, "_READ_CHARS", 61)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_edge_lists(self, monkeypatch, seed):
        rng = random.Random(seed)
        text, _ = _edge_text(rng, sparse=seed % 2 == 1)
        chunk = rng.choice([1, 3, 16, DEFAULT_CHUNK_LINES])

        def run():
            return _snapshot(ingest_edge_list(
                io.StringIO(text), chunk_lines=chunk, with_stats=True,
            ))

        bulk, line = _both_paths(monkeypatch, run)
        assert bulk == line

    @pytest.mark.parametrize("seed", range(40))
    def test_random_point_files(self, monkeypatch, seed):
        rng = random.Random(1000 + seed)
        edges, ids = _edge_text(rng, sparse=seed % 2 == 1)
        points = _point_text(rng, ids + ["12345678"])
        chunk = rng.choice([2, 50])

        def run():
            return _snapshot(ingest_attributed_graph(
                io.StringIO(edges), io.StringIO(points), "point",
                chunk_lines=chunk, with_stats=True,
            ))

        bulk, line = _both_paths(monkeypatch, run)
        assert bulk == line

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dense_points(self, monkeypatch, seed):
        rng = random.Random(2000 + seed)
        points = _point_text(rng, [str(i) for i in range(30)] + ["-1"])
        for on_unknown in ("skip", "error"):
            def run():
                return repr(list(ingest_attributes(
                    io.StringIO(points), "point", n=25, on_unknown=on_unknown,
                ).items()))

            bulk, line = _both_paths(monkeypatch, run)
            assert bulk == line

    def test_block_path_taken(self, monkeypatch):
        calls = []
        real = ingest_mod._split_block
        monkeypatch.setattr(
            ingest_mod, "_split_block",
            lambda text, fields: calls.append(real(text, fields)) or calls[-1],
        )
        ingest_edge_list(io.StringIO("# h\n" + "0 1\n1 2\n" * 40))
        assert calls and all(c is not None for c in calls)

    def test_comment_lines_take_line_parser(self, monkeypatch):
        seen = []
        real = ingest_mod._split_block
        monkeypatch.setattr(
            ingest_mod, "_split_block",
            lambda text, fields: seen.append(text) or real(text, fields),
        )
        _, stats = ingest_edge_list(
            io.StringIO("# nodes 3 edges 2\n0 1\n1 2\n"), with_stats=True,
        )
        assert stats.declared_nodes == 3 and stats.comment_lines == 1
        assert not any("#" in text for text in seen)


MALFORMED = [
    ("0 1\n1 2 3\n", {}),
    ("0 1\n7\n", {}),
    ("0 1\nalice bob\n", {}),
    ("0 1\n1 2\nx 4\n", {}),
    ("0 1\n1 x\ny 2\n", {"chunk_lines": 2}),
    ("-1 2\n", {}),
    ("-1 2\n2 -1\n", {"duplicates": "error"}),
    (f"0 {2 ** 70}\n", {}),
    ("# nodes 2 edges 2\n0 1\n1 2\n", {}),
    ("# nodes 3 edges 5\n0 1\n1 2\n", {}),
    ("# nodes 9 edges 1\n10 700\n", {}),
    ("0 1\n1 1\n", {"self_loops": "error"}),
    ("0 1\n1 0\n", {"duplicates": "error"}),
    ("0 1\n1 2\n2 3\n1 0\n", {"chunk_lines": 2, "duplicates": "error"}),
    ("700 10\n10 700\n", {"duplicates": "error"}),
    ("0 1\nx 2\n3 4 5\n", {}),
    ("0 1\n1 2\nbad row here\n", {}),
    ("\n".join(f"{i} {i + 1}" for i in range(5000)),
     {"chunk_lines": 100, "memory_limit_mb": 0.01}),
]


@pytest.mark.parametrize("text, kwargs", MALFORMED)
@pytest.mark.parametrize("read_chars", [7, 1 << 20])
def test_malformed_edges_same_error_on_both_paths(
    monkeypatch, text, kwargs, read_chars,
):
    monkeypatch.setattr(graph_io, "_READ_CHARS", read_chars)
    bulk, line = _both_paths(
        monkeypatch, lambda: ingest_edge_list(io.StringIO(text), **kwargs),
    )
    assert bulk[0] == "error" and bulk[1] == "IngestError"
    assert bulk == line


MALFORMED_POINTS = [
    ("0 1 2\n1 a b\n", {"n": 3}),
    ("0 1 2\n1 2\n", {"n": 3}),
    ("0 1 2\n7 1 2\n", {"n": 3}),
    ("0 1 2\nzz 1 2\n", {"n": 3}),
    ("0 1 2\n-1 1 2\n", {}),
    ("0 1 2\n10 1 2\n", {"label_to_id": {"0": 0}}),
    ("0 1 2\n007 1 2\n", {"label_to_id": {"0": 0, "7": 1}}),
]


@pytest.mark.parametrize("text, kwargs", MALFORMED_POINTS)
def test_malformed_points_same_error_on_both_paths(monkeypatch, text, kwargs):
    bulk, line = _both_paths(
        monkeypatch,
        lambda: ingest_attributes(io.StringIO(text), "point", **kwargs),
    )
    assert bulk[0] == "error" and bulk[1] == "IngestError"
    assert "attribute line 2" in bulk[2]
    assert bulk == line


class TestTypedAttributeFailures:
    def test_non_numeric_point_coordinate(self):
        with pytest.raises(IngestError, match="attribute line 1:"):
            ingest_attributes(io.StringIO("0 a b\n"), "point")

    def test_point_line_with_two_fields(self):
        with pytest.raises(IngestError, match="attribute line 2: point"):
            ingest_attributes(io.StringIO("0 1 2\n1 5\n"), "point")

    def test_non_numeric_counter_count(self):
        with pytest.raises(IngestError, match="attribute line 1:"):
            ingest_attributes(io.StringIO("0 a:b\n"), "counter")


def test_from_edges_matches_lexsort_on_shuffled_input():
    rng = np.random.default_rng(3)
    n = 500
    pairs = np.unique(np.sort(rng.integers(0, n, (4000, 2)), axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rng.shuffle(pairs)
    flip = rng.random(len(pairs)) < 0.5
    eu = np.where(flip, pairs[:, 1], pairs[:, 0])
    ev = np.where(flip, pairs[:, 0], pairs[:, 1])
    g = CSRGraph.from_edges(n, eu, ev)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, dst[np.lexsort((dst, src))])
    assert g.indices.dtype == np.int64
