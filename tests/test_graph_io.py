"""Graph text IO: round-trips and format validation."""

import io

import pytest

from repro.exceptions import GraphError, IngestError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ingest import ingest_attributes, ingest_edge_list
from repro.graph.io import (
    graph_fingerprint,
    iter_raw_lines,
    parse_attribute_line,
    read_attributed_graph,
    read_attributes,
    read_edge_list,
    write_attributes,
    write_edge_list,
)


class TestReadEdgeList:
    def test_basic(self):
        src = io.StringIO("# comment\na b\nb c\n\n")
        g = read_edge_list(src)
        assert g.vertex_count == 3
        assert g.edge_count == 2

    def test_self_loops_skipped(self):
        g = read_edge_list(io.StringIO("a a\na b\n"))
        assert g.edge_count == 1

    def test_custom_separator(self):
        g = read_edge_list(io.StringIO("a,b\nb,c\n"), sep=",")
        assert g.edge_count == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("only-one-field\n"))

    def test_labels_preserved(self):
        g = read_edge_list(io.StringIO("alice bob\n"))
        labels = {g.label(u) for u in g.vertices()}
        assert labels == {"alice", "bob"}

    def test_file_path(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("x y\ny z\n")
        g = read_edge_list(path)
        assert g.edge_count == 2


def _raised(read, text, *args):
    with pytest.raises(Exception) as err:
        read(io.StringIO(text), *args)
    return type(err.value), str(err.value)


class TestReadersAgree:
    """The dict readers and the streaming ingester refuse a malformed
    file with the same typed error and message."""

    @pytest.mark.parametrize("text", [
        "0 1 2\n1 2\n",
        "0 1\n\n# note\n2\n",
        "0 1\n1\t2\t3\t4\n",
    ])
    def test_edge_rows(self, text):
        want = _raised(ingest_edge_list, text)
        assert want[0] is IngestError
        assert "expected exactly two fields" in want[1]
        assert _raised(read_edge_list, text) == want

    @pytest.mark.parametrize("text,kind", [
        ("0 1 2\n1 a b\n", "point"),
        ("0 1 2\n# note\n1 2\n", "point"),
        ("0 1 2 3\n", "point"),
        ("0 a:1\n\n1 b:x\n", "counter"),
        ("0 a:1 plain\n", "counter"),
    ])
    def test_attribute_lines(self, text, kind):
        want = _raised(ingest_attributes, text, kind)
        assert want[0] is IngestError
        assert want[1].startswith("attribute line ")
        assert _raised(read_attributes, text, kind) == want


class TestParseAttributeLine:
    def test_point(self):
        label, value = parse_attribute_line("u1 3.5 -2.0", "point")
        assert label == "u1"
        assert value == (3.5, -2.0)

    def test_point_wrong_arity(self):
        with pytest.raises(GraphError):
            parse_attribute_line("u1 3.5", "point")

    def test_set(self):
        label, value = parse_attribute_line("u2 rock jazz", "set")
        assert label == "u2"
        assert value == frozenset({"rock", "jazz"})

    def test_set_empty(self):
        __, value = parse_attribute_line("loner", "set")
        assert value == frozenset()

    def test_counter(self):
        label, value = parse_attribute_line("a vldb:3 sigmod:1.5", "counter")
        assert label == "a"
        assert value == {"vldb": 3.0, "sigmod": 1.5}

    def test_counter_merges_repeats(self):
        __, value = parse_attribute_line("a vldb:1 vldb:2", "counter")
        assert value == {"vldb": 3.0}

    def test_counter_bad_token(self):
        with pytest.raises(GraphError):
            parse_attribute_line("a noseparator", "counter")

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            parse_attribute_line("a b", "wat")


class TestRoundTrips:
    def _graph(self, kind):
        g = AttributedGraph(3, edges=[(0, 1), (1, 2)],
                            labels=["u0", "u1", "u2"])
        if kind == "point":
            values = [(0.0, 1.0), (2.5, 3.5), (4.0, 5.0)]
        elif kind == "set":
            values = [frozenset({"a"}), frozenset({"b", "c"}), frozenset({"d"})]
        else:
            values = [{"x": 1.0}, {"y": 2.0, "z": 1.0}, {"w": 3.0}]
        for u, v in enumerate(values):
            g.set_attribute(u, v)
        return g

    @pytest.mark.parametrize("kind", ["point", "set", "counter"])
    def test_write_read_attributes(self, kind, tmp_path):
        g = self._graph(kind)
        path = tmp_path / "attrs.txt"
        write_attributes(g, path, kind)
        attrs = read_attributes(path, kind)
        for u in g.vertices():
            assert attrs[g.label(u)] == g.attribute(u)

    def test_write_read_edges(self, tmp_path):
        g = self._graph("set")
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.edge_count == g.edge_count
        assert {g2.label(u) for u in g2.vertices()} == {"u0", "u1", "u2"}

    def test_read_attributed_graph(self, tmp_path):
        g = self._graph("point")
        epath, apath = tmp_path / "e.txt", tmp_path / "a.txt"
        write_edge_list(g, epath)
        write_attributes(g, apath, "point")
        g2 = read_attributed_graph(epath, apath, "point")
        assert g2.vertex_count == 3
        assert g2.edge_count == 2
        for u in g2.vertices():
            assert g2.attribute(u) is not None

class TestLosslessRoundTrips:
    """Regressions for gaps the persistent store would otherwise hit."""

    def test_isolated_vertices_survive_edge_round_trip(self, tmp_path):
        g = AttributedGraph(4, edges=[(0, 1)])
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.vertex_count == 4
        assert g2.edge_count == 1

    def test_isolated_attributeless_vertex_full_round_trip(self, tmp_path):
        # vertex 2 has no edges AND no attribute: only the header names it
        g = AttributedGraph(3, edges=[(0, 1)])
        g.set_attribute(0, frozenset({"a"}))
        g.set_attribute(1, frozenset({"b"}))
        epath, apath = tmp_path / "e.txt", tmp_path / "a.txt"
        write_edge_list(g, epath)
        write_attributes(g, apath, "set")
        g2 = read_attributed_graph(epath, apath, "set")
        assert g2.vertex_count == 3
        assert not g2.has_attribute(2)
        assert graph_fingerprint(g2) == graph_fingerprint(g)

    def test_header_pad_survives_label_collision(self):
        # a vertex labelled "2" must not block padding to the declared count
        src = io.StringIO("# nodes 3 edges 1\n2\t0\n")
        g = read_edge_list(src)
        assert g.vertex_count == 3

    def test_foreign_comments_still_ignored(self):
        src = io.StringIO("# Gowalla checkins\n# nodes not-a-number\na b\n")
        g = read_edge_list(src)
        assert g.vertex_count == 2

    def test_empty_set_profile_round_trip(self, tmp_path):
        g = AttributedGraph(2, edges=[(0, 1)])
        g.set_attribute(0, frozenset())
        g.set_attribute(1, frozenset({"q"}))
        path = tmp_path / "attrs.txt"
        write_attributes(g, path, "set")
        attrs = read_attributes(path, "set")
        assert attrs["0"] == frozenset()
        assert attrs["1"] == frozenset({"q"})

    def test_empty_counter_profile_round_trip(self, tmp_path):
        g = AttributedGraph(2, edges=[(0, 1)])
        g.set_attribute(0, {})
        g.set_attribute(1, {"a": 2})
        path = tmp_path / "attrs.txt"
        write_attributes(g, path, "counter")
        attrs = read_attributes(path, "counter")
        assert attrs["0"] == {}
        assert attrs["1"] == {"a": 2}

    def test_int_counter_values_stay_int(self):
        __, value = parse_attribute_line("a vldb:2 sigmod:1.5", "counter")
        assert value["vldb"] == 2 and isinstance(value["vldb"], int)
        assert value["sigmod"] == 1.5 and isinstance(value["sigmod"], float)

    def test_counter_round_trip_preserves_fingerprint(self, tmp_path):
        # repr-based fingerprints distinguish {"a": 2} from {"a": 2.0};
        # a write/read cycle must not flip int counts to float
        g = AttributedGraph(2, edges=[(0, 1)])
        g.set_attribute(0, {"a": 2, "b": 1.5})
        g.set_attribute(1, {"c": 7})
        epath, apath = tmp_path / "e.txt", tmp_path / "a.txt"
        write_edge_list(g, epath)
        write_attributes(g, apath, "counter")
        g2 = read_attributed_graph(epath, apath, "counter")
        assert graph_fingerprint(g2) == graph_fingerprint(g)

class TestLineEndings:
    """CRLF/CR regression: with ``sep=None``, a Windows edge file used to
    produce labels with a trailing ``\\r`` glued on (``"b\\r" != "b"``),
    silently doubling the vertex count."""

    def test_crlf_file_fixture(self, tmp_path):
        path = tmp_path / "edges_crlf.txt"
        path.write_bytes(b"# comment\r\na b\r\nb c\r\n")
        g = read_edge_list(path)
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert {g.label(u) for u in g.vertices()} == {"a", "b", "c"}

    def test_cr_only_file_fixture(self, tmp_path):
        path = tmp_path / "edges_cr.txt"
        path.write_bytes(b"a b\rb c\rc d\r")
        g = read_edge_list(path)
        assert g.edge_count == 3
        assert {g.label(u) for u in g.vertices()} == {"a", "b", "c", "d"}

    def test_mixed_endings_file_fixture(self, tmp_path):
        path = tmp_path / "edges_mixed.txt"
        path.write_bytes(b"a b\r\nb c\nc d\rd e\r\n")
        g = read_edge_list(path)
        assert g.edge_count == 4
        assert g.vertex_count == 5

    def test_crlf_stream(self):
        g = read_edge_list(io.StringIO("a b\r\nb c\r\n"))
        assert {g.label(u) for u in g.vertices()} == {"a", "b", "c"}

    def test_crlf_header_counts_respected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# nodes 4 edges 1\r\na b\r\n")
        g = read_edge_list(path)
        assert g.vertex_count == 4

    def test_crlf_with_custom_separator(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"a,b\r\nb,c\r\n")
        g = read_edge_list(path, sep=",")
        assert {g.label(u) for u in g.vertices()} == {"a", "b", "c"}

    def test_crlf_attributes(self, tmp_path):
        path = tmp_path / "attrs.txt"
        path.write_bytes(b"u1 rock jazz\r\nu2 pop\r\n")
        attrs = read_attributes(path, "set")
        assert attrs["u1"] == frozenset({"rock", "jazz"})
        assert attrs["u2"] == frozenset({"pop"})

    def test_crlf_attributed_graph_fingerprint(self, tmp_path):
        # byte-identical graphs whether the files use LF or CRLF
        lf_e, lf_a = tmp_path / "e_lf.txt", tmp_path / "a_lf.txt"
        lf_e.write_bytes(b"u1 u2\nu2 u3\n")
        lf_a.write_bytes(b"u1 x\nu2 y\nu3 z\n")
        crlf_e, crlf_a = tmp_path / "e_crlf.txt", tmp_path / "a_crlf.txt"
        crlf_e.write_bytes(b"u1 u2\r\nu2 u3\r\n")
        crlf_a.write_bytes(b"u1 x\r\nu2 y\r\nu3 z\r\n")
        g_lf = read_attributed_graph(lf_e, lf_a, "set")
        g_crlf = read_attributed_graph(crlf_e, crlf_a, "set")
        assert graph_fingerprint(g_crlf) == graph_fingerprint(g_lf)


class TestIterRawLines:
    def test_mixed_endings(self):
        src = io.StringIO("a\rb\r\nc\nd")
        assert list(iter_raw_lines(src)) == ["a", "b", "c", "d"]

    def test_crlf_straddles_read_boundary(self):
        # "\r" as the last char of one read, "\n" first of the next,
        # must still count as ONE line break
        src = io.StringIO("ab\r\ncd\r\nef")
        assert list(iter_raw_lines(src, read_chars=3)) == ["ab", "cd", "ef"]

    def test_cr_at_eof(self):
        assert list(iter_raw_lines(io.StringIO("ab\r"), read_chars=2)) == ["ab"]

    def test_unicode_line_breaks(self):
        src = io.StringIO("a b c\x85d")
        assert list(iter_raw_lines(src)) == ["a", "b", "c", "d"]

    def test_empty_source(self):
        assert list(iter_raw_lines(io.StringIO(""))) == []


class TestEdgePolicies:
    def test_self_loops_error(self):
        with pytest.raises(IngestError, match="self loop"):
            read_edge_list(io.StringIO("a a\n"), self_loops="error")

    def test_self_loops_skip_default(self):
        g = read_edge_list(io.StringIO("a a\na b\n"))
        assert g.edge_count == 1

    def test_duplicates_error(self):
        with pytest.raises(IngestError, match="duplicate"):
            read_edge_list(io.StringIO("a b\na b\n"), duplicates="error")

    def test_duplicates_error_catches_reversed_pair(self):
        with pytest.raises(IngestError, match="duplicate"):
            read_edge_list(io.StringIO("a b\nb a\n"), duplicates="error")

    def test_duplicates_skip_default(self):
        g = read_edge_list(io.StringIO("a b\nb a\na b\n"))
        assert g.edge_count == 1

    def test_bad_policy_value(self):
        with pytest.raises(IngestError, match="self_loops"):
            read_edge_list(io.StringIO("a b\n"), self_loops="wat")

    def test_policies_on_attributed_graph(self, tmp_path):
        epath, apath = tmp_path / "e.txt", tmp_path / "a.txt"
        epath.write_bytes(b"u1 u1\r\nu1 u2\r\n")
        apath.write_bytes(b"u1 x\r\nu2 y\r\n")
        g = read_attributed_graph(epath, apath, "set")
        assert g.edge_count == 1
        with pytest.raises(IngestError, match="self loop"):
            read_attributed_graph(epath, apath, "set", self_loops="error")
