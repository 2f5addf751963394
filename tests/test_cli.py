"""Library CLI (`python -m repro ...`)."""

import pytest

from repro.cli import main
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.io import write_attributes, write_edge_list


@pytest.fixture
def file_graph(tmp_path):
    g = AttributedGraph(
        6,
        edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        labels=[f"u{i}" for i in range(6)],
    )
    for u in (0, 1, 2):
        g.set_attribute(u, frozenset({"x", "y"}))
    for u in (3, 4, 5):
        g.set_attribute(u, frozenset({"p", "q"}))
    epath = tmp_path / "edges.txt"
    apath = tmp_path / "attrs.txt"
    write_edge_list(g, epath)
    write_attributes(g, apath, "set")
    return str(epath), str(apath)


class TestDatasetsCommand:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("brightkite", "gowalla", "dblp", "pokec"):
            assert name in out


class TestMineCommand:
    def test_file_graph(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "mine", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "maximal (2,0.5)-cores: 2" in out

    def test_named_dataset(self, capsys):
        code = main([
            "mine", "--dataset", "dblp", "--scale", "0.3",
            "--k", "4", "--permille", "5", "--max-print", "2",
        ])
        assert code == 0
        assert "maximal" in capsys.readouterr().out

    def test_missing_threshold_errors(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "mine", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2",
        ])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_missing_attr_kind_errors(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "mine", "--edges", edges, "--attrs", attrs,
            "--k", "2", "--r", "0.5",
        ])
        assert code == 2

    def test_both_sources_errors(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "mine", "--dataset", "dblp", "--edges", edges,
            "--attrs", attrs, "--attr-kind", "set", "--k", "2", "--r", "0.5",
        ])
        assert code == 2


class TestMaximumCommand:
    def test_file_graph(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
        ])
        assert code == 0
        assert "maximum (2,0.5)-core: 3 vertices" in capsys.readouterr().out

    def test_no_core(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "4", "--r", "0.5",
        ])
        assert code == 0
        assert "no (4,0.5)-core" in capsys.readouterr().out

    def test_algorithm_choice(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
            "--algorithm", "color-kcore",
        ])
        assert code == 0


class TestStatsCommand:
    def test_file_graph(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "stats", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "count=2" in out
        assert "max_size=3" in out

    def test_named_geo_dataset(self, capsys):
        code = main([
            "stats", "--dataset", "gowalla", "--scale", "0.3",
            "--k", "4", "--km", "20",
        ])
        assert code == 0
        assert "count=" in capsys.readouterr().out

    def test_backend_and_algorithm_wired(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "stats", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
            "--backend", "python", "--algorithm", "basic",
        ])
        assert code == 0
        assert "count=2" in capsys.readouterr().out

    def test_missing_k_errors(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "stats", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--r", "0.5",
        ])
        assert code == 2
        assert "--k" in capsys.readouterr().err

    def test_grid_mode(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "stats", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--ks", "2", "3", "--rs", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=2 r=0.5 count=2" in out
        assert "k=3 r=0.5 count=0" in out
        assert "session reuse:" in out


class TestSweepCommand:
    def test_file_graph_grid(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "sweep", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--ks", "2", "3", "--rs", "0.4", "0.6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=2 r=0.4 count=2" in out
        assert "k=2 r=0.6 count=2" in out
        assert "k=3 r=0.4 count=0" in out
        assert "session reuse:" in out
        # r=0.4 is computed first; r=0.6 filters inside its core.
        assert "1 threshold seeds" in out

    def test_rs_default_to_resolved_threshold(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "sweep", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--ks", "2", "--r", "0.5",
        ])
        assert code == 0
        assert "k=2 r=0.5 count=2" in capsys.readouterr().out

    def test_named_dataset(self, capsys):
        code = main([
            "sweep", "--dataset", "dblp", "--scale", "0.3",
            "--ks", "4", "5", "--permille", "5",
        ])
        assert code == 0
        assert "session reuse:" in capsys.readouterr().out

class TestDegradedModeFlags:
    def test_maximum_mode_anytime(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
            "--mode", "anytime",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "anytime (2,0.5)-core: 3 vertices" in out
        assert "[exact, gap <= 0" in out

    def test_maximum_mode_heuristic(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
            "--mode", "heuristic",
        ])
        assert code == 0
        assert "[heuristic," in capsys.readouterr().out

    def test_maximum_mode_anytime_with_node_limit(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "maximum", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5",
            "--mode", "anytime", "--node-limit", "1",
        ])
        assert code == 0  # never a crash: budget answers are partial

    def test_mine_top(self, file_graph, capsys):
        edges, attrs = file_graph
        code = main([
            "mine", "--edges", edges, "--attrs", attrs,
            "--attr-kind", "set", "--k", "2", "--r", "0.5", "--top", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "top 1 of 2 maximal (2,0.5)-cores" in out


class TestStoreFetchCommand:
    def test_fetch_ad_hoc_url_into_store(self, tmp_path, capsys):
        upstream = tmp_path / "edges.txt"
        upstream.write_text("# nodes 4 edges 3\n0 1\n1 2\n2 3\n")
        db = str(tmp_path / "cli.db")
        code = main([
            "store", "fetch", "fetched", "--db", db,
            "--edges-url", upstream.as_uri(),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fetched 'fetched': n=4 m=3" in out

        code = main(["store", "list", "--db", db])
        assert code == 0
        assert "fetched" in capsys.readouterr().out

    def test_fetch_without_source_errors(self, tmp_path, capsys):
        code = main([
            "store", "fetch", "unregistered",
            "--db", str(tmp_path / "cli.db"),
        ])
        assert code == 2
        assert "store fetch needs" in capsys.readouterr().err
