"""Bench harness: timed runners, INF convention, table/JSON output."""

import json

import pytest

from conftest import make_random_attr_graph
from repro.bench.harness import (
    INF,
    RunRecord,
    dump_json,
    format_seconds,
    format_table,
    run_enum_timed,
    run_max_timed,
)
from repro.core.config import adv_enum_config
from repro.similarity.threshold import SimilarityPredicate


@pytest.fixture
def small_instance():
    g = make_random_attr_graph(41, n=10)
    return g, 2, SimilarityPredicate("jaccard", 0.35)


class TestRunners:
    def test_enum_runner_fields(self, small_instance):
        g, k, pred = small_instance
        rec = run_enum_timed(g, k, pred, "advanced", time_cap=30)
        assert rec.label == "advanced"
        assert not rec.timed_out
        assert rec.seconds >= 0
        assert rec.cores == rec.cores  # populated
        assert rec.display_seconds == rec.seconds

    def test_enum_runner_accepts_config(self, small_instance):
        g, k, pred = small_instance
        cfg = adv_enum_config()
        rec = run_enum_timed(g, k, pred, cfg, label="custom", time_cap=30)
        assert rec.label == "custom"

    def test_enum_runner_clique_engine(self, small_instance):
        g, k, pred = small_instance
        a = run_enum_timed(g, k, pred, "clique", time_cap=30)
        b = run_enum_timed(g, k, pred, "advanced", time_cap=30)
        assert a.cores == b.cores

    def test_max_runner(self, small_instance):
        g, k, pred = small_instance
        rec = run_max_timed(g, k, pred, "advanced", time_cap=30)
        enum_rec = run_enum_timed(g, k, pred, "advanced", time_cap=30)
        assert rec.max_size == enum_rec.max_size

    def test_timeout_reports_inf(self):
        g = make_random_attr_graph(11, n=14, p=0.85)
        pred = SimilarityPredicate("jaccard", 0.2)
        rec = run_enum_timed(g, 2, pred, "basic", time_cap=1e-9)
        assert rec.timed_out
        assert rec.display_seconds == INF

    @pytest.mark.parametrize("algorithm", ("naive", "clique"))
    def test_baseline_timeout_reports_inf(self, algorithm):
        g = make_random_attr_graph(11, n=14, p=0.85)
        pred = SimilarityPredicate("jaccard", 0.2)
        rec = run_enum_timed(g, 2, pred, algorithm, time_cap=1e-9)
        assert rec.timed_out
        assert rec.display_seconds == INF

    def test_max_timeout_reports_inf(self):
        g = make_random_attr_graph(11, n=14, p=0.85)
        pred = SimilarityPredicate("jaccard", 0.2)
        rec = run_max_timed(g, 2, pred, "basic", time_cap=1e-9)
        assert rec.timed_out
        assert rec.display_seconds == INF

    def test_to_dict_inf_becomes_null_seconds(self):
        rec = RunRecord(label="x", seconds=5.0, timed_out=True)
        assert rec.to_dict()["seconds"] is None


class TestFormatting:
    def test_format_seconds(self):
        assert format_seconds(INF) == "INF"
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(2.5) == "2.50s"

    def test_format_table_alignment(self):
        rows = [
            {"k": 5, "seconds": 1.25, "algorithm": "AdvEnum"},
            {"k": 6, "seconds": INF, "algorithm": "BasicEnum"},
        ]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "INF" in text
        assert "1.25s" in text

    def test_format_table_empty(self):
        assert "no rows" in format_table([], title="empty")

    def test_dump_json_roundtrip(self, tmp_path):
        rows = [{"a": 1, "seconds": INF}, {"a": 2, "seconds": 0.5}]
        path = tmp_path / "out.json"
        dump_json(rows, str(path))
        loaded = json.loads(path.read_text())
        assert loaded[0]["seconds"] is None
        assert loaded[1]["seconds"] == 0.5
