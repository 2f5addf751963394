"""Trajectory store, regression gates, and fault injection.

Three layers, mirroring the guarantees the module docstring makes:

* **golden round-trip** — the committed golden file loads, re-dumps
  byte-identically (the canonical form is stable), and its regression
  verdicts are deterministic: a planted 2x slowdown fails, a stable
  series passes, an error record is its own verdict;
* **format hygiene** — unknown schema versions and unknown record
  fields are refused (never best-effort parsed), appends keep the file
  canonically sorted, and duplicate (series, run_id) pairs are
  rejected;
* **fault injection** — a raising or budget-tripping workload becomes
  a failed *record* (the file stays valid and loadable), and a crashed
  write can never clobber the committed history (temp file + atomic
  rename).

The end-to-end acceptance test stubs only the solver call
(``_run_problem``) for speed and determinism; calibration, instance
registry lookups, record construction, file writes, the CLI, and the
injection hooks all run for real.
"""

from __future__ import annotations

import glob
import json
import os
from pathlib import Path

import pytest

import repro.bench.trajectory as traj
from repro.bench.report import generate_report, sparkline
from repro.bench.trajectory import (
    SCHEMA_VERSION,
    TrajectoryError,
    TrajectoryRecord,
    Workload,
    append_records,
    canonical_sort,
    dump_trajectory,
    load_trajectory,
    measure_workload,
    records_from_bench_payload,
    regression_check,
    workload_matrix,
)
from repro.bench.trajectory_cli import main as trajectory_main

GOLDEN = Path(__file__).parent / "data" / "bench_trajectory_golden.json"


@pytest.fixture(autouse=True)
def _isolate_default_paths(monkeypatch, tmp_path):
    """Redirect the CLI's default output paths into ``tmp_path``.

    The CLI defaults to the committed repo-root ``BENCH_trajectory.json``
    / ``BENCH_report.md``; a test that forgets an explicit ``--report``
    or ``--trajectory`` must never clobber those artifacts.
    """
    monkeypatch.setattr(
        traj, "DEFAULT_TRAJECTORY",
        str(tmp_path / "default_BENCH_trajectory.json"),
    )
    monkeypatch.setattr(
        traj, "DEFAULT_REPORT", str(tmp_path / "default_BENCH_report.md"),
    )

SERIES_A = "smoke:maximum/onion/csr/serial"      # planted 2x regression
SERIES_B = "smoke:enumerate/onion/csr/serial"    # stable
SERIES_C = "smoke:maximum/borderline/python/serial"  # error in run r3


def make_record(series="smoke:maximum/onion/csr/serial", run_id="r1",
                timestamp="2026-08-01T00:00:00Z", status="ok",
                norms=(1.0, 1.01, 0.99), calibration=0.025, error=None):
    return TrajectoryRecord(
        series=series, run_id=run_id, timestamp=timestamp, mode="smoke",
        status=status, calibration_s=calibration,
        sample_s=tuple(round(v * calibration, 6) for v in norms),
        sample_norm=tuple(norms), error=error, provenance={},
    )


class TestGoldenRoundTrip:
    def test_golden_loads(self):
        records = load_trajectory(str(GOLDEN))
        assert len(records) == 8
        assert {r.series for r in records} == {SERIES_A, SERIES_B, SERIES_C}

    def test_golden_dump_is_byte_identical(self, tmp_path):
        records = load_trajectory(str(GOLDEN))
        out = tmp_path / "roundtrip.json"
        dump_trajectory(str(out), records)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_shuffled_dump_restores_canonical_form(self, tmp_path):
        records = load_trajectory(str(GOLDEN))
        out = tmp_path / "shuffled.json"
        dump_trajectory(str(out), list(reversed(records)))
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_verdicts_deterministic(self):
        records = load_trajectory(str(GOLDEN))
        first = regression_check(records, run_id="r3")
        second = regression_check(load_trajectory(str(GOLDEN)), run_id="r3")
        assert first == second
        by_series = {v.series: v for v in first}
        assert by_series[SERIES_A].verdict == "fail"
        assert by_series[SERIES_A].p_value < 0.01
        assert by_series[SERIES_A].shift == pytest.approx(0.99, abs=0.05)
        assert by_series[SERIES_B].verdict == "pass"
        assert by_series[SERIES_C].verdict == "error"
        assert "injected" in by_series[SERIES_C].detail

    def test_golden_append_then_check_round_trips(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(GOLDEN.read_bytes())
        fresh = make_record(series=SERIES_B, run_id="r4",
                            timestamp="2026-08-04T00:00:00Z",
                            norms=(0.50, 0.51, 0.49, 0.50, 0.52))
        merged = append_records(str(path), [fresh])
        assert merged == load_trajectory(str(path))
        verdicts = {v.series: v for v in
                    regression_check(merged, run_id="r4")}
        assert list(verdicts) == [SERIES_B]
        assert verdicts[SERIES_B].verdict == "pass"


class TestFormatHygiene:
    def test_unknown_schema_version_refused(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"schema_version": SCHEMA_VERSION + 1, "records": []}
        ))
        with pytest.raises(TrajectoryError, match="schema_version"):
            load_trajectory(str(path))

    def test_missing_schema_version_refused(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"records": []}))
        with pytest.raises(TrajectoryError, match="schema_version"):
            load_trajectory(str(path))

    def test_invalid_json_refused(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{nope")
        with pytest.raises(TrajectoryError, match="not valid JSON"):
            load_trajectory(str(path))

    def test_unknown_record_field_refused(self, tmp_path):
        payload = json.loads(GOLDEN.read_text())
        payload["records"][0]["surprise"] = 1
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TrajectoryError, match="surprise"):
            load_trajectory(str(path))

    def test_bad_status_refused(self, tmp_path):
        payload = json.loads(GOLDEN.read_text())
        payload["records"][0]["status"] = "meh"
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TrajectoryError, match="status"):
            load_trajectory(str(path))

    def test_canonical_sort_orders_series_then_time(self):
        records = [
            make_record(series="smoke:b", run_id="r2",
                        timestamp="2026-08-02T00:00:00Z"),
            make_record(series="smoke:a", run_id="r2",
                        timestamp="2026-08-02T00:00:00Z"),
            make_record(series="smoke:b", run_id="r1",
                        timestamp="2026-08-01T00:00:00Z"),
        ]
        ordered = canonical_sort(records)
        assert [(r.series, r.run_id) for r in ordered] == [
            ("smoke:a", "r2"), ("smoke:b", "r1"), ("smoke:b", "r2"),
        ]

    def test_append_refuses_duplicate_series_run(self, tmp_path):
        path = tmp_path / "t.json"
        append_records(str(path), [make_record(run_id="r1")])
        with pytest.raises(TrajectoryError, match="duplicate"):
            append_records(str(path), [make_record(run_id="r1")])
        # and the refused append must not have touched the file
        assert len(load_trajectory(str(path))) == 1

    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "t.json"
        append_records(str(path), [make_record(run_id="r1")])
        append_records(str(path), [make_record(run_id="r2")])
        records = load_trajectory(str(path))
        assert [r.run_id for r in records] == ["r1", "r2"]

    def test_floats_rounded_in_file(self, tmp_path):
        path = tmp_path / "t.json"
        append_records(str(path), [make_record(
            norms=(1.0 / 3.0,), calibration=0.0123456789,
        )])
        raw = json.loads(path.read_text())["records"][0]
        assert raw["calibration_s"] == 0.012346
        assert raw["sample_norm"] == [0.333333]


class TestBenchPayloadIngest:
    def test_points_become_single_sample_records(self):
        payload = {
            "benchmark": "session_reuse", "mode": "smoke",
            "points": [{"series": "r-sweep/session", "seconds": 0.25}],
        }
        (record,) = records_from_bench_payload(
            payload, calibration_s=0.025, run_id="r9",
            timestamp="2026-08-05T00:00:00Z",
        )
        assert record.series == "smoke:bench/session_reuse/r-sweep/session"
        assert record.sample_s == (0.25,)
        assert record.sample_norm == (10.0,)
        assert record.status == "ok"

    def test_non_bench_payload_refused(self):
        with pytest.raises(TrajectoryError, match="points"):
            records_from_bench_payload(
                {"benchmark": "x", "mode": "smoke"}, 0.025, "r", "t",
            )

    def test_unknown_mode_refused(self):
        with pytest.raises(TrajectoryError, match="mode"):
            records_from_bench_payload(
                {"benchmark": "x", "mode": "custom",
                 "points": [{"series": "a", "seconds": 0.1}]},
                0.025, "r", "t",
            )

    def test_masquerading_registered_series_refused(self):
        # a payload whose point, prefixed with its mode, lands exactly
        # on a runner-owned series must be rejected: it would pollute
        # the history the regression gate reads
        registered = workload_matrix("smoke")[0].series("smoke")
        bare = registered.split(":", 1)[1]
        payload = {
            "benchmark": "evil", "mode": "smoke",
            "points": [{"series": bare, "seconds": 0.001}],
        }
        with pytest.raises(TrajectoryError, match="shadows"):
            records_from_bench_payload(payload, 0.025, "r", "t")

    def test_full_mode_series_also_guarded(self):
        registered = workload_matrix("full")[0].series("full")
        bare = registered.split(":", 1)[1]
        payload = {
            "benchmark": "evil", "mode": "full",
            "points": [{"series": bare, "seconds": 0.001}],
        }
        with pytest.raises(TrajectoryError, match="shadows"):
            records_from_bench_payload(payload, 0.025, "r", "t")

    def test_malformed_point_refused(self):
        for bad in (
            "not-a-dict",
            {"seconds": 0.1},
            {"series": 7, "seconds": 0.1},
        ):
            with pytest.raises(TrajectoryError, match="series"):
                records_from_bench_payload(
                    {"benchmark": "x", "mode": "smoke", "points": [bad]},
                    0.025, "r", "t",
                )

    def test_non_finite_or_negative_seconds_refused(self):
        for bad in (float("nan"), float("inf"), -1.0, "soon", None):
            with pytest.raises(TrajectoryError, match="seconds"):
                records_from_bench_payload(
                    {"benchmark": "x", "mode": "smoke",
                     "points": [{"series": "a", "seconds": bad}]},
                    0.025, "r", "t",
                )

    def test_points_must_be_a_list(self):
        with pytest.raises(TrajectoryError, match="list"):
            records_from_bench_payload(
                {"benchmark": "x", "mode": "smoke", "points": "nope"},
                0.025, "r", "t",
            )


class TestFaultInjection:
    def _smoke_workload(self):
        return workload_matrix("smoke")[0]

    def test_injected_failure_records_error_point(self, monkeypatch, tmp_path):
        workload = self._smoke_workload()
        monkeypatch.setenv(traj.INJECT_FAIL_ENV, "maximum/onion/csr/serial")
        record = measure_workload(
            workload, "smoke", calibration_s=0.025, run_id="r1",
            timestamp="2026-08-01T00:00:00Z",
        )
        assert record.status == "error"
        assert "injected workload failure" in record.error
        assert record.sample_s == ()
        # the failed point must append and round-trip like any other
        path = tmp_path / "t.json"
        append_records(str(path), [record])
        (loaded,) = load_trajectory(str(path))
        assert loaded.status == "error"
        verdicts = regression_check([loaded], run_id="r1")
        assert verdicts[0].verdict == "error"
        assert verdicts[0].gate_failed

    def test_raising_workload_never_escapes(self, monkeypatch):
        def boom(workload, graph, k, predicate):
            raise ValueError("solver exploded")

        monkeypatch.setattr(traj, "_run_problem", boom)
        record = measure_workload(
            self._smoke_workload(), "smoke", calibration_s=0.025,
            run_id="r1", timestamp="2026-08-01T00:00:00Z",
        )
        assert record.status == "error"
        assert record.error == "ValueError: solver exploded"

    def test_budget_trip_records_budget_point_and_fails_gate(
        self, monkeypatch, tmp_path,
    ):
        monkeypatch.setattr(
            traj, "_run_problem",
            lambda workload, graph, k, predicate: (workload.time_cap, True),
        )
        monkeypatch.setattr(
            traj, "adversarial_workload",
            lambda family, **params: (None, 2, None),
        )
        record = measure_workload(
            self._smoke_workload(), "smoke", calibration_s=0.025,
            run_id="r1", timestamp="2026-08-01T00:00:00Z",
        )
        assert record.status == "budget"
        assert "time budget" in record.error
        path = tmp_path / "t.json"
        append_records(str(path), [record])
        verdicts = regression_check(load_trajectory(str(path)), run_id="r1")
        assert verdicts[0].verdict == "fail"
        assert verdicts[0].gate_failed

    def test_failed_points_excluded_from_history(self):
        records = [
            make_record(run_id="r1", timestamp="2026-08-01T00:00:00Z",
                        norms=(1.0, 1.0, 1.0)),
            make_record(run_id="r2", timestamp="2026-08-02T00:00:00Z",
                        status="error", norms=(), error="boom"),
            make_record(run_id="r3", timestamp="2026-08-03T00:00:00Z",
                        norms=(1.0, 1.01, 0.99)),
        ]
        (verdict,) = regression_check(records, run_id="r3")
        # history must be the 3 ok points of r1 only, not r2's empty sample
        assert verdict.n_history == 3
        assert verdict.verdict == "pass"

    def test_crashed_write_preserves_existing_file(self, monkeypatch, tmp_path):
        path = tmp_path / "t.json"
        append_records(str(path), [make_record(run_id="r1")])
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(traj.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk on fire"):
            append_records(str(path), [make_record(run_id="r2")])
        assert path.read_bytes() == before
        # no half-written temp files may be left behind
        assert glob.glob(str(tmp_path / ".bench_trajectory-*")) == []


def _fake_run_problem():
    """Deterministic solver stub: per-series base time + small jitter.

    The jitter cycles through a fixed pattern so repeats are not all
    tied (the exact Mann-Whitney path needs distinguishable samples)
    but never drifts — consecutive runs are statistically identical.
    """
    state = {"calls": 0}

    def run(workload, graph, k, predicate):
        state["calls"] += 1
        base = 0.05 + (sum(map(ord, workload.series("smoke"))) % 13) * 0.01
        jitter = 1.0 + 0.004 * ((state["calls"] * 7) % 5)
        return base * jitter, False

    return run


@pytest.fixture
def stubbed_matrix(monkeypatch):
    """Stub the solver and instance build; keep everything else real."""
    monkeypatch.setattr(traj, "_run_problem", _fake_run_problem())
    monkeypatch.setattr(
        traj, "adversarial_workload",
        lambda family, **params: (None, 2, None),
    )
    monkeypatch.setattr(traj, "calibrate", lambda repeats=3: 0.025)
    monkeypatch.delenv(traj.INJECT_SLOW_ENV, raising=False)
    monkeypatch.delenv(traj.INJECT_FAIL_ENV, raising=False)


class TestEndToEndAcceptance:
    def test_two_runs_then_injected_slowdown_flips_one_series(
        self, stubbed_matrix, monkeypatch, tmp_path, capsys,
    ):
        path = tmp_path / "BENCH_trajectory.json"
        report = tmp_path / "BENCH_report.md"

        def run(run_id):
            return trajectory_main([
                "--smoke", "--trajectory", str(path), "--report",
                str(report), "--run-id", run_id,
            ])

        # run 1: every series is a baseline — gate passes
        assert run("r1") == 0
        n_series = len(workload_matrix("smoke"))
        assert len(load_trajectory(str(path))) == n_series

        # run 2: statistically identical — no regression, two records
        # per series
        assert run("r2") == 0
        records = load_trajectory(str(path))
        assert len(records) == 2 * n_series
        verdicts = regression_check(records, run_id="r2")
        assert {v.verdict for v in verdicts} == {"pass"}

        # run 3: inject a 2x slowdown into exactly one series
        target = "maximum/onion/csr/serial"
        monkeypatch.setenv(traj.INJECT_SLOW_ENV, f"{target}:2.0")
        assert run("r3") == 1
        verdicts = regression_check(
            load_trajectory(str(path)), run_id="r3"
        )
        failed = [v for v in verdicts if v.gate_failed]
        assert [v.series for v in failed] == [f"smoke:{target}"]
        assert failed[0].verdict == "fail"
        assert failed[0].shift == pytest.approx(1.0, abs=0.1)
        others = [v for v in verdicts if not v.gate_failed]
        assert len(others) == n_series - 1
        assert all(v.verdict == "pass" for v in others)

        # the report reflects the failure
        text = report.read_text()
        assert f"smoke:{target}" in text
        assert "fail" in text

    def test_injected_failure_keeps_runner_and_file_alive(
        self, stubbed_matrix, monkeypatch, tmp_path,
    ):
        path = tmp_path / "BENCH_trajectory.json"
        monkeypatch.setenv(traj.INJECT_FAIL_ENV, "enumerate/onion/python")
        code = trajectory_main([
            "--smoke", "--trajectory", str(path), "--no-report",
            "--run-id", "r1",
        ])
        assert code == 1  # the error verdict fails the gate...
        records = load_trajectory(str(path))  # ...but the file is valid
        assert len(records) == len(workload_matrix("smoke"))
        bad = [r for r in records if r.status == "error"]
        assert [r.series for r in bad] == [
            "smoke:enumerate/onion/python/serial"
        ]


class TestCLI:
    def test_series_filter_and_list(self, stubbed_matrix, tmp_path, capsys):
        code = trajectory_main(["--smoke", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke:maximum/onion/csr/serial" in out

        path = tmp_path / "t.json"
        code = trajectory_main([
            "--smoke", "--trajectory", str(path), "--no-report",
            "--series", "borderline", "--run-id", "r1",
        ])
        assert code == 0
        records = load_trajectory(str(path))
        assert records and all("borderline" in r.series for r in records)

    def test_no_matching_series_is_an_error(self, stubbed_matrix, tmp_path):
        code = trajectory_main([
            "--smoke", "--trajectory", str(tmp_path / "t.json"),
            "--series", "no-such-workload", "--no-report",
        ])
        assert code == 2

    def test_check_only_missing_file_is_an_error(self, tmp_path):
        code = trajectory_main([
            "--check-only", "--trajectory", str(tmp_path / "absent.json"),
        ])
        assert code == 2

    def test_check_only_on_golden_fails_on_planted_regression(
        self, tmp_path, capsys,
    ):
        path = tmp_path / "t.json"
        report = tmp_path / "report.md"
        path.write_bytes(GOLDEN.read_bytes())
        code = trajectory_main([
            "--check-only", "--trajectory", str(path),
            "--report", str(report),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "❌ fail" in report.read_text()

    def test_ingest_bench_payload(self, stubbed_matrix, tmp_path):
        payload = {
            "payload_version": 1, "benchmark": "demo", "mode": "smoke",
            "workload": {}, "rows": [], "gates": {"passed": True},
            "points": [{"series": "a/b", "seconds": 0.5}], "extras": {},
        }
        bench_json = tmp_path / "bench.json"
        bench_json.write_text(json.dumps(payload))
        path = tmp_path / "t.json"
        code = trajectory_main([
            "--trajectory", str(path), "--no-report",
            "--ingest", str(bench_json), "--run-id", "r1",
        ])
        assert code == 0
        (record,) = load_trajectory(str(path))
        assert record.series == "smoke:bench/demo/a/b"

    def test_ingest_refuses_shadowing_payload(self, tmp_path, capsys):
        bare = workload_matrix("smoke")[0].series("smoke").split(":", 1)[1]
        payload = {
            "payload_version": 1, "benchmark": "evil", "mode": "smoke",
            "workload": {}, "rows": [], "gates": {"passed": True},
            "points": [{"series": bare, "seconds": 0.001}], "extras": {},
        }
        bench_json = tmp_path / "bench.json"
        bench_json.write_text(json.dumps(payload))
        path = tmp_path / "t.json"
        code = trajectory_main([
            "--trajectory", str(path), "--no-report",
            "--ingest", str(bench_json), "--run-id", "r1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "shadows" in err
        assert not path.exists()  # nothing was appended


class TestReport:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        # flat series (including a single point) renders mid-level
        assert sparkline([1.0]) == "▄"
        assert sparkline([2.0, 2.0, 2.0]) == "▄▄▄"
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_report_contains_series_and_verdicts(self):
        records = load_trajectory(str(GOLDEN))
        verdicts = regression_check(records, run_id="r3")
        text = generate_report(records, verdicts)
        assert "# Benchmark trajectory report" in text
        assert SERIES_A in text and SERIES_B in text
        assert "fail" in text and "pass" in text
        # one sparkline per series
        assert text.count("`") >= 3


class TestWorkloadMatrix:
    def test_smoke_matrix_covers_dimensions(self):
        matrix = workload_matrix("smoke")
        assert {w.problem for w in matrix} == {"maximum", "enumerate"}
        assert {w.backend for w in matrix} == {"csr", "python"}
        assert "process" in {w.executor for w in matrix}
        families = {w.family for w in matrix}
        assert families >= {"onion", "ring-of-cliques", "interleaved",
                            "borderline"}
        assert len({w.series("smoke") for w in matrix}) == len(matrix)

    def test_full_matrix_covers_executors(self):
        matrix = workload_matrix("full")
        assert {w.executor for w in matrix} == {"serial", "process"}
        pool = [w for w in matrix if w.executor == "process"]
        assert all(w.workers == 2 for w in pool)

    def test_unknown_mode_refused(self):
        with pytest.raises(TrajectoryError, match="mode"):
            workload_matrix("nightly")
