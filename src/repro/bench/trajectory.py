"""Continuous benchmark trajectories with statistical regression gates.

Single-threshold speedup gates catch cliffs but not creep: a 15% loss
per PR never trips a "≥2×" assertion, and the raw benchmark JSON dies
with each CI workflow run.  This module keeps the history *in the
repo*: a runner executes a registered workload matrix (problem ×
adversarial family × backend × executor), normalises wall-clock
timings against an in-process machine-calibration probe (so a 1-CPU
dev box and a CI runner land on one comparable scale), and appends one
schema-versioned record per (workload, config) series to a committed
``BENCH_trajectory.json``.  :func:`regression_check` then compares the
fresh sample per series against the pooled trailing window with the
exact Mann–Whitney U test (:mod:`repro.bench.stat_tests`) and a
Hodges–Lehmann effect-size floor, so a verdict needs both statistical
significance *and* a material slowdown — one noisy repeat flips
nothing, a real 2× slowdown flips exactly its series.

File-format rules (all enforced here):

* the trajectory is ``{"schema_version": 1, "records": [...]}``;
  unknown schema versions are refused, never "best-effort" parsed;
* records sort canonically by (series, timestamp, run_id) and floats
  are rounded, so appends produce minimal reviewable diffs;
* writes go to a temp file in the same directory followed by
  ``os.replace`` — a crashed or failing run can never corrupt the
  committed history;
* a workload that raises or trips its time budget records a *failed
  point* (``status`` "error"/"budget") instead of vanishing, and the
  failure is a gate verdict, not an exception.

Fault-injection hooks for tests and harness self-checks:
``REPRO_BENCH_INJECT_SLOW="<substr>:<factor>"`` multiplies measured
times for matching series; ``REPRO_BENCH_INJECT_FAIL="<substr>"``
makes matching workloads raise.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.harness import run_enum_timed, run_max_timed
from repro.bench.stat_tests import (
    hodges_lehmann_shift,
    mann_whitney_u,
    median,
)
from repro.bench.workloads import adversarial_workload
from repro.core.config import adv_enum_config, adv_max_config
from repro.exceptions import ReproError

SCHEMA_VERSION = 1

DEFAULT_TRAJECTORY = "BENCH_trajectory.json"
DEFAULT_REPORT = "BENCH_report.md"

#: Trailing-window length (records per series) pooled as history.
DEFAULT_WINDOW = 8

#: Significance and effect-size floors for the verdicts.  ``fail``
#: needs exact-test significance at 1% *and* a ≥25% median slowdown;
#: ``warn`` fires at 5% / ≥10%.
ALPHA_FAIL = 0.01
ALPHA_WARN = 0.05
SHIFT_FAIL = 0.25
SHIFT_WARN = 0.10

INJECT_SLOW_ENV = "REPRO_BENCH_INJECT_SLOW"
INJECT_FAIL_ENV = "REPRO_BENCH_INJECT_FAIL"

RECORD_STATUSES = ("ok", "budget", "error")

_RECORD_FIELDS = (
    "series", "run_id", "timestamp", "mode", "status", "error",
    "calibration_s", "sample_s", "sample_norm", "provenance",
)


class TrajectoryError(ReproError):
    """A trajectory file is malformed, stale-versioned, or conflicting."""


# ----------------------------------------------------------------------
# Records and the on-disk format
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryRecord:
    """One measured (workload, config) point of one run."""

    series: str                  # "<mode>:<problem>/<family>/<backend>/<executor>"
    run_id: str
    timestamp: str               # ISO-8601 UTC, second resolution
    mode: str                    # "smoke" | "full"
    status: str                  # "ok" | "budget" | "error"
    calibration_s: float         # machine probe seconds for this run
    sample_s: Tuple[float, ...]  # raw wall-clock seconds per repeat
    sample_norm: Tuple[float, ...]  # sample_s / calibration_s
    error: Optional[str] = None
    provenance: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "series": self.series,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "mode": self.mode,
            "status": self.status,
            "error": self.error,
            "calibration_s": round(self.calibration_s, 6),
            "sample_s": [round(v, 6) for v in self.sample_s],
            "sample_norm": [round(v, 6) for v in self.sample_norm],
            "provenance": dict(sorted(self.provenance.items())),
        }


def _record_sort_key(record: TrajectoryRecord) -> Tuple[str, str, str]:
    return (record.series, record.timestamp, record.run_id)


def canonical_sort(
    records: Iterable[TrajectoryRecord],
) -> List[TrajectoryRecord]:
    """Records in the canonical on-disk order (series, timestamp, run)."""
    return sorted(records, key=_record_sort_key)


def _parse_record(raw: object, index: int) -> TrajectoryRecord:
    if not isinstance(raw, dict):
        raise TrajectoryError(f"record #{index} is not an object")
    unknown = set(raw) - set(_RECORD_FIELDS)
    if unknown:
        raise TrajectoryError(
            f"record #{index} has unknown fields {sorted(unknown)} "
            f"(schema version {SCHEMA_VERSION})"
        )
    missing = set(_RECORD_FIELDS) - {"error", "provenance"} - set(raw)
    if missing:
        raise TrajectoryError(
            f"record #{index} is missing fields {sorted(missing)}"
        )
    for key in ("series", "run_id", "timestamp", "mode", "status"):
        if not isinstance(raw[key], str) or not raw[key]:
            raise TrajectoryError(
                f"record #{index} field {key!r} must be a non-empty string"
            )
    if raw["status"] not in RECORD_STATUSES:
        raise TrajectoryError(
            f"record #{index} status {raw['status']!r} not in "
            f"{RECORD_STATUSES}"
        )
    for key in ("sample_s", "sample_norm"):
        values = raw[key]
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and v >= 0 for v in values
        ):
            raise TrajectoryError(
                f"record #{index} field {key!r} must be a list of "
                f"non-negative numbers"
            )
    if not isinstance(raw["calibration_s"], (int, float)) \
            or raw["calibration_s"] <= 0:
        raise TrajectoryError(
            f"record #{index} calibration_s must be a positive number"
        )
    error = raw.get("error")
    if error is not None and not isinstance(error, str):
        raise TrajectoryError(f"record #{index} error must be null or string")
    provenance = raw.get("provenance", {})
    if not isinstance(provenance, dict):
        raise TrajectoryError(f"record #{index} provenance must be an object")
    return TrajectoryRecord(
        series=raw["series"],
        run_id=raw["run_id"],
        timestamp=raw["timestamp"],
        mode=raw["mode"],
        status=raw["status"],
        calibration_s=float(raw["calibration_s"]),
        sample_s=tuple(float(v) for v in raw["sample_s"]),
        sample_norm=tuple(float(v) for v in raw["sample_norm"]),
        error=error,
        provenance=provenance,
    )


def load_trajectory(path: str) -> List[TrajectoryRecord]:
    """Load and validate a trajectory file (canonical record order)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise TrajectoryError(f"{path}: top level must be an object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TrajectoryError(
            f"{path}: unknown schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION}); refusing to "
            f"guess — upgrade the tooling or migrate the file"
        )
    raw_records = payload.get("records")
    if not isinstance(raw_records, list):
        raise TrajectoryError(f"{path}: 'records' must be a list")
    records = [_parse_record(r, i) for i, r in enumerate(raw_records)]
    return canonical_sort(records)


def dump_trajectory(path: str, records: Sequence[TrajectoryRecord]) -> None:
    """Atomically write records in canonical form (temp file + rename)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [r.to_dict() for r in canonical_sort(records)],
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=".bench_trajectory-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        # The half-written temp file must never shadow the real one.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def append_records(
    path: str, new_records: Sequence[TrajectoryRecord]
) -> List[TrajectoryRecord]:
    """Append records to a trajectory file; returns the merged history.

    Refuses duplicate (series, run_id) pairs — a re-run must use a new
    run id, otherwise regression checks could not tell fresh from
    stale.  The write is atomic (see :func:`dump_trajectory`).
    """
    existing = load_trajectory(path) if os.path.exists(path) else []
    seen = {(r.series, r.run_id) for r in existing}
    for record in new_records:
        key = (record.series, record.run_id)
        if key in seen:
            raise TrajectoryError(
                f"duplicate record for series {record.series!r} "
                f"run {record.run_id!r}"
            )
        seen.add(key)
    merged = canonical_sort(list(existing) + list(new_records))
    dump_trajectory(path, merged)
    return merged


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------

def _probe_once() -> float:
    """One pass of the deterministic interpreter-speed probe.

    A fixed mix of the operations the solvers actually spend time on
    (integer arithmetic, list sorts, set algebra, dict churn) — no
    graph code, so the probe is immune to solver changes and measures
    only the machine + interpreter.
    """
    start = time.perf_counter()
    acc = 0
    data = [(i * 2654435761) % 100003 for i in range(120000)]
    data.sort()
    sets = [frozenset(range(i % 17, i % 17 + 12)) for i in range(2000)]
    for i in range(1999):
        acc += len(sets[i] & sets[i + 1])
    table: Dict[int, int] = {}
    for v in data[:60000]:
        table[v & 1023] = table.get(v & 1023, 0) + v
    acc += sum(table.values()) & 0xFFFF
    return time.perf_counter() - start


def calibrate(repeats: int = 3) -> float:
    """Best-of-``repeats`` probe seconds (one warm-up pass first)."""
    _probe_once()
    return min(_probe_once() for _ in range(repeats))


# ----------------------------------------------------------------------
# Workload matrix
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One registered (problem, family, backend, executor) series."""

    problem: str    # "maximum" | "enumerate"
    family: str     # adversarial family name
    backend: str    # "csr" | "python"
    executor: str   # "serial" | "process"
    params: Tuple[Tuple[str, object], ...]  # instance overrides, sorted
    repeats: int
    time_cap: float
    workers: Optional[int] = None
    #: Consecutive solves per sample point; the point is their minimum.
    #: >1 for fast workloads, where one scheduler hiccup would otherwise
    #: move a sample by tens of percent.
    inner: int = 1

    def series(self, mode: str) -> str:
        return (
            f"{mode}:{self.problem}/{self.family}"
            f"/{self.backend}/{self.executor}"
        )


def _specs_to_workloads(specs, repeats, time_cap) -> List[Workload]:
    out = []
    for problem, family, backend, executor, params, inner in specs:
        out.append(Workload(
            problem=problem,
            family=family,
            backend=backend,
            executor=executor,
            params=tuple(sorted(params.items())),
            repeats=repeats,
            time_cap=time_cap,
            workers=2 if executor == "process" else None,
            inner=inner,
        ))
    return out


#: Smoke-sized instance overrides — chosen so every series lands in the
#: ~20–400 ms range on a dev box: big enough to measure above scheduler
#: noise, small enough that the whole matrix (5 sample points each)
#: stays around ten seconds.  Fast series additionally take the min of
#: ``inner`` consecutive solves per sample point.
_SMOKE_ONION = dict(
    layers=4, options=2, group=16, half=3, core_tokens=10, overlap=1,
)
_SMOKE_RING = dict(cliques=80, clique_size=6, cut_cliques=12)
_SMOKE_INTERLEAVED = dict(n=2000, vocab=12, window=5, half=2, chords=4)
_SMOKE_BORDERLINE = dict(n=200, base_tokens=4, half=2, chords=3)

_SMOKE_SPECS = (
    ("maximum", "onion", "csr", "serial", _SMOKE_ONION, 1),
    ("maximum", "onion", "python", "serial", _SMOKE_ONION, 1),
    ("maximum", "onion", "csr", "process", _SMOKE_ONION, 1),
    ("enumerate", "onion", "csr", "serial", _SMOKE_ONION, 1),
    ("enumerate", "onion", "python", "serial", _SMOKE_ONION, 1),
    ("maximum", "borderline", "csr", "serial", _SMOKE_BORDERLINE, 2),
    ("maximum", "borderline", "python", "serial", _SMOKE_BORDERLINE, 2),
    ("enumerate", "ring-of-cliques", "csr", "serial", _SMOKE_RING, 2),
    ("maximum", "interleaved", "csr", "serial", _SMOKE_INTERLEAVED, 3),
)

#: Full-size matrix: the families' engineered default instances (deep
#: search trees), every family × both problems × both backends, plus
#: the process pool on the hardest workload.
_FULL_SPECS = tuple(
    (problem, family, backend, "serial", {}, 1)
    for problem in ("maximum", "enumerate")
    for family in ("onion", "ring-of-cliques", "interleaved", "borderline")
    for backend in ("csr", "python")
) + (
    ("maximum", "onion", "csr", "process", {}, 1),
)


def workload_matrix(mode: str) -> List[Workload]:
    """The registered workload matrix for a run mode."""
    if mode == "smoke":
        return _specs_to_workloads(_SMOKE_SPECS, repeats=5, time_cap=15.0)
    if mode == "full":
        return _specs_to_workloads(_FULL_SPECS, repeats=3, time_cap=60.0)
    raise TrajectoryError(f"unknown run mode {mode!r} (smoke|full)")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _inject_slow_factor(series: str) -> float:
    spec = os.environ.get(INJECT_SLOW_ENV, "")
    if not spec:
        return 1.0
    pattern, _, factor = spec.rpartition(":")
    if not pattern:
        raise TrajectoryError(
            f"{INJECT_SLOW_ENV} must look like '<substring>:<factor>', "
            f"got {spec!r}"
        )
    if pattern in series:
        return float(factor)
    return 1.0


def _maybe_inject_failure(series: str) -> None:
    pattern = os.environ.get(INJECT_FAIL_ENV, "")
    if pattern and pattern in series:
        raise RuntimeError(
            f"injected workload failure ({INJECT_FAIL_ENV}={pattern!r})"
        )


def _run_problem(workload: Workload, graph, k, predicate):
    """One timed solve; returns (seconds, timed_out).

    Separated out so tests can stub the actual solver work while
    keeping the measurement, injection, and record paths real.
    """
    overrides = dict(
        backend=workload.backend,
        executor=workload.executor,
        workers=workload.workers,
    )
    if workload.problem == "maximum":
        cfg = adv_max_config(**overrides)
        rec = run_max_timed(
            graph, k, predicate, cfg, time_cap=workload.time_cap
        )
    elif workload.problem == "enumerate":
        cfg = adv_enum_config(**overrides)
        rec = run_enum_timed(
            graph, k, predicate, cfg, time_cap=workload.time_cap
        )
    else:
        raise TrajectoryError(f"unknown problem {workload.problem!r}")
    return rec.seconds, rec.timed_out


def measure_workload(
    workload: Workload,
    mode: str,
    calibration_s: float,
    run_id: str,
    timestamp: str,
    provenance: Optional[Dict[str, object]] = None,
) -> TrajectoryRecord:
    """Measure one workload; failures become failed *records*, never
    exceptions (the runner must finish the matrix and keep the file
    valid no matter what one workload does)."""
    series = workload.series(mode)
    provenance = provenance or {}
    sample: List[float] = []
    status = "ok"
    error: Optional[str] = None
    try:
        _maybe_inject_failure(series)
        factor = _inject_slow_factor(series)
        graph, k, predicate = adversarial_workload(
            workload.family, **dict(workload.params)
        )
        # One discarded warm-up solve: page in code paths and per-graph
        # caches so the first sample point measures the same work as
        # the rest.
        _, warm_timed_out = _run_problem(workload, graph, k, predicate)
        if warm_timed_out:
            status = "budget"
            error = (
                f"time budget ({workload.time_cap}s) tripped on the "
                f"warm-up solve"
            )
        else:
            for _ in range(workload.repeats):
                best = float("inf")
                timed_out = False
                for _ in range(max(1, workload.inner)):
                    seconds, one_timed_out = _run_problem(
                        workload, graph, k, predicate
                    )
                    best = min(best, seconds)
                    timed_out = timed_out or one_timed_out
                sample.append(best * factor)
                if timed_out:
                    status = "budget"
                    error = (
                        f"time budget ({workload.time_cap}s) tripped "
                        f"after {len(sample)} sample point(s)"
                    )
                    break
    except Exception as exc:  # noqa: BLE001 — any failure is a data point
        status = "error"
        error = f"{type(exc).__name__}: {exc}"
    return TrajectoryRecord(
        series=series,
        run_id=run_id,
        timestamp=timestamp,
        mode=mode,
        status=status,
        calibration_s=calibration_s,
        sample_s=tuple(sample),
        sample_norm=tuple(v / calibration_s for v in sample),
        error=error,
        provenance=provenance,
    )


def run_provenance() -> Dict[str, object]:
    """Environment stamp stored on every record of a run."""
    commit = os.environ.get("GITHUB_SHA", "")[:12]
    if not commit:
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=5, check=False,
            ).stdout.strip()
        except OSError:
            commit = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": commit or None,
        "ci": bool(os.environ.get("CI")),
    }


def new_run_id() -> str:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def utc_timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ----------------------------------------------------------------------
# Ingest: unified benchmarks/bench_*.py payloads as trajectory points
# ----------------------------------------------------------------------

def _registered_series() -> frozenset:
    """Every series name the runner itself can emit, in either mode."""
    return frozenset(
        workload.series(mode)
        for mode in ("smoke", "full")
        for workload in workload_matrix(mode)
    )


def records_from_bench_payload(
    payload: Dict[str, object],
    calibration_s: float,
    run_id: str,
    timestamp: str,
    provenance: Optional[Dict[str, object]] = None,
) -> List[TrajectoryRecord]:
    """Trajectory records for a ``benchmarks/_fixtures.BenchResult``
    payload's measured points (series ``<mode>:bench/<name>/<point>``).

    Refuses payloads whose points would land on (or masquerade as) a
    series owned by the registered workload matrix: ingested bench
    points must never pollute the history that
    :func:`regression_check` gates on.
    """
    for key in ("benchmark", "mode", "points"):
        if key not in payload:
            raise TrajectoryError(
                f"bench payload is missing {key!r} — not a unified "
                f"BenchResult payload?"
            )
    mode = payload["mode"]
    if mode not in ("smoke", "full"):
        raise TrajectoryError(
            f"bench payload mode must be 'smoke' or 'full', got {mode!r}"
        )
    points = payload["points"]
    if not isinstance(points, list):
        raise TrajectoryError("bench payload 'points' must be a list")
    registered = _registered_series()
    records = []
    for point in points:
        if not isinstance(point, dict) or not isinstance(
            point.get("series"), str
        ):
            raise TrajectoryError(
                f"bench point must be an object with a string 'series', "
                f"got {point!r}"
            )
        try:
            seconds = float(point["seconds"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            raise TrajectoryError(
                f"bench point {point['series']!r} has no numeric 'seconds'"
            ) from None
        if not math.isfinite(seconds) or seconds < 0:
            raise TrajectoryError(
                f"bench point {point['series']!r} has invalid seconds "
                f"{seconds!r} (must be finite and non-negative)"
            )
        series = f"{mode}:bench/{payload['benchmark']}/{point['series']}"
        for candidate in (series, f"{mode}:{point['series']}"):
            if candidate in registered:
                raise TrajectoryError(
                    f"bench point series {point['series']!r} shadows the "
                    f"registered workload series {candidate!r} — ingested "
                    f"bench payloads may not write to runner-owned series"
                )
        records.append(TrajectoryRecord(
            series=series,
            run_id=run_id,
            timestamp=timestamp,
            mode=str(payload["mode"]),
            status="ok",
            calibration_s=calibration_s,
            sample_s=(seconds,),
            sample_norm=(seconds / calibration_s,),
            error=None,
            provenance=provenance or {},
        ))
    return records


# ----------------------------------------------------------------------
# Regression check
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesVerdict:
    """Gate outcome for one series of the trajectory."""

    series: str
    verdict: str                 # "pass" | "warn" | "fail" | "error" | "baseline"
    p_value: Optional[float]
    shift: Optional[float]       # relative median shift, + = slower
    fresh_median: Optional[float]    # normalised
    history_median: Optional[float]  # normalised
    n_fresh: int
    n_history: int
    detail: str

    @property
    def gate_failed(self) -> bool:
        return self.verdict in ("fail", "error")


def _fresh_and_history(
    ordered: Sequence[TrajectoryRecord], run_id: Optional[str], window: int
):
    if run_id is None:
        fresh = ordered[-1]
    else:
        matches = [r for r in ordered if r.run_id == run_id]
        if not matches:
            return None, []
        fresh = matches[-1]
    history = [
        r for r in ordered
        if r is not fresh and r.status == "ok" and r.sample_norm
        and _record_sort_key(r) < _record_sort_key(fresh)
    ]
    return fresh, history[-window:]


def regression_check(
    records: Sequence[TrajectoryRecord],
    run_id: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    alpha_fail: float = ALPHA_FAIL,
    alpha_warn: float = ALPHA_WARN,
    shift_fail: float = SHIFT_FAIL,
    shift_warn: float = SHIFT_WARN,
) -> List[SeriesVerdict]:
    """Per-series verdicts for the freshest sample of each series.

    With ``run_id``, only series measured by that run are judged (the
    CI shape: judge what this run produced, against everything before
    it).  Without, the latest record per series is judged.
    """
    by_series: Dict[str, List[TrajectoryRecord]] = {}
    for record in canonical_sort(records):
        by_series.setdefault(record.series, []).append(record)

    verdicts: List[SeriesVerdict] = []
    for series in sorted(by_series):
        ordered = by_series[series]
        fresh, history = _fresh_and_history(ordered, run_id, window)
        if fresh is None:
            continue
        n_hist = sum(len(r.sample_norm) for r in history)
        if fresh.status == "error":
            verdicts.append(SeriesVerdict(
                series, "error", None, None, None, None,
                0, n_hist, fresh.error or "workload failed",
            ))
            continue
        if fresh.status == "budget":
            verdicts.append(SeriesVerdict(
                series, "fail", None, None, None, None,
                len(fresh.sample_norm), n_hist,
                fresh.error or "time budget tripped",
            ))
            continue
        if not fresh.sample_norm:
            verdicts.append(SeriesVerdict(
                series, "error", None, None, None, None, 0, n_hist,
                "ok record with an empty sample",
            ))
            continue
        fresh_med = median(fresh.sample_norm)
        if not history:
            verdicts.append(SeriesVerdict(
                series, "baseline", None, None, fresh_med, None,
                len(fresh.sample_norm), 0,
                "first sample for this series — nothing to compare against",
            ))
            continue
        pooled = [v for r in history for v in r.sample_norm]
        hist_med = median(pooled)
        result = mann_whitney_u(
            fresh.sample_norm, pooled, alternative="greater"
        )
        shift_abs = hodges_lehmann_shift(fresh.sample_norm, pooled)
        shift = shift_abs / hist_med if hist_med > 0 else 0.0
        if result.p_value < alpha_fail and shift >= shift_fail:
            verdict = "fail"
        elif result.p_value < alpha_warn and shift >= shift_warn:
            verdict = "warn"
        else:
            verdict = "pass"
        improved = ""
        if shift <= -shift_warn:
            faster = mann_whitney_u(
                fresh.sample_norm, pooled, alternative="less"
            )
            if faster.p_value < alpha_warn:
                improved = " (improvement)"
        detail = (
            f"p={result.p_value:.4g} ({result.method}), "
            f"shift={shift:+.1%}, n={len(fresh.sample_norm)} vs "
            f"{len(pooled)} pooled over {len(history)} run(s){improved}"
        )
        verdicts.append(SeriesVerdict(
            series, verdict, result.p_value, shift, fresh_med, hist_med,
            len(fresh.sample_norm), len(pooled), detail,
        ))
    return verdicts
