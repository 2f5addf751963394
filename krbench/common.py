"""Shared plumbing of the (k,r)-core benchmark.

Timing, span recording, percentiles, peak memory and the result record
every workload returns.  The benchmark measures the program from
outside: it imports the package from ``src/`` of the checkout it runs
in and times calls into each layer's public functions.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".krbench-work"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def import_program() -> None:
    """Put ``src/`` on the path and import the package, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fails here rather than mid-workload)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def workdir(name: str) -> Iterator[Path]:
    """A private working directory inside the checkout, removed on exit.

    It is also the temporary directory of this process and its children
    (SQLite spills there), so a run writes nothing outside the checkout.
    """
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    saved = {key: os.environ.get(key) for key in ("TMPDIR", "SQLITE_TMPDIR")}
    os.environ.update(dict.fromkeys(saved, str(path)))
    try:
        yield path
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


class Spans:
    """In-memory span recorder keyed by layer name.

    A span's self time is its duration minus the time its child spans
    cover, so nested layers (a bitset pack inside a search call) are not
    counted twice.  Counts recorded at the same boundaries sit beside the
    times.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._children: List[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            covered = self._children.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
            if self._children:
                self._children[-1] += duration

    def add(self, name: str, seconds: float) -> None:
        """Self time of a layer measured outside a span (by differencing)."""
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total_s(self) -> float:
        return sum(self.self_s.values())


@dataclass
class Outcome:
    """What one workload run measured and whether its answers held."""

    attempted: int = 0
    failed: int = 0
    #: Answer-check mismatches and degeneracy-guard violations.
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Lines of the traced-run report (see :func:`layer_table`).
    report: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median(values: List[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident memory of another live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units every run emits."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


#: Share of a traced replay's wall time its layer spans must explain.
COVERAGE = 0.9


def traced_layers(
    out: Outcome, spans: Spans, passes: int, untraced_s: float, traced_s: float
) -> Dict[str, float]:
    """Per-pass layer seconds and counts, plus coverage and overhead.

    ``untraced_s`` is the wall time of the passes run through the
    program, ``traced_s`` that of the traced replay of the same passes.
    ``trace.coverage`` is the share of the replay's own wall time its
    layer spans explain (at most 1; below :data:`COVERAGE` fails the
    run); ``trace.overhead`` is the traced minus the untraced time per
    pass.
    """
    layers = {name: secs / passes for name, secs in spans.self_s.items()}
    layers.update({name: n / passes for name, n in spans.counts.items()})
    coverage = spans.total_s() / traced_s
    out.check(coverage >= COVERAGE,
              f"traced layers explain only {coverage:.0%} of the replay")
    layers["trace.coverage"] = coverage
    layers["trace.overhead"] = (traced_s - untraced_s) / passes
    return layers


def layer_table(spans: Spans, passes: int, untraced_s: float) -> List[str]:
    """Traced-run report rows: layer self time per pass and its share."""
    rows = [f"{'layer':32s} {'self s/pass':>12s} {'share':>7s}"]
    for name, secs in sorted(spans.self_s.items(), key=lambda kv: -kv[1]):
        rows.append(f"{name:32s} {secs / passes:12.4f} {secs / untraced_s:7.1%}")
    counts = ", ".join(
        f"{name}={n / passes:g}" for name, n in sorted(spans.counts.items())
    )
    rows.append(f"counts per pass: {counts}")
    return rows
