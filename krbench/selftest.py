"""Benchmark self-test: every workload at a tiny size, both modes.

Runs ``run.py`` as a subprocess for each workload with ``--trace 0`` and
``--trace 1`` and checks that the last line is the result object, that it
carries exactly the contract's metrics with their units, that every
answer check passed and that no operation failed.  Run it with

    python3 krbench/run.py --self-test
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from common import ROOT

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("adversarial-search", "geo-scale", "service-churn")
SECONDS = "2"


def check_result(contract: dict, line: str, trace: int) -> list:
    """Problems with one run's result line (empty when it is valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:120]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("answers were not correct")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed = {result['failed']!r} (failed_frac > 0)")
    section = "per_layer" if trace else "end_to_end"
    wanted = {spec["name"]: spec["unit"] for spec in contract[section]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def main(contract: dict) -> int:
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", "3", "--seconds", SECONDS, "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            lines = done.stdout.strip().splitlines()
            problems = [] if done.returncode == 0 else [
                f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"
            ]
            problems += check_result(contract, lines[-1] if lines else "", trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload:20s} trace={trace}: {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    print("self-test passed" if not failures else f"{failures} self-test run(s) failed")
    return 1 if failures else 0
