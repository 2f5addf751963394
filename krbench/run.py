"""Benchmark entry point for the (k,r)-core system.

Run from the root of a checkout:

    python3 krbench/run.py --workload geo-scale --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced for half the time, replays the
same operations through the public stage functions with a span around
each layer call, prints a per-layer table and reports the per-layer
metrics.  The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--self-test`` runs
every workload at a tiny size and checks the emitted metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

from common import BenchError, import_program, load_contract

#: Workload name -> module implementing ``run(seed, seconds, trace, size)``.
WORKLOADS = {
    "adversarial-search": "adversarial",
    "geo-scale": "geo",
    "service-churn": "churn",
}


def collect(contract: dict, outcome, trace: bool) -> dict:
    """The contract's metrics for this mode, by name, with units.

    Every end-to-end metric must have been measured.  A per-layer metric
    the workload never exercises (a layer it does not use) reads 0.
    """
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for spec in contract[section]:
        name = spec["name"]
        if trace:
            value = outcome.per_layer.get(name, 0.0)
        elif name in outcome.end_to_end:
            value = outcome.end_to_end[name]
        else:
            raise BenchError(f"workload did not measure {name}")
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so it stops the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        import_program()
        contract = load_contract()
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"krbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(contract)
    if args.workload is None:
        parser.error("--workload is required")

    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), args.size)
        metrics = collect(contract, outcome, bool(args.trace))
    except BenchError as exc:
        print(f"krbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    if outcome.report:
        print(f"traced layers of {args.workload} (seed {args.seed}):")
        for row in outcome.report:
            print("  " + row)
    for problem in outcome.problems:
        print(f"krbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
