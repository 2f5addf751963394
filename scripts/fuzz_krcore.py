"""Differential fuzz driver for the (k,r)-core engines.

Samples (family, params, k, r, order, bound, branch, pruning flags,
maximal-check, mode) configurations from a seeded rng, cross-checks the
set-based and bitset engines against each other (results *and* stats
parity), the session's front end against the reference front end
(every case) and — on oracle-sized instances — the engines against the
brute-force subset sweep, then shrinks any disagreement with delta debugging and
serialises it as a standalone repro file that
``tests/test_fuzz_regression.py`` auto-loads.

Usage::

    PYTHONPATH=src python scripts/fuzz_krcore.py                 # 200-config sweep
    PYTHONPATH=src python scripts/fuzz_krcore.py --configs 1000 --seed 11
    PYTHONPATH=src python scripts/fuzz_krcore.py --edit-streams  # maintenance sweep
    PYTHONPATH=src python scripts/fuzz_krcore.py --self-test     # harness check

``--edit-streams`` gives every sampled case a 1–8 edit stream
(edge insert/delete, attribute mutation) and runs the maintained-vs-
fresh differential of
:func:`repro.fuzz.differential.run_edit_stream_case` instead of the
classic python/csr/oracle check: the session that absorbed the edits
through the bounded-scope maintenance layer must match a fresh session
on the final graph — results, preprocessing counters, and (when
sampled) the process-executor replay.

The self-test flips on the deliberate bound fault of
:mod:`repro.core.bounds` (``KRCORE_FUZZ_INJECT=bound-shave`` — the csr
tight bound shaved by one, i.e. invalid) and requires the harness to
*catch* it, shrink the witness, serialise it, and reproduce it from the
serialised file; it then confirms the repro is clean with the fault off.
A harness that cannot detect a known-bad bound would be decorative.

Per-family hardness is reported from the deterministic
:class:`~repro.core.stats.SearchStats` counters (see
``HARDNESS_WEIGHTS`` in :mod:`repro.datasets.adversarial`): score =
nodes + check_nodes + 5*bound_calls + 2*maximal_checks.

Every case also runs a looser-threshold check (see
:mod:`repro.fuzz.differential`); the sweep prints how many of those
checks took the threshold-seeded path and fails (exit 4) when a sweep
of at least 200 configs took none — the check would have gone dead.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from collections import defaultdict

from repro.core.bounds import FAULT_ENV
from repro.datasets.adversarial import score_from_counters
from repro.fuzz.differential import run_case
from repro.fuzz.repro_io import load_repro, save_repro
from repro.fuzz.shrink import shrink_case
from repro.fuzz.space import (
    sample_bound_stress_case,
    sample_case,
    sample_edit_stream_case,
)


def hardness(result) -> float:
    """The registered hardness score of one differential run."""
    return score_from_counters(result.stats)


def _still_failing(oracle_limit):
    def check(case) -> bool:
        return run_case(case, oracle_limit).disagreement is not None
    return check


def _handle_disagreement(case, result, index, out_dir, oracle_limit):
    """Shrink a failing case and serialise the repro; returns the path."""
    print(f"  disagreement on config {index}: {result.disagreement}")
    print(f"    case: {case.describe()}")
    g0 = case.graph
    shrunk = shrink_case(case, _still_failing(oracle_limit))
    final = run_case(shrunk, oracle_limit)
    print(
        f"    shrunk: n={g0.vertex_count}->{shrunk.graph.vertex_count} "
        f"m={g0.edge_count}->{shrunk.graph.edge_count} "
        f"({final.disagreement})"
    )
    path = os.path.join(out_dir, f"repro-{case.family}-{index:04d}.json")
    save_repro(path, shrunk, final.disagreement or result.disagreement)
    print(f"    repro written: {path}")
    return path


def run_sweep(args) -> int:
    rng = random.Random(args.seed)
    counts = defaultdict(int)
    oracle_counts = defaultdict(int)
    scores = defaultdict(list)
    failures = []
    started = time.monotonic()
    completed = 0
    seeded = 0
    truncated = False
    for i in range(args.configs):
        if args.time_budget and time.monotonic() - started > args.time_budget:
            truncated = True
            break
        case = (
            sample_edit_stream_case(rng) if args.edit_streams
            else sample_case(rng)
        )
        result = run_case(case, args.oracle_limit)
        completed += 1
        seeded += result.threshold_seeded
        counts[case.family] += 1
        if result.oracle_used:
            oracle_counts[case.family] += 1
        scores[case.family].append(hardness(result))
        if args.verbose:
            print(f"[{i:4d}] {case.describe()} score={hardness(result):.0f}")
        if result.disagreement is not None:
            failures.append(
                _handle_disagreement(
                    case, result, i, args.out_dir, args.oracle_limit
                )
            )
    elapsed = time.monotonic() - started

    print(f"\nsweep: {completed} configs in {elapsed:.1f}s (seed {args.seed})")
    print(f"{'family':>16} {'cases':>6} {'oracle':>7} "
          f"{'hardness mean':>14} {'max':>8}")
    for family in sorted(counts):
        vals = scores[family]
        print(
            f"{family:>16} {counts[family]:>6} {oracle_counts[family]:>7} "
            f"{sum(vals) / len(vals):>14.0f} {max(vals):>8.0f}"
        )
    print(f"looser-threshold checks on the seeded path: {seeded}/{completed}")
    if failures:
        print(f"\nFAIL: {len(failures)} disagreement(s); repros:")
        for path in failures:
            print(f"  {path}")
        return 1
    if truncated:
        # A truncated sweep must not read as a clean one: the requested
        # coverage was NOT checked (200 configs normally finish in a few
        # seconds, so hitting the budget means something is badly slow).
        print(
            f"\nFAIL: time budget of {args.time_budget:.0f}s exhausted "
            f"after {completed}/{args.configs} configs — "
            "coverage guarantee not met"
        )
        return 3
    if not seeded and completed >= DEFAULT_SWEEP_CONFIGS:
        print("\nFAIL: no looser-threshold check took the seeded path")
        return 4
    if args.edit_streams:
        print("\nok: zero maintained-vs-fresh disagreements")
    else:
        print("\nok: zero python/csr/oracle disagreements")
    return 0


def run_self_test(args) -> int:
    """Verify the harness catches, shrinks and serialises a known fault."""
    print(
        f"self-test: injecting {FAULT_ENV}=bound-shave "
        "(csr tight bound shaved by one — invalid)"
    )
    configs = args.configs
    rng = random.Random(args.seed)
    os.environ[FAULT_ENV] = "bound-shave"
    try:
        witness = None
        for i in range(configs):
            case = sample_bound_stress_case(rng)
            result = run_case(case, args.oracle_limit)
            if result.disagreement is not None:
                witness = (i, case, result)
                break
        if witness is None:
            print(f"FAIL: injected bound fault survived {configs} configs")
            return 1
        i, case, result = witness
        print(f"  caught at config {i}: {result.disagreement}")
        path = _handle_disagreement(
            case, result, i, args.out_dir, args.oracle_limit
        )

        # The serialised repro must replay the fault end to end.
        loaded, payload = load_repro(path)
        replay = run_case(loaded, args.oracle_limit)
        if replay.disagreement is None:
            print("FAIL: serialised repro does not reproduce under the fault")
            return 1
        print(f"  repro replays from {path}: {replay.disagreement}")
    finally:
        os.environ.pop(FAULT_ENV, None)

    clean = run_case(loaded, args.oracle_limit)
    if clean.disagreement is not None:
        print(
            "FAIL: repro still disagrees with the fault off "
            f"({clean.disagreement}) — a real bug, not the injection"
        )
        return 1
    print("  repro is clean with the fault off — detection is sound")
    print("ok: fault caught, shrunk, serialised, replayed")
    return 0


#: Per-mode --configs defaults, resolved after parsing so an explicit
#: value is honoured in either mode.
DEFAULT_SWEEP_CONFIGS = 200
DEFAULT_SELFTEST_CONFIGS = 80


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--configs", type=int, default=None,
        help="number of sampled configurations "
        f"(default {DEFAULT_SWEEP_CONFIGS}, "
        f"self-test {DEFAULT_SELFTEST_CONFIGS})",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="sweep rng seed; the whole sweep is a function of it",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECS",
        help="wall-clock cap; a sweep truncated by it FAILS (exit 3) — "
        "the requested config coverage was not checked",
    )
    parser.add_argument(
        "--oracle-limit", type=int, default=12,
        help="largest component the brute-force oracle sweeps (2^n subsets)",
    )
    parser.add_argument(
        "--out-dir", default="fuzz-repros",
        help="where shrunk repro files are written (default %(default)s); "
        "move a repro into tests/fuzz_repros/ to pin it as a regression test",
    )
    parser.add_argument(
        "--edit-streams", action="store_true",
        help="give every case a 1-8 edit stream and run the "
        "maintained-session vs fresh-session differential instead of "
        "the classic python/csr/oracle check",
    )
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the harness catches the deliberately injected bound fault",
    )
    args = parser.parse_args(argv)
    if args.configs is None:
        args.configs = (
            DEFAULT_SELFTEST_CONFIGS if args.self_test
            else DEFAULT_SWEEP_CONFIGS
        )

    if args.self_test:
        return run_self_test(args)
    if os.environ.get(FAULT_ENV):
        print(
            f"refusing to sweep with {FAULT_ENV} set "
            "(the fault flag is for --self-test only)"
        )
        return 2
    return run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
