"""Parallel component execution benchmark: serial vs process pool.

The preprocessing theorem splits every instance into independent k-core
components; :mod:`repro.core.executor` fans their searches over a
process pool.  This benchmark measures that fan-out on a workload built
to *have* component-level parallelism — many same-shaped components,
each with a non-trivial search tree:

* **enumeration** — a disjoint union of deep-tree onion instances
  (:mod:`repro.datasets.adversarial`) with *mixed* group sizes, so the
  pool has real long poles (the session submits the densest components
  first).  Each
  component is a ~2k-node branch-and-bound tree over a small vertex set
  — high compute per payload byte, which is exactly the regime where a
  process pool pays off.  Components are independent, so the speedup is
  bounded only by worker count and pickling overhead.

* **maximum** — a disjoint union of ``onions`` deep-maximum-tree onion
  instances.  The two-phase schedule solves them in
  :data:`~repro.core.executor.MAXIMUM_BATCH`-wide batches (each batch
  seeded with the best core of the previous ones), so parallelism is
  capped at the batch width — the measured number reported here is the
  honest one for the maximum engine.

* **giant** — ONE large onion component in maximum mode: the workload
  component-level fan-out cannot touch (a single component is a single
  task, so ``executor="process"`` measures ~1x here — reported to prove
  it).  Branch-level work sharing (``split_depth`` on
  ``executor="process"``) splits the top of its AdvMax branch tree into
  independent subtree tasks; the speedup of that plan over the serial
  unsplit baseline is the giant regime's headline number.

All modes double as an equivalence check: every pool run must emit
exactly the serial results (and the split runs must match the inline
split schedule counter-for-counter).  In full mode the enumeration
speedup at ``--workers`` (default 4) is gated at >= 1.8x and the giant
split speedup at >= 1.5x — the CI ``kernel-speedup`` job relies on
both.  The worker pool is created and warmed before timing: interpreter
spawn is a one-off cost an actual deployment pays once per process
lifetime, not once per query.

Standalone script (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_parallel_components.py           # full
    PYTHONPATH=src python benchmarks/bench_parallel_components.py --smoke   # CI tests job
    PYTHONPATH=src python benchmarks/bench_parallel_components.py --json out.json
"""

from __future__ import annotations

import argparse
import sys
import time

from _fixtures import BenchResult
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.executor import shutdown_pools
from repro.datasets.adversarial import build_instance
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

#: Full-mode enumeration workload: 12 onion components with mixed group
#: sizes (the 2^layers near-tied maximal cores per component give each
#: one a ~2k-node enumeration tree over only ~150-180 vertices).
FULL = dict(count=12, layers=5, options=2, groups=(18, 16, 14), half=3)
#: Smoke-mode workload: same shape, small enough for the tests job.
SMOKE = dict(count=4, layers=3, options=2, groups=(6, 7), half=2)

#: Maximum workload: same-size onions, so no component is skipped and
#: the two-phase schedule's batch width is the only parallelism cap.
ONIONS_FULL = dict(count=8, layers=4, options=2, groups=(18,), half=3)
ONIONS_SMOKE = dict(count=4, layers=3, options=2, groups=(6,), half=2)

#: Giant workload: ONE onion component with a deep maximum tree — no
#: component-level parallelism at all; only branch splitting helps.
GIANT_FULL = dict(layers=6, options=2, group=22, half=3)
GIANT_SMOKE = dict(layers=3, options=2, group=6, half=2)
#: Depth the giant's branch tree is split at (up to ``2^depth`` subtree
#: tasks — comfortably above the benchmark's 4 workers).
GIANT_SPLIT_DEPTH = 3

#: Full-mode gate: enumeration speedup at the benchmark worker count.
PARALLEL_GATE = 1.8
#: Full-mode gate: giant-component speedup of the process + split plan
#: over the serial unsplit baseline (where the unsplit pool gets ~1x).
SPLIT_GATE = 1.5


def onion_union(count: int, groups=(18,), **params) -> tuple:
    """Disjoint union of ``count`` onion instances (one component each).

    ``groups`` cycles per instance, so a multi-value tuple yields a
    mixed-size workload (bigger, denser components are submitted
    first).
    """
    insts = [
        build_instance(
            "onion", seed=i, group=groups[i % len(groups)], **params
        )
        for i in range(count)
    ]
    total = sum(inst.graph.vertex_count for inst in insts)
    g = AttributedGraph(total)
    off = 0
    for inst in insts:
        for u, v in inst.graph.edges():
            g.add_edge(off + u, off + v)
        for u in inst.graph.vertices():
            if inst.graph.has_attribute(u):
                g.set_attribute(off + u, inst.graph.attribute(u))
        off += inst.graph.vertex_count
    return g, insts[0].k, insts[0].predicate()


def solve_enum(graph, k, predicate, config):
    """``(cores, stats)`` of one one-shot enumeration under ``config``."""
    return enumerate_maximal_krcores(
        graph, k, predicate=predicate, config=config, with_stats=True
    )


def solve_max(graph, k, predicate, config):
    """``(best core or None, stats)`` of one one-shot maximum search."""
    return find_maximum_krcore(
        graph, k, predicate=predicate, config=config, with_stats=True
    )


def warm_pool(workers: int) -> float:
    """Spawn and warm the pool; returns the one-off cost (s).

    Pools are cached per worker count, so every pooled run below reuses
    the pool spawned here — interpreter start-up never pollutes a
    measured run.
    """
    g = AttributedGraph(4)
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3)):
        g.add_edge(u, v)
    for u in g.vertices():
        g.set_attribute(u, frozenset({"w"}))
    t0 = time.perf_counter()
    cfg = adv_enum_config(executor="process", workers=workers)
    solve_enum(g, 2, SimilarityPredicate("jaccard", 0.5), cfg)
    return time.perf_counter() - t0


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instance for CI: validates paths, skips the speed gate",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="process-pool size measured against serial (default 4)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"enumeration speedup gate (default {PARALLEL_GATE} in full "
             "mode, disabled in --smoke)",
    )
    parser.add_argument(
        "--min-split-speedup", type=float, default=None,
        help=f"giant-component process+split speedup gate (default "
             f"{SPLIT_GATE} in full mode, disabled in --smoke)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the measurements as JSON (CI uploads these artifacts)",
    )
    args = parser.parse_args(argv)
    gate = args.min_speedup
    if gate is None:
        gate = None if args.smoke else PARALLEL_GATE

    params = SMOKE if args.smoke else FULL
    onion_params = ONIONS_SMOKE if args.smoke else ONIONS_FULL
    giant_params = GIANT_SMOKE if args.smoke else GIANT_FULL
    enum_g, enum_k, enum_pred = onion_union(**params)
    union, union_k, union_pred = onion_union(**onion_params)
    giant = build_instance("onion", seed=0, **giant_params)
    giant_wl = (giant.graph, giant.k, giant.predicate())
    print(
        f"enumeration workload: {params['count']} onion components "
        f"(groups {params['groups']}), n={enum_g.vertex_count}, "
        f"m={enum_g.edge_count}, k={enum_k}"
    )
    print(
        f"maximum workload: {onion_params['count']} onion components, "
        f"n={union.vertex_count}, m={union.edge_count}, k={union_k}"
    )
    print(
        f"giant workload: 1 onion component, "
        f"n={giant.graph.vertex_count}, m={giant.graph.edge_count}, "
        f"k={giant.k}, split depth {GIANT_SPLIT_DEPTH}"
    )

    spawn_s = warm_pool(args.workers)
    print(f"pool spawn + warmup ({args.workers} workers, one-off): "
          f"{spawn_s:6.2f}s")

    serial_enum = adv_enum_config()
    par_enum = adv_enum_config(executor="process", workers=args.workers)
    serial_max = adv_max_config()
    par_max = adv_max_config(executor="process", workers=args.workers)

    rows = []
    failures = 0
    speedups = {}
    runs = (
        ("enumerate", solve_enum, (enum_g, enum_k, enum_pred),
         serial_enum, par_enum),
        ("maximum", solve_max, (union, union_k, union_pred),
         serial_max, par_max),
    )
    for name, fn, wl, cfg_s, cfg_p in runs:
        (res_s, stats_s), t_s = timed(fn, *wl, cfg_s)
        (res_p, stats_p), t_p = timed(fn, *wl, cfg_p)
        if name == "enumerate":
            same = (
                sorted(sorted(c.vertices) for c in res_s)
                == sorted(sorted(c.vertices) for c in res_p)
            )
        else:
            same = (res_s is None) == (res_p is None) and (
                res_s is None or set(res_s.vertices) == set(res_p.vertices)
            )
        if not same:
            failures += 1
            print(f"FAIL: {name} serial and process results disagree")
        if stats_s.nodes != stats_p.nodes:
            failures += 1
            print(f"FAIL: {name} stats diverged "
                  f"(serial {stats_s.nodes} vs process {stats_p.nodes} nodes)")
        speedup = t_s / t_p if t_p > 0 else float("inf")
        speedups[name] = speedup
        rows.append({
            "mode": name,
            "components": stats_s.components,
            "serial_s": t_s, "process_s": t_p,
            "workers": args.workers,
            "speedup": speedup,
            "nodes": stats_s.nodes,
        })
        print(f"{name:>10}: serial {t_s:7.2f}s  process({args.workers}) "
              f"{t_p:7.2f}s  {speedup:5.2f}x  "
              f"({stats_s.components} components, {stats_s.nodes} nodes)")

    # Giant single component: serial unsplit baseline, process pool
    # (one component = one task, expected ~1x), and the process + split
    # plan that actually shares the branch tree across workers.
    giant_cfgs = (
        ("serial", adv_max_config()),
        ("process", adv_max_config(executor="process", workers=args.workers)),
        ("split-inline", adv_max_config(split_depth=GIANT_SPLIT_DEPTH)),
        ("process-split", adv_max_config(
            executor="process", workers=args.workers,
            split_depth=GIANT_SPLIT_DEPTH,
        )),
    )
    giant_times = {}
    giant_runs = {}
    for label, cfg in giant_cfgs:
        (res, stats), secs = timed(solve_max, *giant_wl, cfg)
        giant_times[label] = secs
        giant_runs[label] = (res, stats)
        print(f"{'giant/' + label:>16}: {secs:7.2f}s  "
              f"({stats.nodes} nodes, shared_bound={stats.shared_bound})")
    base_res = giant_runs["serial"][0]
    base_set = set(base_res.vertices) if base_res is not None else None
    for label in ("process", "split-inline", "process-split"):
        res = giant_runs[label][0]
        got = set(res.vertices) if res is not None else None
        if got != base_set:
            failures += 1
            print(f"FAIL: giant {label} result differs from serial")
    si, sp = giant_runs["split-inline"][1], giant_runs["process-split"][1]
    if (si.nodes, si.shared_bound) != (sp.nodes, sp.shared_bound):
        failures += 1
        print(f"FAIL: giant split stats diverged (inline {si.nodes} nodes "
              f"vs pool {sp.nodes} nodes)")
    split_speedup = (
        giant_times["serial"] / giant_times["process-split"]
        if giant_times["process-split"] > 0 else float("inf")
    )
    process_speedup = (
        giant_times["serial"] / giant_times["process"]
        if giant_times["process"] > 0 else float("inf")
    )
    speedups["giant_split"] = split_speedup
    rows.append({
        "mode": "giant-maximum",
        "components": 1,
        "serial_s": giant_times["serial"],
        "process_s": giant_times["process"],
        "process_split_s": giant_times["process-split"],
        "split_inline_s": giant_times["split-inline"],
        "workers": args.workers,
        "split_depth": GIANT_SPLIT_DEPTH,
        "speedup": split_speedup,
        "process_speedup": process_speedup,
        "nodes": giant_runs["serial"][1].nodes,
    })
    print(f"{'giant':>10}: process+split {split_speedup:5.2f}x vs serial "
          f"(process alone {process_speedup:5.2f}x)")

    split_gate = args.min_split_speedup
    if split_gate is None:
        split_gate = None if args.smoke else SPLIT_GATE
    gate_failed = gate is not None and speedups["enumerate"] < gate
    split_gate_failed = (
        split_gate is not None and split_speedup < split_gate
    )
    if args.json:
        result = BenchResult(
            benchmark="parallel_components",
            mode="smoke" if args.smoke else "full",
            workload={
                "onion_enum": {
                    **{k_: list(v) if isinstance(v, tuple) else v
                       for k_, v in params.items()},
                    "k": enum_k,
                    "vertices": enum_g.vertex_count,
                    "edges": enum_g.edge_count,
                },
                "onion_max": {
                    **{k_: list(v) if isinstance(v, tuple) else v
                       for k_, v in onion_params.items()},
                    "k": union_k,
                    "vertices": union.vertex_count,
                    "edges": union.edge_count,
                },
                "onion_giant": {
                    **dict(giant_params),
                    "k": giant.k,
                    "split_depth": GIANT_SPLIT_DEPTH,
                    "vertices": giant.graph.vertex_count,
                    "edges": giant.graph.edge_count,
                },
            },
            rows=rows,
            gates={
                "parallel_speedup_min": gate,
                "parallel_speedup": speedups["enumerate"],
                "split_speedup_min": split_gate,
                "split_speedup": split_speedup,
                "process_single_component_speedup": process_speedup,
                "passed": not (failures or gate_failed or split_gate_failed),
            },
            extras={
                "workers": args.workers,
                "pool_spawn_seconds": spawn_s,
            },
        )
        for row in rows[:-1]:
            result.add_point(f"{row['mode']}/serial", row["serial_s"])
            result.add_point(f"{row['mode']}/process", row["process_s"])
        for label, secs in giant_times.items():
            result.add_point(f"giant-maximum/{label}", secs)
        result.write(args.json)
        print(f"wrote {args.json}")

    shutdown_pools()
    if failures:
        print(f"FAIL: {failures} serial/process disagreement(s)")
        return 1
    if gate_failed:
        print(f"FAIL: enumeration speedup {speedups['enumerate']:.2f}x "
              f"< {gate:.1f}x gate at {args.workers} workers")
        return 1
    if split_gate_failed:
        print(f"FAIL: giant process+split speedup {split_speedup:.2f}x "
              f"< {split_gate:.1f}x gate at {args.workers} workers")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
