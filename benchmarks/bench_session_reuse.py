"""Amortisation benchmark: one-shot ×N vs one KRCoreSession ×N queries.

The session's whole point is that repeated queries on the same graph
stop paying Algorithm 1's front end (CSR freeze, per-edge metric
values, k-core peel, per-component index build) over and over.  This
benchmark measures exactly that on two repeated-query workloads:

* an **r-sweep** — statistics plus the maximum core at one ``k`` over
  several thresholds (the shape of Figures 13 and 14, which sweep r for
  the enumeration and maximum problems on the same graphs);
* a **k-sweep** — the same pair of queries at one threshold over
  several ``k`` (the Figure 7(b) shape).

Each workload runs twice: independent one-shot calls per grid point,
then the same queries against a single prepared session.  The answers
must agree exactly (the benchmark doubles as an equivalence check), and
the r-sweep must amortise by >= 2x — that gate is enforced in CI
(including smoke mode).

Standalone script (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_session_reuse.py           # full
    PYTHONPATH=src python benchmarks/bench_session_reuse.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from _fixtures import BenchResult
from repro.core.api import find_maximum_krcore, krcore_statistics
from repro.core.session import KRCoreSession
from repro.graph.attributed_graph import AttributedGraph


def make_block_graph(blocks: int, size: int, seed: int = 0) -> AttributedGraph:
    """Disjoint dense blocks with block-themed keyword attributes.

    Structurally separate blocks keep the k-core components small (the
    regime the paper's datasets occupy after preprocessing); members of a
    block share a keyword core plus personal variation, so the swept
    thresholds move through the interesting part of the similarity
    distribution.
    """
    rng = random.Random(seed)
    n = blocks * size
    g = AttributedGraph(n)
    for b in range(blocks):
        base = b * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.5:
                    g.add_edge(base + i, base + j)
    for b in range(blocks):
        shared = [f"b{b}_{i}" for i in range(6)]
        personal = [f"x{b}_{i}" for i in range(6)]
        for u in range(b * size, (b + 1) * size):
            g.set_attribute(u, frozenset(shared + rng.sample(personal, 2)))
    return g


def run_workload(graph, points, backend):
    """(answers, seconds) for one-shot calls and for one session."""
    t0 = time.perf_counter()
    one_shot = []
    for k, r in points:
        summary = krcore_statistics(
            graph, k, r=r, metric="jaccard", backend=backend
        )
        best = find_maximum_krcore(
            graph, k, r=r, metric="jaccard", backend=backend
        )
        one_shot.append((summary, best.size if best else 0))
    t_one_shot = time.perf_counter() - t0

    t0 = time.perf_counter()
    session = KRCoreSession(graph, backend=backend, copy=False)
    amortised = []
    for k, r in points:
        summary = session.statistics(k, r)
        best = session.maximum(k, r)
        amortised.append((summary, best.size if best else 0))
    t_session = time.perf_counter() - t0
    return one_shot, t_one_shot, amortised, t_session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller instance for CI (the 2x gate still applies)",
    )
    parser.add_argument("--backend", default="csr", choices=("csr", "python"))
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the measurements as JSON (CI uploads these artifacts)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        blocks, size = 8, 40
    else:
        blocks, size = 12, 80
    graph = make_block_graph(blocks, size)
    print(f"block graph: n={graph.vertex_count}, m={graph.edge_count}, "
          f"backend={args.backend}")

    k_fixed = 3
    r_sweep = [(k_fixed, r) for r in (0.40, 0.45, 0.50, 0.55, 0.60)]
    r_fixed = 0.50
    k_sweep = [(k, r_fixed) for k in (2, 3, 4, 5)]

    failures = 0
    gate_failed = False
    json_rows = []
    print(f"{'workload':>10} {'one-shot':>10} {'session':>10} {'speedup':>9}")
    for name, points in (("r-sweep", r_sweep), ("k-sweep", k_sweep)):
        one_shot, t_one, amortised, t_sess = run_workload(
            graph, points, args.backend
        )
        if one_shot != amortised:
            failures += 1
        speedup = t_one / t_sess if t_sess > 0 else float("inf")
        json_rows.append({
            "workload": name, "one_shot_s": t_one, "session_s": t_sess,
            "speedup": speedup,
        })
        print(f"{name:>10} {t_one * 1e3:9.1f}m {t_sess * 1e3:9.1f}m "
              f"{speedup:8.1f}x")
        if name == "r-sweep" and speedup < 2.0:
            gate_failed = True

    if args.json:
        result = BenchResult(
            benchmark="session_reuse",
            mode="smoke" if args.smoke else "full",
            workload={
                "vertices": graph.vertex_count, "edges": graph.edge_count,
                "backend": args.backend,
            },
            rows=json_rows,
            gates={
                "r_sweep_speedup_min": 2.0,
                "r_sweep_speedup": json_rows[0]["speedup"],
                "passed": not (failures or gate_failed),
            },
        )
        for row in json_rows:
            result.add_point(f"{row['workload']}/one-shot", row["one_shot_s"])
            result.add_point(f"{row['workload']}/session", row["session_s"])
        result.write(args.json)
        print(f"wrote {args.json}")

    if failures:
        print(f"FAIL: {failures} workload(s) disagree with the one-shot API")
        return 1
    if gate_failed:
        print("FAIL: r-sweep amortisation below the 2x gate")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
