"""Microbenchmark: python (set-based) vs csr (array-native) kernels.

Times the hot preprocessing primitives on a synthetic random graph —
k-core peeling, connected components, and full preprocessing
(`prepare_components`, i.e. dissimilar-edge deletion + peel + components
+ index) — once per backend, and reports the speedup.  This is the
measurement behind the backend choice: the CSR kernels must not merely
"feel" faster.  The edge-filter row times the sort-free
`CSRGraph.filter_edges` against the lexsort build it replaced
(`CSRGraph.from_edges` on the kept edges), shown in the python column.

Standalone script (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_backend_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_backend_kernels.py --smoke   # CI

Full mode uses a ~50k-edge graph; smoke mode shrinks it so CI stays
fast while still exercising every code path.  Exits non-zero if any
backend pair disagrees on its result, or the filtered graph differs
from the lexsort build in any array (the benchmark doubles as an
equivalence check).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import numpy as np

from _fixtures import BenchResult
from repro.core.config import adv_enum_config
from repro.core.context import Budget
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.components import connected_components
from repro.graph.kcore import k_core_vertices
from repro.similarity.threshold import SimilarityPredicate

VOCAB = [f"w{i}" for i in range(40)]


def make_graph(n: int, m: int, seed: int = 0) -> AttributedGraph:
    """Random multi-community graph with ~m edges and keyword attributes."""
    rng = random.Random(seed)
    g = AttributedGraph(n)
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and g.add_edge(min(u, v), max(u, v)):
            added += 1
    for u in range(n):
        g.set_attribute(u, frozenset(rng.sample(VOCAB, 4)))
    return g


def timed(fn, *args, repeat: int = 3, **kwargs):
    """Best-of-``repeat`` wall time and the (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instance for CI: validates paths, skips the speed gate",
    )
    parser.add_argument("--edges", type=int, default=None,
                        help="override the synthetic edge count")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the measurements as JSON (CI uploads these artifacts)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n, m, k = 400, 2_000, 3
    else:
        n, m, k = 10_000, 50_000, 3
    if args.edges is not None:
        m = args.edges
        n = max(10, m // 5)

    print(f"synthetic graph: n={n}, m={m}, k={k}")
    g = make_graph(n, m)
    t_freeze, csr = timed(CSRGraph.from_attributed, g, repeat=1)
    print(f"CSR construction (once per solve): {t_freeze * 1e3:8.1f} ms")

    failures = 0
    rows = []

    # --- k-core peeling ------------------------------------------------
    t_py, core_py = timed(k_core_vertices, g, k)
    t_csr, core_csr = timed(k_core_vertices, csr, k)
    failures += core_py != core_csr
    rows.append(("k-core peel", t_py, t_csr))

    # --- connected components -----------------------------------------
    t_py, comp_py = timed(connected_components, g, core_py)
    t_csr, comp_csr = timed(connected_components, csr, core_csr)
    failures += comp_py != comp_csr
    rows.append(("components", t_py, t_csr))

    # --- edge filter (Algorithm 1 line 1, one threshold) ----------------
    t_map, _ = timed(csr._edge_id_map, repeat=1)
    print(f"edge-id map (once per graph):      {t_map * 1e3:8.1f} ms")
    keep = np.random.default_rng(0).random(csr.edge_count) < 0.7
    eu, ev = csr.edge_array()
    t_ref, ref = timed(
        lambda: CSRGraph.from_edges(csr.vertex_count, eu[keep], ev[keep])
    )
    t_csr, got = timed(csr.filter_edges, keep)
    failures += not (
        np.array_equal(got.indptr, ref.indptr)
        and np.array_equal(got.indices, ref.indices)
        and got.indptr.dtype == ref.indptr.dtype
        and got.indices.dtype == ref.indices.dtype
    )
    rows.append(("edge filter", t_ref, t_csr))

    # --- full preprocessing (Algorithm 1 lines 1-4) --------------------
    pred = SimilarityPredicate("jaccard", 0.2)

    def full(backend):
        cfg = adv_enum_config(backend=backend)
        return prepare_components(
            g, k, pred, cfg, SearchStats(), Budget(None, None)
        )

    t_py, ctx_py = timed(full, "python", repeat=1)
    t_csr, ctx_csr = timed(full, "csr", repeat=1)
    failures += [sorted(c.vertices) for c in ctx_py] != \
        [sorted(c.vertices) for c in ctx_csr]
    rows.append(("prepare_components", t_py, t_csr))

    print(f"{'kernel':>20} {'python':>10} {'csr':>10} {'speedup':>9}")
    peel_speedup = None
    json_rows = []
    for name, t_py, t_csr in rows:
        speedup = t_py / t_csr if t_csr > 0 else float("inf")
        if name == "k-core peel":
            peel_speedup = speedup
        json_rows.append({
            "kernel": name, "python_s": t_py, "csr_s": t_csr,
            "speedup": speedup,
        })
        print(f"{name:>20} {t_py * 1e3:9.1f}m {t_csr * 1e3:9.1f}m {speedup:8.1f}x")

    gate_failed = (
        not args.smoke and peel_speedup is not None and peel_speedup < 3.0
    )
    if args.json:
        result = BenchResult(
            benchmark="backend_kernels",
            mode="smoke" if args.smoke else "full",
            workload={"vertices": n, "edges": m, "k": k},
            rows=json_rows,
            gates={
                "peel_speedup_min": None if args.smoke else 3.0,
                "peel_speedup": peel_speedup,
                "passed": not (failures or gate_failed),
            },
            extras={"csr_construction_s": t_freeze, "edge_id_map_s": t_map},
        )
        for name, t_py, t_csr in rows:
            slug = name.replace(" ", "-").replace("_", "-")
            result.add_point(f"{slug}/python", t_py)
            result.add_point(f"{slug}/csr", t_csr)
        result.add_point("csr-construction", t_freeze)
        result.write(args.json)
        print(f"wrote {args.json}")

    if failures:
        print(f"FAIL: {failures} backend or edge-filter disagreement(s)")
        return 1
    if gate_failed:
        print(f"FAIL: k-core peel speedup {peel_speedup:.1f}x < 3x gate")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
