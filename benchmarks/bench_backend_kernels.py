"""Microbenchmark: python (set-based) vs csr (array-native) kernels.

Times the hot preprocessing primitives on a synthetic random graph —
k-core peeling, connected components, and full preprocessing
(dissimilar-edge deletion + peel + components + index) — once per
backend, and reports the speedup.  This is the measurement behind the
backend choice: the CSR kernels must not merely "feel" faster.  The
full-preprocessing row times the dict-stage reference front end
(`reference_components`) in the python column against the session's
CSR pipeline (`prepare_components`) in the csr column, and checks they
yield the same component vertex sets.  The edge-filter row times the sort-free
`CSRGraph.filter_edges` against the lexsort build it replaced
(`CSRGraph.from_edges` on the kept edges), shown in the python column.
The batched-preparation row times the csr session's one-pass preparation
(`component_arrays`) on a geo-social graph against the per-component
stage functions it replaced (`component_sets` + `component_adjacency` +
`component_index` + `component_edges_key_csr` + `max_component_degree`),
also shown in the python column, and checks they agree component for
component.

Standalone script (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_backend_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_backend_kernels.py --smoke   # CI

Full mode uses a ~50k-edge graph; smoke mode shrinks it so CI stays
fast while still exercising every code path.  Exits non-zero if any
backend pair disagrees on its result, the filtered graph differs
from the lexsort build in any array, or the batched preparation differs
from the per-component stages in any signature, order, degree,
adjacency or index (the benchmark doubles as an equivalence check).
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
from repro.core.naive import reference_components
from repro.core.session import prepare_components
from repro.core.solver import (
    component_adjacency,
    component_arrays,
    component_edges_key_csr,
    component_index,
    component_sets,
    kcore_survivors,
    max_component_degree,
)
from repro.core.stats import SearchStats
from repro.datasets.geosocial import geosocial_network
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.components import connected_components
from repro.graph.kcore import k_core_vertices
from repro.similarity.cache import EdgeSimilarityCache
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
        geo_n = 3_000
    else:
        n, m, k = 10_000, 50_000, 3
        geo_n = 30_000
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

    cfg = adv_enum_config()
    t_py, ctx_py = timed(reference_components, g, k, pred, cfg, repeat=1)
    t_csr, ctx_csr = timed(
        prepare_components, g, k, pred, cfg, SearchStats(),
        Budget(None, None), repeat=1,
    )
    failures += [sorted(c.vertices) for c in ctx_py] != \
        [sorted(c.vertices) for c in ctx_csr]
    rows.append(("prepare_components", t_py, t_csr))

    # --- batched component preparation (Algorithm 1 line 4) ------------
    geo = CSRGraph.from_attributed(geosocial_network(geo_n, seed=1))
    gpred = SimilarityPredicate("euclidean", 4.9)
    filtered = EdgeSimilarityCache(
        geo, gpred, backend="csr"
    ).filtered_at(gpred.r)
    alive = kcore_survivors(filtered, 4, "csr")

    def per_component():
        out = []
        for comp in component_sets(filtered, alive, "csr"):
            adj = component_adjacency(filtered, comp, alive, "csr")
            index = component_index(geo, gpred, comp, "csr")
            vertices = frozenset(comp)
            signature = (
                vertices,
                component_edges_key_csr(comp, filtered, alive),
                index.pair_key(),
            )
            out.append((signature, max_component_degree(adj), adj, index))
        return out

    def batched():
        out = []
        for arrays in component_arrays(geo, gpred, filtered, alive):
            vertices = frozenset(arrays.verts.tolist())
            signature = (vertices, arrays.edges_key, arrays.pair_key())
            out.append((signature, arrays.max_degree, arrays))
        return out

    t_ref, ref = timed(per_component)
    t_csr, got = timed(batched)
    same = len(ref) == len(got) and all(
        want[:2] == have[:2]
        and have[2].adj == want[2]
        and have[2].index.rows() == want[3].rows()
        for want, have in zip(ref, got)
    )
    failures += not same
    print(
        f"batched preparation equivalence {'ok' if same else 'FAILED'}: "
        f"{len(got)} components, per-component {t_ref * 1e3:.1f} ms, "
        f"batched {t_csr * 1e3:.1f} ms"
    )
    rows.append(("batched preparation", t_ref, t_csr))

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
            workload={"vertices": n, "edges": m, "k": k, "geo_vertices": geo_n},
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
        print(
            f"FAIL: {failures} backend, edge-filter or preparation "
            "disagreement(s)"
        )
        return 1
    if gate_failed:
        print(f"FAIL: k-core peel speedup {peel_speedup:.1f}x < 3x gate")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
