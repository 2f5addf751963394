"""Engine benchmark: set-based (python) vs bitset (csr) search engines.

PR 1 made *preprocessing* array-native; this benchmark measures the
*search engines* themselves — the branch-and-bound loops of
:mod:`repro.core.enumerate` and :mod:`repro.core.maximum`, where nearly
all remaining time goes on hard (k, r) instances.  Preprocessing runs
once (shared contexts); each engine backend then searches the identical
components, so the timing isolates pure engine work (for the bitset
engine that includes the one-off packing of each component into
bitmask form — the cost a cold solve actually pays).

Two workloads, one per engine:

* **enumeration** — a ~50k-edge multi-community graph in the regime the
  paper's figures probe: each community is a small-world block (ring
  lattice + random chords, so component diameters stay social-network
  small) whose members share a keyword profile, except for two planted
  factions that are similar to the block's core profile but dissimilar
  to *each other*.  Every block therefore holds exactly two overlapping
  maximal (k,r)-cores, and the engines must branch over the faction
  vertices to separate them — a search tree of ~1-2k nodes over
  2500-vertex components, which is exactly where per-node set algebra
  dominates.

* **maximum** — the deep-maximum-tree "onion" family of
  :mod:`repro.datasets.adversarial`: every one-option-per-layer union is
  a near-tied maximum core and the (k,k')-core bound cannot prune until
  almost every layer is decided, so Algorithm 5 grinds through thousands
  of nodes of bound evaluations.  On the old community workloads the
  bound pruned the maximum tree to nothing and its bitset win was ~1x
  noise (the ROADMAP gap); the onion is where a maximum-engine
  regression actually shows.

The benchmark doubles as an equivalence check (both engines must emit
identical cores on both workloads) and, in full mode, enforces the
>= 2x enumeration and >= 1.5x maximum speedup gates the CI
`kernel-speedup` job relies on.

Standalone script (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py           # full
    PYTHONPATH=src python benchmarks/bench_engine_backends.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_engine_backends.py --json out.json
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from _fixtures import BenchResult
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.context import Budget, ComponentContext
from repro.core.enumerate import enumerate_component
from repro.core.maximum import find_maximum_in_component
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.datasets.adversarial import build_instance
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

#: Full-mode workload: 4 blocks x 2500 vertices, ring degree 6 + 2
#: chords per vertex ≈ 50k edges total, 150-vertex factions.
FULL = dict(blocks=4, size=2500, half=3, chords=2, faction=150)
#: Smoke-mode workload: same shape, small enough for the tests job.
SMOKE = dict(blocks=2, size=300, half=3, chords=2, faction=24)

#: Deep-maximum-tree workload (the adversarial onion): full mode is the
#: family's registered default — ~4.7k search nodes, ~4k (k,k')-bound
#: evaluations over a 240-vertex component.
DEEP_FULL = dict(layers=5, options=2, group=24, half=3)
DEEP_SMOKE = dict(layers=3, options=2, group=6, half=2)

K = 4
R = 0.3

#: Full-mode speedup gates (csr engine vs python engine).
ENUM_GATE = 2.0
MAX_GATE = 1.5


def make_workload(
    blocks: int, size: int, half: int, chords: int, faction: int,
    seed: int = 0,
) -> AttributedGraph:
    """Small-world community blocks with two planted factions each.

    Block members carry the block profile ``D`` (20 keywords).  Two
    disjoint faction groups of ``faction`` vertices carry ``X`` / ``Y``
    profiles: 10 keywords shared with ``D`` plus 10 private ones, so
    X–D and Y–D pairs sit at Jaccard 1/3 (similar at r=0.3) while X–Y
    pairs share nothing (dissimilar).  The maximal (k,r)-cores of each
    block are the two faction-pure subgraphs D ∪ X and D ∪ Y.
    """
    rng = random.Random(seed)
    g = AttributedGraph(blocks * size)
    for b in range(blocks):
        off = b * size
        block_words = [f"b{b}_w{i}" for i in range(20)]
        profile_d = frozenset(block_words)
        profile_x = frozenset(
            block_words[:10] + [f"b{b}_x{i}" for i in range(10)]
        )
        profile_y = frozenset(
            block_words[10:] + [f"b{b}_y{i}" for i in range(10)]
        )
        ids = list(range(off, off + size))
        for i in range(size):
            for d in range(1, half + 1):
                g.add_edge(off + i, off + (i + d) % size)
            for _ in range(chords):
                j = rng.randrange(size)
                if j != i:
                    g.add_edge(off + i, off + j)
        special = rng.sample(ids, 2 * faction)
        xs = set(special[:faction])
        ys = set(special[faction:])
        for u in ids:
            if u in xs:
                g.set_attribute(u, profile_x)
            elif u in ys:
                g.set_attribute(u, profile_y)
            else:
                g.set_attribute(u, profile_d)
    return g


def run_engines(contexts, backend: str, maximum: bool):
    """(result, seconds, nodes) searching the shared contexts."""
    cfg = (adv_max_config if maximum else adv_enum_config)(backend=backend)
    stats = SearchStats()
    best = None
    cores = []
    t0 = time.perf_counter()
    for ctx in contexts:
        # Fresh context per run: private stats/rng, and no carried-over
        # packed form, so every backend pays its own cold-start cost.
        run_ctx = ComponentContext(
            ctx.vertices, ctx.adj, ctx.index, ctx.k, cfg, stats,
            Budget(None, None), random.Random(cfg.seed),
        )
        if maximum:
            best = find_maximum_in_component(run_ctx, best)
        else:
            cores.extend(enumerate_component(run_ctx))
    elapsed = time.perf_counter() - t0
    result = best if maximum else sorted(sorted(c) for c in cores)
    return result, elapsed, stats.nodes


def prepare(graph: AttributedGraph, k: int, pred: SimilarityPredicate):
    """(contexts, prep seconds) of the shared csr preprocessing."""
    t0 = time.perf_counter()
    contexts = prepare_components(
        graph, k, pred, adv_enum_config(backend="csr"),
        SearchStats(), Budget(None, None),
    )
    return contexts, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instance for CI: validates paths, skips the speed gates",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the measurements as JSON (CI uploads these artifacts)",
    )
    args = parser.parse_args(argv)

    params = SMOKE if args.smoke else FULL
    deep_params = DEEP_SMOKE if args.smoke else DEEP_FULL
    faction_graph = make_workload(**params)
    deep = build_instance("onion", **deep_params)
    print(
        f"enumeration workload (faction): n={faction_graph.vertex_count}, "
        f"m={faction_graph.edge_count}, k={K}, r={R}, "
        f"blocks={params['blocks']}"
    )
    print(
        f"maximum workload (onion): n={deep.graph.vertex_count}, "
        f"m={deep.graph.edge_count}, k={deep.k}, r={deep.r:.4f}, "
        f"layers={deep_params['layers']}"
    )

    workloads = {
        "enumerate": prepare(faction_graph, K, SimilarityPredicate("jaccard", R)),
        "maximum": prepare(deep.graph, deep.k, deep.predicate()),
    }
    for name, (contexts, t_prep) in workloads.items():
        print(f"shared preprocessing ({name}, csr, once): "
              f"{t_prep * 1e3:8.1f} ms, {len(contexts)} component(s)")

    failures = 0
    rows = []
    speedups = {}
    for name, maximum in (("enumerate", False), ("maximum", True)):
        contexts, t_prep = workloads[name]
        res_py, t_py, nodes = run_engines(contexts, "python", maximum)
        res_cs, t_cs, _ = run_engines(contexts, "csr", maximum)
        if res_py != res_cs:
            failures += 1
            print(f"FAIL: {name} engines disagree")
        speedup = t_py / t_cs if t_cs > 0 else float("inf")
        speedups[name] = speedup
        rows.append({
            "engine": name,
            "workload": "faction" if name == "enumerate" else "onion",
            "python_s": t_py, "csr_s": t_cs,
            "speedup": speedup, "nodes": nodes,
            "prep_seconds": t_prep,
        })
        print(f"{name:>10}: python {t_py:7.2f}s  csr {t_cs:7.2f}s  "
              f"{speedup:5.1f}x  ({nodes} nodes)")

    gates = {} if args.smoke else {
        "enumerate": (speedups["enumerate"], ENUM_GATE),
        "maximum": (speedups["maximum"], MAX_GATE),
    }
    gate_failures = [
        f"{name} speedup {got:.1f}x < {want:.1f}x gate"
        for name, (got, want) in gates.items() if got < want
    ]

    if args.json:
        result = BenchResult(
            benchmark="engine_backends",
            mode="smoke" if args.smoke else "full",
            workload={
                "faction": {
                    **params, "k": K, "r": R,
                    "vertices": faction_graph.vertex_count,
                    "edges": faction_graph.edge_count,
                },
                "onion": {
                    **deep_params, "k": deep.k, "r": deep.r,
                    "vertices": deep.graph.vertex_count,
                    "edges": deep.graph.edge_count,
                },
            },
            rows=rows,
            gates={
                "enumeration_speedup_min": None if args.smoke else ENUM_GATE,
                "enumeration_speedup": speedups["enumerate"],
                "maximum_speedup_min": None if args.smoke else MAX_GATE,
                "maximum_speedup": speedups["maximum"],
                "passed": not (failures or gate_failures),
            },
        )
        for row in rows:
            result.add_point(f"{row['engine']}/python", row["python_s"])
            result.add_point(f"{row['engine']}/csr", row["csr_s"])
            result.add_point(f"{row['engine']}/prep", row["prep_seconds"])
        result.write(args.json)
        print(f"wrote {args.json}")

    if failures:
        print(f"FAIL: {failures} engine disagreement(s)")
        return 1
    if gate_failures:
        for line in gate_failures:
            print(f"FAIL: {line}")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
