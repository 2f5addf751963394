"""Workload ``adversarial-search``: engine-bound onion instances.

Each pass ingests one seeded ``onion`` instance (240 vertices, one
component at the family's engineered defaults), builds a fresh
:class:`~repro.core.session.KRCoreSession` and runs default-config
``maximum`` then ``enumerate``.  Almost all of a pass is branch-and-bound
search, so a change to the search engine shows here first; ingest, the
store and maintenance are barely used.

It is not in ``BENCHMARK.json``: on a shared 2-core host its wall times
swing by up to 1.6x between runs a few seconds apart (the search tree is
identical for every seed, so that is the host alone).  Its traced counts
(``core.search.nodes``, ``core.search.bound_calls``,
``core.maximal_check.nodes``) repeat exactly on any host.
"""

from __future__ import annotations

import time
from pathlib import Path

from common import (
    Outcome, Spans, layer_table, median, peak_rss_mb, traced_layers, workdir,
)
from inputs import EDGES, KEYWORDS, onion_instance

from repro.core.session import KRCoreSession
from repro.graph.ingest import ingest_attributed_graph

#: Onion parameters per benchmark size (``full`` = the family defaults).
SIZES = {"full": {}, "tiny": {"layers": 3, "group": 7, "half": 2}}
SETUP_REPS = 30         # set-up takes milliseconds here
#: Search must own at least this share of the traced time.
SEARCH_SHARE = 0.8


def _ingest(path: Path):
    return ingest_attributed_graph(path / EDGES, path / KEYWORDS, "set")


def _check(out: Outcome, expected: dict, core, cores) -> None:
    ok = core is not None and core.size == expected["size"]
    out.check(ok, f"maximum size {core and core.size} != {expected['size']}")
    out.failed += not ok
    ok = len(cores) == expected["count"] and all(
        c.size == expected["size"] for c in cores
    )
    out.check(ok, f"enumerate gave {len(cores)} cores, "
                  f"expected {expected['count']} of size {expected['size']}")
    out.failed += not ok


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    out = Outcome()
    with workdir("adversarial-search") as wd:
        instances = []

        def instance(i: int):
            while len(instances) <= i:
                j = len(instances)
                path = wd / f"onion{j}"
                k, r, expected = onion_instance(
                    seed * 1000 + j, path, **SIZES[size]
                )
                instances.append((path, k, r, expected))
            return instances[i]

        setup, ingest_s, construct_s = [], [], []
        for rep in range(SETUP_REPS):
            path = instance(rep % 3)[0]
            t0 = time.perf_counter()
            csr = _ingest(path)
            t1 = time.perf_counter()
            KRCoreSession(csr)
            t2 = time.perf_counter()
            setup.append(t2 - t0)
            ingest_s.append(t1 - t0)
            construct_s.append(t2 - t1)
        edges = csr.edge_count

        # Untraced passes give the end-to-end numbers.  A traced run
        # replays each instance through the stage functions right after
        # its untraced pass, so both see the same machine conditions.
        if trace:
            from stages import StageReplay, check_same_search
        spans = Spans()
        passes, traced, reads, nodes = [], [], [], 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            path, k, r, expected = instance(len(passes))
            csr = _ingest(path)
            t0 = time.perf_counter()
            session = KRCoreSession(csr)
            t1 = time.perf_counter()
            core, mstats = session.maximum(k, r, with_stats=True)
            t2 = time.perf_counter()
            cores, estats = session.enumerate(k, r, with_stats=True)
            t3 = time.perf_counter()
            passes.append(t3 - t0)
            reads += [t2 - t1, t3 - t2]
            out.attempted += 2
            _check(out, expected, core, cores)
            nodes += mstats.nodes + estats.nodes
            out.check(mstats.components >= 1, "no component survived preprocessing")
            if trace:
                t0 = time.perf_counter()
                replay = StageReplay(spans, csr, "jaccard")
                best = replay.maximum(k, r)
                found = replay.enumerate(k, r)
                traced.append(time.perf_counter() - t0)
                check_same_search(out, replay.end_pass(), mstats, estats)
                ok = (best is not None and len(best) == expected["size"]
                      and len(found) == expected["count"])
                out.check(ok, "traced replay disagrees with the expected answer")
        out.check(nodes > 0, "the search entered no nodes")

        out.end_to_end = {
            "setup_s": median(setup),
            "total_s": median(passes),
            "read_p50_ms": median(reads) * 1e3,
            "ops_per_s": len(reads) / sum(passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        if not trace:
            return out

        untraced = sum(passes)
        layers = traced_layers(out, spans, len(passes), untraced, sum(traced))
        search_share = spans.self_s.get("core.search.s", 0.0) / spans.total_s()
        out.check(search_share >= SEARCH_SHARE,
                  f"search is only {search_share:.0%} of traced time")
        layers["core.search.nodes_per_s"] = (
            layers["core.search.nodes"] / layers["core.search.s"]
        )
        layers.update({
            "graph.components.max_size": replay.max_component,
            "graph.ingest.s": median(ingest_s),
            "graph.ingest.edges_per_s": edges / median(ingest_s),
            "core.session.construct_s": median(construct_s),
            "read_samples": len(reads),
        })
        out.per_layer = layers
        out.report = layer_table(spans, len(passes), untraced) + [
            f"search share of traced time: {search_share:.1%}",
        ]
    return out
