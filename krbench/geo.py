"""Workload ``geo-scale``: a million-edge geo-social graph, front-end bound.

Inputs are a ``geosocial_network`` edge list plus planar points in km
(``n = 180000`` gives about 986k edges), written by a separate process.
Set-up runs the real-data path: streaming ingest, store save, session
load, and a first query that builds the per-edge distance cache.  The
timed passes walk distinct ``(k, r)`` points, ``k`` in {5, 6, 7} and
``r`` between 3 and 5 km, never repeating one, each answered with
``statistics`` then ``maximum``; one ``r`` level is a read.  The array front
end (filter, peel, component split, index) carries most of the time;
search a minority.
"""

from __future__ import annotations

import gc
import random
import time

from common import (
    Outcome, Spans, layer_table, median, peak_rss_mb, traced_layers, workdir,
)
from inputs import EDGES, POINTS, geo_files_fresh_process

from repro.core.api import find_maximum_krcore, krcore_statistics
from repro.core.session import KRCoreSession
from repro.graph.ingest import ingest_attributed_graph
from repro.store import GraphStore

SIZES = {"full": 180_000, "tiny": 2_500}
SETUP_REPS = 2
METRIC = "euclidean"
NAME = "geo"
KS = (5, 6, 7)
#: r levels (km) of one pass; pass ``p`` shifts them by ``p * STEP``.
LEVELS = (3.0, 3.5, 4.0, 4.5, 4.9)
STEP = 0.004
#: Pass 0 warms up.  Every pass grows the session's per-``r`` caches (see
#: ``MEMORY_PASSES``), so this also caps the run's memory, near 2.5 GB.
MAX_PASSES = 18
WARM_POINT = (7, 2.0)   # first query of set-up, outside the walk
#: Every pass adds the session's caches for five new ``r`` (about 90 MB
#: at full size), so peak memory is read after this many timed passes,
#: not after as many as the host's speed allowed.
MEMORY_PASSES = 5
FRONT_END = (
    "similarity.filter_s", "graph.kcore.peel_s", "graph.components.split_s",
    "core.solver.adjacency_s", "similarity.index_s",
)
FRONT_END_SHARE = 0.5


def _walk(seed: int, p: int):
    # A read is an r level, not a point: point latencies straddle a gap
    # at their median (11 vs 17 ms), so a per-point median jumped.
    jitter = random.Random(seed).uniform(0.0, 0.005)
    for level in LEVELS:
        r = round(level + p * STEP + jitter, 6)
        yield [(k, r) for k in KS]


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    out = Outcome()
    with workdir("geo-scale") as wd:
        edges = geo_files_fresh_process(SIZES[size], seed, wd)
        db = wd / "store.db"
        setup, ingest_s, save_s = [], [], []
        store = None
        for _ in range(SETUP_REPS):
            if store is not None:
                store.close()
            session = store = csr = None
            gc.collect()
            for suffix in ("", "-wal", "-shm"):
                db.with_name(db.name + suffix).unlink(missing_ok=True)
            t0 = time.perf_counter()
            csr = ingest_attributed_graph(wd / EDGES, wd / POINTS, "point")
            t1 = time.perf_counter()
            store = GraphStore(str(db))
            store.save_csr_graph(NAME, csr)
            t2 = time.perf_counter()
            session = KRCoreSession.load(store, NAME, metric=METRIC)
            session.statistics(*WARM_POINT)
            t3 = time.perf_counter()
            setup.append(t3 - t0)
            ingest_s.append(t1 - t0)
            save_s.append(t2 - t1)

        # Pass 0 of the walk warms the session, untimed: it pays the
        # once-per-k work (the pairwise cache's structural backbone) and
        # the cold component searches that later passes, at slightly
        # different r, mostly serve from the result cache.  A traced run
        # replays each pass through the stage functions right after its
        # untraced pass; the replay's own set-up (freeze, the per-edge
        # value cache) and warm-up pass mirror the session's, untraced.
        if trace:
            from stages import StageReplay, check_same_search

            warm = Spans()
            replay = StageReplay(warm, csr, METRIC)
            replay.prepare(*WARM_POINT)
            spans = Spans()
        passes, traced, reads, answers, components = [], [], [], [], 0
        start = None
        for p in range(MAX_PASSES):
            if start is not None and time.perf_counter() - start >= seconds:
                break
            walk = list(_walk(seed, p))
            pass_stats = []
            t_pass = time.perf_counter()
            for read in walk:
                t0 = time.perf_counter()
                for k, r in read:
                    summary, sstats = session.statistics(k, r, with_stats=True)
                    core, mstats = session.maximum(k, r, with_stats=True)
                    pass_stats += [sstats, mstats]
                    if p:
                        answers.append((k, r, summary, core))
                        components += sstats.components
                if p:
                    reads.append(time.perf_counter() - t0)
            if p:
                passes.append(time.perf_counter() - t_pass)
                if len(passes) == MEMORY_PASSES:
                    peak = peak_rss_mb()
            if trace:
                if p == 1:
                    replay.trace_into(spans)
                t0 = time.perf_counter()
                for read in walk:
                    for k, r in read:
                        replay.enumerate(k, r)
                        replay.maximum(k, r)
                if p:
                    traced.append(time.perf_counter() - t0)
                check_same_search(out, replay.end_pass(), *pass_stats)
            if start is None:
                start = time.perf_counter()
        out.attempted = len(reads)
        out.check(components > 0, "no (k, r) point of the walk has a component")
        if len(passes) < MEMORY_PASSES:
            # Before the answer check: its one-shot pipelines would count.
            peak = peak_rss_mb()

        # Answer check against the one-shot API (each call rebuilds the
        # whole pipeline, so one sampled point per query kind).
        rng = random.Random(seed)
        k, r, summary, _ = rng.choice(answers)
        ref = krcore_statistics(csr, k, r, metric=METRIC)
        ok = ref == summary
        out.check(ok, f"statistics({k}, {r}) {summary} != one-shot {ref}")
        out.failed += not ok
        # Sizes, not vertex sets: a warm session may break a size tie
        # between maximum cores differently from a one-shot run.
        k, r, _, core = rng.choice(answers)
        ref_core = find_maximum_krcore(csr, k, r, metric=METRIC)
        ok = (core.size if core else 0) == (ref_core.size if ref_core else 0)
        out.check(ok, f"maximum({k}, {r}) size differs from the one-shot answer")
        out.failed += not ok

        # The mean pass, not the median: about one pass in four pays a
        # slow read at the largest r, and across runs the median of a
        # run's passes spread more than their mean did.
        out.end_to_end = {
            "setup_s": median(setup),
            "total_s": sum(passes) / len(passes),
            "read_p50_ms": median(reads) * 1e3,
            "ops_per_s": len(reads) / sum(passes),
            "peak_rss_mb": peak,
        }
        if not trace:
            store.close()
            return out

        # Store and session halves of KRCoreSession.load, timed apart.
        t0 = time.perf_counter()
        graph = store.load_graph(NAME)
        store.load_csr(NAME, graph)
        t1 = time.perf_counter()
        KRCoreSession(graph, metric=METRIC, copy=False)
        t2 = time.perf_counter()
        del graph
        store.close()

        untraced = sum(passes)
        layers = traced_layers(out, spans, len(passes), untraced, sum(traced))
        front = sum(spans.self_s.get(name, 0.0) for name in FRONT_END)
        front_share = front / spans.total_s()
        out.check(front_share >= FRONT_END_SHARE,
                  f"front end is only {front_share:.0%} of traced time")
        layers["core.search.nodes_per_s"] = (
            layers["core.search.nodes"] / layers["core.search.s"]
            if layers.get("core.search.s") else 0.0
        )
        layers.update({
            "similarity.edge_cache_s": warm.self_s["similarity.edge_cache_s"],
            "graph.components.max_size": replay.max_component,
            "graph.ingest.s": median(ingest_s),
            "graph.ingest.edges_per_s": edges / median(ingest_s),
            "store.save_s": median(save_s),
            "store.load_s": t1 - t0,
            "core.session.construct_s": t2 - t1,
            "read_samples": len(reads),
        })
        out.per_layer = layers
        out.report = layer_table(spans, len(passes), untraced) + [
            f"timed passes: {len(passes)}",
            f"front-end share of traced time: {front_share:.1%}",
            f"set-up (median of {SETUP_REPS}): ingest {median(ingest_s):.2f}s"
            f", save {median(save_s):.2f}s, load {t1 - t0:.2f}s"
            f" + construct {t2 - t1:.3f}s, edges {edges}",
        ]
    return out
