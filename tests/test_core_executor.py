"""Property tests for the pluggable component execution layer.

The contract of :mod:`repro.core.executor` is *invisibility*: for any
graph, any backend, any engine and any schedule, the process executor
must produce results **and merged stats counters** byte-identical to the
serial path.  These tests pin that contract across the backend × engine
× order matrix on the adversarial families, plus the scheduling,
degenerate, pickling and failure-path behaviour the parallel layer adds.

The worker pools are cached per worker count and shared across the whole
test session (interpreter spawn is the dominant cost), so the process
cases here cost task pickling, not process startup.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from conftest import as_sorted_sets, solve_enum, solve_max
from repro.core.config import SearchConfig, adv_enum_config, adv_max_config
import repro.core.executor as executor_mod
from repro.core.context import Budget, BitsetComponentContext, bitset_context
from repro.core.executor import (
    MAXIMUM_BATCH,
    ComponentTask,
    ParallelExecutor,
    SerialExecutor,
    component_hardness,
    component_sort_key,
    make_executor,
    solve_component_task,
    task_from_context,
)
from repro.core.session import KRCoreSession, prepare_components
from repro.core.solver import (
    iter_maximum_batches,
    max_component_degree,
    maximum_schedule,
)
from repro.core.stats import SearchStats
from repro.datasets.adversarial import build_instance
from repro.exceptions import (
    ComponentExecutionError,
    InvalidParameterError,
    SearchBudgetExceeded,
)
from repro.fuzz.differential import PARITY_COUNTERS
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

#: Execution plan of the two-worker process pool the parity tests use.
POOL = {"executor": "process", "workers": 2}

#: Tiny adversarial instances for the branch-and-bound engine and the
#: Clique+ baseline: one per engineered family, small enough that the
#: matrix sweep stays fast but hard enough that the engines branch.
#: (The interleaved family is engineered to hold *zero* maximal cores
#: at its threshold — it serves as the empty-results fixture instead.)
FAMILY_PARAMS = {
    "onion": dict(layers=2, options=2, group=5, half=2),
    "ring-of-cliques": dict(cliques=6, clique_size=4, cut_cliques=2),
    "borderline": dict(n=24, base_tokens=4, half=2, chords=2),
}

#: Deeper variants for the maximum engine (real bound-pruned trees).
MAX_FAMILY_PARAMS = {
    "onion": dict(layers=3, options=2, group=6, half=2),
    "ring-of-cliques": dict(cliques=6, clique_size=4, cut_cliques=2),
    "borderline": dict(n=28, base_tokens=4, half=2, chords=2),
}


def family_instance(name, maximum=False):
    params = (MAX_FAMILY_PARAMS if maximum else FAMILY_PARAMS)[name]
    return build_instance(name, **params)


def multi_component_graph(pieces=4):
    """Disjoint union of borderline instances (one mixed-size component
    each; they share k=2 and the engineered threshold)."""
    insts = [
        build_instance(
            "borderline", n=24 + 4 * i, base_tokens=4, half=2, chords=2,
            seed=i,
        )
        for i in range(pieces)
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


def assert_stats_parity(a: SearchStats, b: SearchStats, label=""):
    diffs = {
        name: (getattr(a, name), getattr(b, name))
        for name in PARITY_COUNTERS
        if getattr(a, name) != getattr(b, name)
    }
    assert not diffs, f"stats diverged {label}: {diffs}"


# ----------------------------------------------------------------------
# Config surface
# ----------------------------------------------------------------------

class TestConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.executor == "serial"
        assert cfg.workers is None

    def test_rejects_unknown_executor(self):
        with pytest.raises(InvalidParameterError):
            SearchConfig(executor="thread")

    @pytest.mark.parametrize("workers", (0, -2))
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(InvalidParameterError):
            SearchConfig(workers=workers)

    def test_make_executor_mapping(self):
        assert make_executor(SearchConfig()) is None
        assert isinstance(
            make_executor(SearchConfig(executor="process", workers=1)),
            SerialExecutor,
        )
        pex = make_executor(SearchConfig(executor="process", workers=3))
        assert isinstance(pex, ParallelExecutor)
        assert pex.workers == 3


# ----------------------------------------------------------------------
# Shared hardness-aware scheduling (satellite: one ordering function)
# ----------------------------------------------------------------------

class TestHardnessOrdering:
    def test_estimate_ranks_size_and_density(self):
        # 40 sparse vertices outrank a 10-vertex clique: tree work scales
        # with branchable vertices, not peak degree alone.
        assert component_hardness(40, 3) > component_hardness(10, 9)
        assert component_hardness(10, 9) > component_hardness(5, 4)

    @staticmethod
    def hardness_order(graph, k, pred, backend="csr"):
        """Component vertex lists in the pool's hardest-first order."""
        ctxs = prepare_components(
            graph, k, pred, adv_enum_config(backend=backend),
            SearchStats(), Budget(None, None),
        )
        ctxs.sort(key=lambda c: component_sort_key(
            len(c.vertices), max_component_degree(c.adj), min(c.vertices),
        ))
        return [sorted(c.vertices) for c in ctxs]

    def test_order_pinned_on_mixed_size_fixture(self):
        # Three components: a 6-clique (36), a 12-ring (36 -- tie broken
        # by size), and a 20-vertex path (60, hardest).  The regression
        # this pins: the old max-degree-only proxy would have put the
        # clique first and the path last.
        g = AttributedGraph(38)
        for i in range(6):
            for j in range(i + 1, 6):
                g.add_edge(i, j)
        for i in range(12):
            g.add_edge(6 + i, 6 + (i + 1) % 12)
        for i in range(19):
            g.add_edge(18 + i, 19 + i)
        for u in g.vertices():
            g.set_attribute(u, frozenset({"s"}))
        pred = SimilarityPredicate("jaccard", 0.1)
        order = self.hardness_order(g, 1, pred)
        assert [len(vs) for vs in order] == [20, 12, 6]

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_order_is_backend_independent(self, backend):
        g, k, pred = multi_component_graph()
        assert self.hardness_order(g, k, pred, backend) == (
            self.hardness_order(g, k, pred, "python")
        )


# ----------------------------------------------------------------------
# Task payloads: pickle round-trip
# ----------------------------------------------------------------------

class TestTaskPickling:
    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_roundtrip_solves_identically(self, backend):
        inst = family_instance("borderline")
        cfg = adv_enum_config(backend=backend)
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), cfg,
            SearchStats(), Budget(None, None),
        )
        assert ctxs
        for i, ctx in enumerate(ctxs):
            task = task_from_context(i, ctx, "enumerate")
            clone = pickle.loads(pickle.dumps(task))
            assert isinstance(clone, ComponentTask)
            assert clone.vertices == task.vertices
            assert clone.config == task.config
            direct = solve_component_task(task)
            replayed = solve_component_task(clone)
            assert direct.status == replayed.status == "ok"
            assert as_sorted_sets(direct.result) == as_sorted_sets(replayed.result)
            assert_stats_parity(direct.stats, replayed.stats, "pickled task")

    def test_pooled_task_carries_packed_bitset(self, monkeypatch):
        # The coordinator already holds the component's packed matrices;
        # the task pickles them and the worker searches them as shipped.
        inst = family_instance("onion", maximum=True)
        cfg = adv_max_config(executor="process", workers=2)
        ctx = prepare_components(
            inst.graph, inst.k, inst.predicate(), cfg,
            SearchStats(), Budget(None, None),
        )[0]
        packed = bitset_context(ctx)
        task = task_from_context(0, ctx, "maximum")
        assert task.bitset is packed
        repacked = solve_component_task(replace(task, bitset=None))
        clone = pickle.loads(pickle.dumps(task))

        def no_repack(*args, **kwargs):
            raise AssertionError("the worker repacked the component")

        monkeypatch.setattr(BitsetComponentContext, "__init__", no_repack)
        seen = []
        build = executor_mod.ComponentContext

        def spy(**kwargs):
            seen.append(kwargs["bitset"])
            return build(**kwargs)

        monkeypatch.setattr(executor_mod, "ComponentContext", spy)
        out = solve_component_task(clone)
        assert out.status == "ok", out.error
        assert seen == [clone.bitset]
        for name in ("verts", "nbr", "dis", "sim"):
            assert np.array_equal(getattr(clone.bitset, name), getattr(packed, name))
        assert out.result == repacked.result
        assert_stats_parity(repacked.stats, out.stats, "shipped bitset")

    def test_task_config_is_normalised(self):
        inst = family_instance("borderline")
        cfg = adv_enum_config(
            executor="process", workers=8, time_limit=60.0,
        )
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), cfg,
            SearchStats(), Budget(None, None),
        )
        task = task_from_context(0, ctxs[0], "enumerate")
        assert task.config.executor == "serial"
        assert task.config.workers is None
        assert task.config.time_limit is None


# ----------------------------------------------------------------------
# Parity: backend x engine x order matrix, serial vs process
# ----------------------------------------------------------------------

class TestParallelParity:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("engine", ("engine", "clique"))
    def test_enumeration_matrix(self, family, backend, engine):
        inst = family_instance(family)
        cfg = adv_enum_config(backend=backend)
        serial, st_s = solve_enum(
            inst.graph, inst.k, inst.predicate(), cfg, engine=engine
        )
        par, st_p = solve_enum(
            inst.graph, inst.k, inst.predicate(),
            cfg.evolve(executor="process", workers=2), engine=engine,
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, f"{family}/{backend}/{engine}")

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("order", ("degree", "weighted-delta", "random"))
    def test_maximum_matrix(self, family, backend, order):
        inst = family_instance(family, maximum=True)
        cfg = adv_max_config(backend=backend, order=order, seed=5)
        serial, st_s = solve_max(inst.graph, inst.k, inst.predicate(), cfg)
        par, st_p = solve_max(
            inst.graph, inst.k, inst.predicate(),
            cfg.evolve(executor="process", workers=2),
        )
        assert (serial is None) == (par is None)
        if serial is not None:
            assert set(serial.vertices) == set(par.vertices)
        assert_stats_parity(st_s, st_p, f"{family}/{backend}/{order}")

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_multi_component_parity(self, backend):
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(backend=backend)
        serial, st_s = solve_enum(g, k, pred, cfg)
        par, st_p = solve_enum(
            g, k, pred, cfg.evolve(executor="process", workers=3)
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, "multi-component")
        assert st_p.components > 1

    def test_single_component_graph(self):
        inst = family_instance("onion", maximum=True)
        cfg = adv_max_config()
        serial, st_s = solve_max(inst.graph, inst.k, inst.predicate(), cfg)
        par, st_p = solve_max(
            inst.graph, inst.k, inst.predicate(),
            cfg.evolve(executor="process", workers=2),
        )
        assert st_s.components == st_p.components == 1
        assert set(serial.vertices) == set(par.vertices)
        assert_stats_parity(st_s, st_p, "single component")

    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("seed", (1, 2, 7))
    def test_naive_engine_parity(self, backend, seed):
        # Algorithms 1+2 branch exponentially, so the naive engine runs
        # on tiny random graphs (as in its own test suite), not on the
        # engineered families.
        from conftest import make_random_attr_graph

        g = make_random_attr_graph(seed, n=9, p=0.6, attrs=3)
        pred = SimilarityPredicate("jaccard", 0.25)
        cfg = adv_enum_config(backend=backend)
        serial, st_s = solve_enum(g, 2, pred, cfg, engine="naive")
        par, st_p = solve_enum(
            g, 2, pred, cfg.evolve(executor="process", workers=2),
            engine="naive",
        )
        assert serial  # non-trivial fixture
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, f"naive/{backend}/seed{seed}")

    def test_empty_results_and_empty_graph(self):
        pred = SimilarityPredicate("jaccard", 0.5)
        cfg = adv_enum_config(executor="process", workers=2)
        empty = AttributedGraph(0)
        assert solve_enum(empty, 2, pred, cfg)[0] == []
        assert solve_max(empty, 2, pred, adv_max_config(
            executor="process", workers=2))[0] is None
        # Non-empty graph, but k too large for any core to survive.
        g = AttributedGraph(4)
        g.add_edge(0, 1)
        g.set_attribute(0, frozenset({"a"}))
        g.set_attribute(1, frozenset({"a"}))
        cores, stats = solve_enum(g, 3, pred, cfg)
        assert cores == [] and stats.components == 0

    def test_interleaved_empty_result_parity(self):
        # The interleaved family is engineered to hold zero maximal
        # cores at its threshold: components survive preprocessing, the
        # engines do real work, and the result set is empty either way.
        inst = build_instance("interleaved", n=24, vocab=10, window=4, half=2)
        cfg = adv_enum_config()
        serial, st_s = solve_enum(inst.graph, inst.k, inst.predicate(), cfg)
        par, st_p = solve_enum(
            inst.graph, inst.k, inst.predicate(),
            cfg.evolve(executor="process", workers=2),
        )
        assert serial == [] and par == []
        assert_stats_parity(st_s, st_p, "interleaved empty")

    def test_workers_one_degenerates_to_serial(self):
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config()
        serial, st_s = solve_enum(g, k, pred, cfg)
        degen, st_d = solve_enum(
            g, k, pred, cfg.evolve(executor="process", workers=1)
        )
        assert as_sorted_sets(serial) == as_sorted_sets(degen)
        assert_stats_parity(st_s, st_d, "workers=1")


# ----------------------------------------------------------------------
# Two-phase maximum schedule
# ----------------------------------------------------------------------

class TestMaximumSchedule:
    def test_batches_are_bound_filtered(self):
        # Fake parts: sizes 10, 9, 8, 3, 2 with MAXIMUM_BATCH=4.  With a
        # best of size 5 after batch one, the 3- and 2-vertex components
        # must never form a batch.
        class Part:
            def __init__(self, n, base):
                self.vertices = frozenset(range(base, base + n))

        parts = [Part(10, 0), Part(9, 100), Part(8, 200), Part(3, 300), Part(2, 400)]
        best = [None]
        batches = []
        for batch in iter_maximum_batches(parts, lambda: best[0]):
            batches.append([len(p.vertices) for p in batch])
            best[0] = frozenset(range(5))  # pretend batch found a 5-core
        assert batches == [[10, 9, 8, 3]] or batches == [[10, 9, 8, 3], [2]]
        # MAXIMUM_BATCH caps the width; the 2-vertex leftover is skipped
        # once best has size 5.
        assert batches == [[10, 9, 8, 3]]
        assert MAXIMUM_BATCH == 4

    def test_schedule_sorts_by_bound(self):
        g, k, pred = multi_component_graph()
        ctxs = prepare_components(
            g, k, pred, adv_max_config(), SearchStats(), Budget(None, None)
        )
        sched = maximum_schedule(ctxs)
        sizes = [len(c.vertices) for c in sched]
        assert sizes == sorted(sizes, reverse=True)

    def test_cross_component_pruning_skips_small_components(self, monkeypatch):
        # One large component holding a big core plus tiny satellite
        # components: once the big core is found, every component no
        # larger than it must be skipped without a search.
        g = AttributedGraph(26)
        for i in range(8):
            for j in range(i + 1, 8):
                g.add_edge(i, j)
        for base in (8, 11, 14, 17, 20, 23):
            for u, v in ((0, 1), (1, 2), (0, 2)):
                g.add_edge(base + u, base + v)
        for u in g.vertices():
            g.set_attribute(u, frozenset({"s"}))
        pred = SimilarityPredicate("jaccard", 0.1)

        import repro.core.session as session_mod
        searched = []
        real = session_mod.find_maximum_in_component

        def spy(ctx, best=None):
            searched.append(len(ctx.vertices))
            return real(ctx, best)

        monkeypatch.setattr(session_mod, "find_maximum_in_component", spy)
        best, _ = solve_max(g, 2, pred, adv_max_config())
        assert len(best.vertices) == 8
        # Batch one is MAXIMUM_BATCH wide: the 8-clique plus three
        # triangles (all seeded with None).  The between-batch early
        # termination then skips the remaining three triangles — they
        # are never searched.
        assert searched == [8, 3, 3, 3]


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------

class TestFailurePaths:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_exception_carries_component_id(self, workers, monkeypatch):
        monkeypatch.setenv("KRCORE_EXECUTOR_INJECT", "raise")
        inst = family_instance("borderline")
        cfg = adv_enum_config(executor="process", workers=workers)
        with pytest.raises(ComponentExecutionError) as err:
            solve_enum(inst.graph, inst.k, inst.predicate(), cfg)
        assert err.value.component_id is not None
        assert err.value.error_type == "RuntimeError"
        assert "injected worker fault" in str(err.value)

    def test_node_limit_fires_under_process_executor(self):
        inst = family_instance("onion", maximum=True)
        cfg = adv_max_config(executor="process", workers=2, node_limit=3)
        with pytest.raises(SearchBudgetExceeded):
            solve_max(inst.graph, inst.k, inst.predicate(), cfg)

    def test_node_limit_partial_mode_under_process_executor(self):
        inst = family_instance("onion", maximum=True)
        cfg = adv_max_config(
            executor="process", workers=2, node_limit=3, on_budget="partial"
        )
        _, stats = solve_max(inst.graph, inst.k, inst.predicate(), cfg)
        assert stats.timed_out

    @pytest.mark.parametrize("executor_kw", (
        {}, {"executor": "process", "workers": 2},
    ))
    def test_maximum_partial_keeps_completed_batchmates(self, executor_kw):
        # Two equal-size onion components in one batch; the node cap
        # trips while the SECOND solves.  The partial result must keep
        # the first component's completed core (regression: the batch
        # loop used to discard every batch-mate on a mid-batch trip).
        insts = [
            build_instance("onion", seed=i, **MAX_FAMILY_PARAMS["onion"])
            for i in range(2)
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
        k, pred = insts[0].k, insts[0].predicate()
        full, full_stats = solve_max(g, k, pred, adv_max_config())
        assert full is not None and full_stats.components == 2
        cfg = adv_max_config(
            node_limit=full_stats.nodes - 1, on_budget="partial",
            **executor_kw,
        )
        partial, stats = solve_max(g, k, pred, cfg)
        assert stats.timed_out
        assert partial is not None
        assert len(partial.vertices) == len(full.vertices)

    def test_sweep_budget_trip_does_not_raise(self):
        # The prefill shares one budget window across the grid; a trip
        # there must fall back to the per-point loop, not fail the
        # sweep (regression: merge_outcome used to raise out of sweep).
        g, k, pred = multi_component_graph()
        cfg = SearchConfig(node_limit=20, on_budget="partial")
        rows = KRCoreSession(g).sweep(
            [k], [pred.r], predicate=pred, config=cfg, plan=POOL,
        )
        assert len(rows) == 1 and rows[0]["k"] == k

    def test_cumulative_node_limit_across_components(self):
        # Each component individually stays under the cap, but the sum
        # does not: the coordinator must still enforce the shared cap.
        g, k, pred = multi_component_graph()
        _, st = solve_enum(g, k, pred, adv_enum_config())
        per_comp_max = st.nodes  # total across all components
        assert st.components >= 3
        cap = per_comp_max - 1
        cfg = adv_enum_config(executor="process", workers=2, node_limit=cap)
        with pytest.raises(SearchBudgetExceeded):
            solve_enum(g, k, pred, cfg)

    def test_early_termination_fires_under_process_executor(self):
        from conftest import make_random_attr_graph

        g = make_random_attr_graph(19, n=10, p=0.7, attrs=3)
        pred = SimilarityPredicate("jaccard", 0.25)
        cfg = adv_enum_config()
        _, st_s = solve_enum(g, 2, pred, cfg)
        _, st_p = solve_enum(
            g, 2, pred, cfg.evolve(executor="process", workers=2)
        )
        assert st_s.early_term_i + st_s.early_term_ii > 0
        assert (
            st_p.early_term_i + st_p.early_term_ii
            == st_s.early_term_i + st_s.early_term_ii
        )

    def test_theorem5_under_two_phase_maximum_schedule(self):
        inst = family_instance("onion", maximum=True)
        cfg = adv_max_config(executor="process", workers=2)
        _, st_p = solve_max(inst.graph, inst.k, inst.predicate(), cfg)
        _, st_s = solve_max(
            inst.graph, inst.k, inst.predicate(), adv_max_config()
        )
        assert st_p.bound_pruned == st_s.bound_pruned
        assert st_p.bound_pruned > 0

    def test_interrupt_leaves_session_cache_consistent(self, monkeypatch):
        g, k, pred = multi_component_graph()
        session = KRCoreSession(g)
        expected = as_sorted_sets(session.enumerate(k, predicate=pred))
        session.invalidate()

        import repro.core.executor as executor_mod

        def interrupted(self, tasks):
            raise KeyboardInterrupt()

        monkeypatch.setattr(executor_mod.ParallelExecutor, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            session.enumerate(k, predicate=pred, plan=POOL)
        monkeypatch.undo()
        # No invalidate(): the interrupted run must not have poisoned
        # the result cache; the serial re-query is correct.
        got = as_sorted_sets(session.enumerate(k, predicate=pred))
        assert got == expected


# ----------------------------------------------------------------------
# Session and dynamic-miner integration
# ----------------------------------------------------------------------

class TestSessionExecutor:
    def test_session_enumerate_parity_and_cache(self):
        g, k, pred = multi_component_graph()
        s_serial = KRCoreSession(g)
        s_par = KRCoreSession(g)
        a = s_serial.enumerate(k, predicate=pred)
        b, st_b = s_par.enumerate(
            k, predicate=pred, plan=POOL, with_stats=True
        )
        assert as_sorted_sets(a) == as_sorted_sets(b)
        assert st_b.cache_misses == st_b.components
        # Repeat query: everything from cache, regardless of executor.
        c, st_c = s_par.enumerate(
            k, predicate=pred, plan=POOL, with_stats=True
        )
        assert as_sorted_sets(c) == as_sorted_sets(a)
        assert st_c.cache_misses == 0
        assert st_c.cache_hits == st_c.components
        # Serial and process queries share cache entries (the config
        # fingerprint strips the executor knobs).
        d, st_d = s_par.enumerate(k, predicate=pred, with_stats=True)
        assert st_d.cache_misses == 0

    def test_session_maximum_parity(self):
        g, k, pred = multi_component_graph()
        a = KRCoreSession(g).maximum(k, predicate=pred)
        b = KRCoreSession(g).maximum(
            k, predicate=pred, plan=POOL
        )
        assert (a is None) == (b is None)
        if a is not None:
            assert set(a.vertices) == set(b.vertices)

    def test_sweep_rows_identical_and_prefilled(self):
        g, k, pred = multi_component_graph()
        ks = [k, k + 1]
        rs = [pred.r, min(1.0, pred.r * 1.1)]
        rows_serial = KRCoreSession(g).sweep(ks, rs, predicate=pred)
        s_par = KRCoreSession(g)
        rows_par, stats = s_par.sweep(
            ks, rs, predicate=pred, plan=POOL,
            with_stats=True,
        )
        assert rows_par == rows_serial
        # The prefill solved every component exactly once; the per-point
        # loop then ran fully from cache.
        assert stats.cache_misses > 0
        assert stats.cache_hits >= stats.cache_misses

    def test_dynamic_miner_with_workers(self):
        # An evolving graph (session edits) re-solves its dirty
        # components over the pool with the same results as serial.
        g, k, pred = multi_component_graph()
        serial = KRCoreSession(g)
        par = KRCoreSession(g, config=adv_enum_config(plan=POOL))

        def same_cores():
            assert as_sorted_sets(serial.enumerate(k, predicate=pred)) == (
                as_sorted_sets(par.enumerate(k, predicate=pred))
            )

        same_cores()
        edge = None
        verts = sorted(g.vertices())
        for u in verts:
            for v in verts:
                if u < v and not g.has_edge(u, v):
                    edge = (u, v)
                    break
            if edge:
                break
        serial.edit(add_edges=[edge])
        par.edit(add_edges=[edge])
        same_cores()
