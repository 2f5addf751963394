"""Shared-memory executor, branch-level work sharing, ExecutionPlan.

``executor="shm"`` must be invisible (results and merged
PARITY_COUNTERS byte-identical to serial across the backend x engine x
order matrix), branch splitting must be a pure function of
``split_depth`` (identical inline / process / shm), segments must never
outlive their run (worker death, KeyboardInterrupt, shutdown sweep),
and the one ``plan=`` knob must select execution across the API, the
session, the CLI and the service.
"""

from __future__ import annotations

import pytest

from conftest import as_sorted_sets, solve_enum, solve_max
from repro.core.config import (
    MAX_SPLIT_DEPTH,
    ExecutionPlan,
    SearchConfig,
    adv_enum_config,
    adv_max_config,
    resolve_execution_plan,
)
from repro.core.context import Budget, bitset_context
from repro.core.executor import (
    INJECT_ENV,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    shutdown_pools,
    task_from_context,
)
from repro.core.session import KRCoreSession, prepare_components
from repro.core.shm import (
    SharedBound,
    active_segments,
    create_segment,
    pack_component,
    publish_bound,
    release_segment,
    sweep_segments,
    unpack_component,
)
from repro.core.stats import SearchStats
from repro.exceptions import (
    ComponentExecutionError,
    InvalidParameterError,
    ServiceError,
)
from test_core_executor import (
    FAMILY_PARAMS,
    assert_stats_parity,
    family_instance,
    multi_component_graph,
)


# ----------------------------------------------------------------------
# ExecutionPlan: construction, validation, resolution
# ----------------------------------------------------------------------

class TestExecutionPlan:
    def test_defaults(self):
        plan = ExecutionPlan()
        assert plan.executor == "serial"
        assert plan.workers is None
        assert plan.shm is False
        assert plan.split_depth == 0

    def test_executor_and_shm_stay_in_sync(self):
        assert ExecutionPlan(executor="shm").shm is True
        assert ExecutionPlan(shm=True).executor == "shm"
        assert ExecutionPlan(executor="process").shm is False

    @pytest.mark.parametrize("bad", (
        dict(executor="thread"),
        dict(workers=0),
        dict(workers=-1),
        dict(split_depth=-1),
        dict(split_depth=MAX_SPLIT_DEPTH + 1),
        dict(split_depth=1.5),
        dict(split_depth=True),
        dict(workers="x"),
        dict(workers=2.0),
        dict(workers=True),
    ))
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(InvalidParameterError):
            ExecutionPlan(**bad)

    def test_resolve_nothing_requested(self):
        assert resolve_execution_plan() is None

    def test_resolve_accepts_field_dict(self):
        plan = resolve_execution_plan(plan={"shm": True, "workers": 3})
        assert plan == ExecutionPlan(executor="shm", workers=3, shm=True)

    def test_resolve_rejects_unknown_fields(self):
        with pytest.raises(InvalidParameterError, match="split_depth"):
            resolve_execution_plan(plan={"bogus": 1})

    def test_resolve_rejects_non_plan(self):
        with pytest.raises(InvalidParameterError):
            resolve_execution_plan(plan="shm")

    def test_resolve_executor_alone_rederives_shm(self):
        assert resolve_execution_plan(plan={"executor": "shm"}).shm is True
        assert resolve_execution_plan(plan={"executor": "process"}).shm is False

    def test_resolve_shm_true_promotes(self):
        out = resolve_execution_plan(plan={"shm": True})
        assert out.executor == "shm"

    def test_config_plan_property_roundtrip(self):
        cfg = SearchConfig(executor="shm", workers=2, split_depth=3)
        plan = cfg.plan
        assert plan == ExecutionPlan(
            executor="shm", workers=2, shm=True, split_depth=3
        )
        assert SearchConfig().evolve(plan=plan).plan == plan

    def test_evolve_executor_alone_drops_shm(self):
        cfg = SearchConfig(shm=True, workers=2)
        serial = cfg.evolve(executor="serial")
        assert serial.executor == "serial" and serial.shm is False

    def test_evolve_shm_false_keeps_pool(self):
        cfg = SearchConfig(shm=True, workers=2)
        out = cfg.evolve(shm=False)
        assert out.executor == "process" and out.workers == 2

    def test_make_executor_shm_flavour(self):
        ex = make_executor(SearchConfig(executor="shm", workers=3))
        assert isinstance(ex, ParallelExecutor)
        assert ex.flavour == "shm" and ex.workers == 3
        assert isinstance(
            make_executor(SearchConfig(executor="shm", workers=1)),
            SerialExecutor,
        )


# ----------------------------------------------------------------------
# Parity: backend x engine x order matrix, serial vs shm
# ----------------------------------------------------------------------

class TestShmParity:
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
            cfg.evolve(executor="shm", workers=2), engine=engine,
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, f"shm {family}/{backend}/{engine}")
        assert active_segments() == []

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("order", ("degree", "weighted-delta", "random"))
    def test_maximum_matrix(self, family, backend, order):
        inst = family_instance(family, maximum=True)
        cfg = adv_max_config(backend=backend, order=order, seed=5)
        serial, st_s = solve_max(inst.graph, inst.k, inst.predicate(), cfg)
        par, st_p = solve_max(
            inst.graph, inst.k, inst.predicate(),
            cfg.evolve(executor="shm", workers=2),
        )
        assert (serial is None) == (par is None)
        if serial is not None:
            assert set(serial.vertices) == set(par.vertices)
        assert_stats_parity(st_s, st_p, f"shm {family}/{backend}/{order}")
        assert active_segments() == []

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_multi_component_parity(self, backend):
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(backend=backend)
        serial, st_s = solve_enum(g, k, pred, cfg)
        par, st_p = solve_enum(
            g, k, pred, cfg.evolve(executor="shm", workers=3)
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, "shm multi-component")
        assert st_p.components > 1

    def test_workers_one_still_uses_segment_transport(self):
        # The degenerate shm pool packs and maps segments in-process, so
        # the transport path is exercised on single-core machines too.
        inst = family_instance("borderline")
        cfg = adv_enum_config(executor="shm", workers=1)
        serial, st_s = solve_enum(
            inst.graph, inst.k, inst.predicate(), adv_enum_config()
        )
        degen, st_d = solve_enum(inst.graph, inst.k, inst.predicate(), cfg)
        assert as_sorted_sets(serial) == as_sorted_sets(degen)
        assert_stats_parity(st_s, st_d, "shm workers=1")
        assert active_segments() == []


# ----------------------------------------------------------------------
# Branch-level work sharing
# ----------------------------------------------------------------------

class TestBranchSplit:
    def test_frontier_is_backend_independent(self):
        inst = family_instance("onion", maximum=True)
        from repro.core.maximum import split_frontier

        frames_by_backend = {}
        for backend in ("python", "csr"):
            ctxs = prepare_components(
                inst.graph, inst.k, inst.predicate(),
                adv_max_config(backend=backend),
                SearchStats(), Budget(None, None),
            )
            assert len(ctxs) == 1
            _, frames = split_frontier(ctxs[0], None, 2)
            frames_by_backend[backend] = frames
        assert frames_by_backend["python"] == frames_by_backend["csr"]
        assert frames_by_backend["csr"]  # non-trivial fixture

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("depth", (1, 2))
    def test_split_parity_inline_process_shm(self, family, depth):
        # The split schedule is a pure function of split_depth: the
        # inline (executor=None), process-pool and shm-pool paths must
        # agree on the result AND every parity counter, including the
        # advisory shared_bound high-water mark.
        inst = family_instance(family, maximum=True)
        base = adv_max_config(split_depth=depth)
        runs = {
            "inline": base,
            "process": base.evolve(executor="process", workers=2),
            "shm": base.evolve(executor="shm", workers=2),
        }
        results = {
            label: solve_max(inst.graph, inst.k, inst.predicate(), cfg)
            for label, cfg in runs.items()
        }
        ref, st_ref = results["inline"]
        for label in ("process", "shm"):
            got, st = results[label]
            assert (ref is None) == (got is None)
            if ref is not None:
                assert set(got.vertices) == set(ref.vertices)
            assert_stats_parity(st_ref, st, f"split {family}/d{depth}/{label}")
            assert st.shared_bound == st_ref.shared_bound
        if ref is not None:
            # 0 when the tree never reached the split depth (no frames
            # parked, nothing shared); the exact best size otherwise.
            assert st_ref.shared_bound in (0, len(ref.vertices))
        assert active_segments() == []

    def test_split_finds_the_same_maximum_as_unsplit(self):
        # Splitting reshapes the node schedule (counts may differ) but
        # never the answer.
        inst = family_instance("onion", maximum=True)
        flat, _ = solve_max(
            inst.graph, inst.k, inst.predicate(), adv_max_config()
        )
        split, _ = solve_max(
            inst.graph, inst.k, inst.predicate(),
            adv_max_config(split_depth=3),
        )
        assert len(split.vertices) == len(flat.vertices)

    def test_split_depth_is_inert_for_enumeration(self):
        inst = family_instance("borderline")
        cfg = adv_enum_config()
        serial, st_s = solve_enum(inst.graph, inst.k, inst.predicate(), cfg)
        deep, st_d = solve_enum(
            inst.graph, inst.k, inst.predicate(), cfg.evolve(split_depth=4)
        )
        assert as_sorted_sets(serial) == as_sorted_sets(deep)
        assert_stats_parity(st_s, st_d, "enumeration split_depth")


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------

class TestSegmentLifecycle:
    def test_pack_unpack_roundtrip(self):
        inst = family_instance("onion")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )
        ctx = ctxs[0]
        payload = pack_component(ctx.vertices, ctx.adj, ctx.index)
        try:
            vertices, adj, index, bitset = unpack_component(payload)
            assert vertices == ctx.vertices
            assert adj == ctx.adj
            assert index.rows() == ctx.index.rows()
            assert bitset is None  # no packed matrices shipped
        finally:
            release_segment(payload.segment)
        assert active_segments() == []

    def test_pack_unpack_carries_bitset_matrices(self):
        inst = family_instance("onion")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )
        ctx = ctxs[0]
        packed = bitset_context(ctx)
        payload = pack_component(
            ctx.vertices, ctx.adj, ctx.index, bitset=packed
        )
        try:
            _, _, _, bitset = unpack_component(payload)
            assert bitset is not None
            assert (bitset.verts == packed.verts).all()
            assert (bitset.nbr == packed.nbr).all()
            assert (bitset.dis == packed.dis).all()
        finally:
            release_segment(payload.segment)

    def test_release_is_idempotent_and_sweep_counts(self):
        seg = create_segment(128)
        name = seg.name
        assert name in active_segments()
        release_segment(name)
        release_segment(name)  # second call is a no-op
        release_segment(None)
        assert name not in active_segments()
        create_segment(64)
        create_segment(64)
        assert sweep_segments() == 2
        assert active_segments() == []

    def test_shutdown_pools_sweeps_leaked_segments(self):
        create_segment(256)
        shutdown_pools()
        assert active_segments() == []

    def test_worker_death_releases_segments_and_pool_recovers(self, monkeypatch):
        # inject="exit" makes the worker os._exit mid-task: the pool
        # breaks, the coordinator raises the typed error, every segment
        # is unlinked on the way out, and the next run (fresh pool)
        # succeeds.
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(executor="shm", workers=2)
        monkeypatch.setenv(INJECT_ENV, "exit")
        with pytest.raises(ComponentExecutionError) as err:
            solve_enum(g, k, pred, cfg)
        assert err.value.error_type == "BrokenProcessPool"
        assert active_segments() == []
        monkeypatch.delenv(INJECT_ENV)
        serial, _ = solve_enum(g, k, pred, adv_enum_config())
        par, _ = solve_enum(g, k, pred, cfg)
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert active_segments() == []

    def test_keyboard_interrupt_releases_segments(self, monkeypatch):
        # A ^C lands in the coordinator's future.result(): the executor
        # must still unlink every task-private segment on the way out.
        import repro.core.executor as executor_mod

        inst = family_instance("borderline")
        ctxs = prepare_components(
            inst.graph, inst.k, inst.predicate(),
            adv_enum_config(shm=True),
            SearchStats(), Budget(None, None),
        )
        tasks = [
            task_from_context(i, ctx, "enumerate")
            for i, ctx in enumerate(ctxs)
        ]
        assert active_segments()  # payloads are live in /dev/shm

        class _Future:
            def result(self):
                raise KeyboardInterrupt()

        class _Pool:
            def submit(self, fn, task):
                return _Future()

        monkeypatch.setattr(
            executor_mod, "_get_pool", lambda w, f="process": _Pool()
        )
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(5, flavour="shm").run(tasks)
        assert active_segments() == []

    def test_shared_bound_is_monotone(self):
        bound = SharedBound.create(3)
        try:
            assert bound.peek() == 3
            assert bound.publish(7) == 7
            assert bound.publish(5) == 7  # never regresses
            peer = SharedBound.attach(bound.name)
            assert peer.peek() == 7
            peer.publish(9)
            peer.close()
            assert bound.peek() == 9
        finally:
            bound.release()
        assert active_segments() == []

    def test_publish_to_missing_segment_is_tolerated(self):
        bound = SharedBound.create(0)
        name = bound.name
        bound.release()
        publish_bound(name, 42)  # straggler after coordinator teardown
        publish_bound(None, 42)


# ----------------------------------------------------------------------
# The former deprecated aliases: plan= (an ExecutionPlan or its field
# dict) is the one spelling left
# ----------------------------------------------------------------------

class TestDeprecatedAliases:
    def test_session_plan_kwarg_and_cache_sharing(self):
        # The fingerprint strips the executor knobs: a serial query and
        # an shm query share cache entries in either direction.
        g, k, pred = multi_component_graph()
        session = KRCoreSession(g)
        a, st_a = session.enumerate(
            k, predicate=pred, plan={"shm": True, "workers": 2},
            with_stats=True,
        )
        assert st_a.cache_misses == st_a.components
        b, st_b = session.enumerate(k, predicate=pred, with_stats=True)
        assert as_sorted_sets(a) == as_sorted_sets(b)
        assert st_b.cache_misses == 0
        assert st_b.cache_hits == st_b.components

    @pytest.mark.parametrize(
        "knob", ("executor", "workers", "shm", "split_depth")
    )
    def test_loose_execution_kwargs_are_rejected(self, knob):
        # plan= is the only spelling; the loose scalars are plan fields.
        from repro import enumerate_maximal_krcores

        g, k, pred = multi_component_graph()
        value = {"executor": "process", "workers": 2, "shm": True,
                 "split_depth": 1}[knob]
        with pytest.raises(TypeError):
            enumerate_maximal_krcores(g, k, predicate=pred, **{knob: value})
        with pytest.raises(TypeError):
            KRCoreSession(g).maximum(k, predicate=pred, **{knob: value})

    def test_session_sweep_accepts_plan(self):
        g, k, pred = multi_component_graph()
        rows_serial = KRCoreSession(g).sweep([k], [pred.r], predicate=pred)
        rows_shm = KRCoreSession(g).sweep(
            [k], [pred.r], predicate=pred,
            plan={"shm": True, "workers": 2},
        )
        assert rows_shm == rows_serial


# ----------------------------------------------------------------------
# Service request knobs
# ----------------------------------------------------------------------

class TestServeExecutionKnobs:
    @pytest.fixture
    def stored(self, tmp_path):
        from repro.store import GraphStore

        inst = family_instance("onion", maximum=True)
        db = str(tmp_path / "exec.db")
        with GraphStore(db) as store:
            store.save_graph("onion", inst.graph)
        return db, inst

    def _service(self, db, **kwargs):
        from repro.serve import KRCoreService
        from repro.store import GraphStore

        return KRCoreService(GraphStore(db), **kwargs)

    def test_request_plan_overrides_service_defaults(self, stored):
        db, inst = stored
        r = inst.predicate().r
        svc = self._service(db, plan={"shm": True, "workers": 2})
        try:
            base = svc.handle("onion", "maximum", {"k": inst.k, "r": r})
            override = svc.handle("onion", "maximum", {
                "k": inst.k, "r": r,
                "plan": {"executor": "serial"},
            })
            assert override["core"] == base["core"]
        finally:
            svc.close()

    def test_bad_knob_values_map_to_request_errors(self, stored):
        db, inst = stored
        r = inst.predicate().r
        svc = self._service(db)
        try:
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"executor": "nope"},
                })
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": "shm",
                })
            with pytest.raises(ServiceError):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"split_depth": 99},
                })
            # The execution scalars are plan fields, not request knobs.
            with pytest.raises(ServiceError, match="unknown parameters"):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "workers": 2,
                })
        finally:
            svc.close()


# ----------------------------------------------------------------------
# CLI execution flags
# ----------------------------------------------------------------------

class TestCliExecutionFlags:
    @pytest.fixture
    def file_graph(self, tmp_path):
        from repro.graph.attributed_graph import AttributedGraph
        from repro.graph.io import write_attributes, write_edge_list

        g = AttributedGraph(
            6,
            edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            labels=[f"u{i}" for i in range(6)],
        )
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"x", "y"}))
        for u in (3, 4, 5):
            g.set_attribute(u, frozenset({"p", "q"}))
        epath = tmp_path / "edges.txt"
        apath = tmp_path / "attrs.txt"
        write_edge_list(g, epath)
        write_attributes(g, apath, "set")
        return str(epath), str(apath)

    def _graph_args(self, file_graph):
        edges, attrs = file_graph
        return [
            "--edges", edges, "--attrs", attrs, "--attr-kind", "set",
            "--k", "2", "--r", "0.5",
        ]

    def test_executor_flags_do_not_change_results(self, file_graph, capsys):
        from repro.cli import main

        assert main(["maximum"] + self._graph_args(file_graph)) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["maximum"] + self._graph_args(file_graph)
            + ["--executor", "shm", "--workers", "2", "--split-depth", "1"]
        ) == 0
        shm_out = capsys.readouterr().out
        assert shm_out.splitlines()[0] == serial_out.splitlines()[0]

    @pytest.mark.parametrize("flags, plan", (
        ([], None),
        (["--shm", "--workers", "2"], {"shm": True, "workers": 2}),
        (["--executor", "process", "--split-depth", "1"],
         {"executor": "process", "split_depth": 1}),
    ))
    def test_flags_fold_into_one_plan(self, flags, plan):
        import argparse

        from repro.cli import _execution_parent, _executor_overrides

        parser = argparse.ArgumentParser(parents=[_execution_parent()])
        args = parser.parse_args(flags)
        assert _executor_overrides(args) == ({} if plan is None else {"plan": plan})

    def test_shm_shorthand(self, file_graph, capsys):
        from repro.cli import main

        assert main(
            ["mine"] + self._graph_args(file_graph)
            + ["--shm", "--workers", "2"]
        ) == 0
        assert "maximal (2,0.5)-cores" in capsys.readouterr().out

    def test_workers_without_executor_is_an_error(self, file_graph, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["maximum"] + self._graph_args(file_graph) + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_explicit_executor_does_not_warn(self, file_graph, capsys):
        import warnings

        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            code = main(
                ["maximum"] + self._graph_args(file_graph)
                + ["--executor", "process", "--workers", "2"]
            )
        assert code == 0
