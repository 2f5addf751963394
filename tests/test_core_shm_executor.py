"""Pool transport, branch-level work sharing, ExecutionPlan.

A pooled task that carries the coordinator's packed bitset must be
invisible (results and merged PARITY_COUNTERS byte-identical to serial
across the backend x engine x order matrix), branch splitting must be a
pure function of ``split_depth`` (identical inline and on the process
pool), a dead worker must surface as a typed error and leave a pool
that answers, and the one ``plan=`` knob must select execution across
the API, the session, the CLI and the service.

The module and class names date from the shared-memory transport these
tests first covered; they are kept so test ids stay comparable.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest

import repro.core.session as session_mod
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
from repro.core.executor import INJECT_ENV, task_from_context
from repro.core.session import KRCoreSession, prepare_components
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
        assert [f.name for f in fields(plan)] == [
            "executor", "workers", "split_depth",
        ]
        assert plan.executor == "serial"
        assert plan.workers is None
        assert plan.split_depth == 0

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
        dict(executor="shm"),
    ))
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(InvalidParameterError):
            ExecutionPlan(**bad)

    def test_resolve_nothing_requested(self):
        assert resolve_execution_plan() is None

    def test_resolve_accepts_field_dict(self):
        plan = resolve_execution_plan(plan={"executor": "process", "workers": 3})
        assert plan == ExecutionPlan(executor="process", workers=3)

    def test_resolve_rejects_unknown_fields(self):
        # "shm" named the retired shared-memory transport; it is now an
        # unknown field like any other.
        for field in ("bogus", "shm"):
            with pytest.raises(InvalidParameterError, match="split_depth"):
                resolve_execution_plan(plan={field: 1})

    def test_resolve_rejects_non_plan(self):
        with pytest.raises(InvalidParameterError):
            resolve_execution_plan(plan="shm")

    def test_config_plan_property_roundtrip(self):
        cfg = SearchConfig(executor="process", workers=2, split_depth=3)
        plan = cfg.plan
        assert plan == ExecutionPlan(
            executor="process", workers=2, split_depth=3
        )
        assert SearchConfig().evolve(plan=plan).plan == plan


# ----------------------------------------------------------------------
# Parity: backend x engine x order matrix, serial vs a pool whose tasks
# carry the coordinator's packed bitsets
# ----------------------------------------------------------------------

def _warm_pool_rerun(monkeypatch, graph, query, plan):
    """``(serial, pooled, carried)`` answers of ``query(session, plan)``.

    One session answers serially first, which packs every csr component
    and keeps the packed form; with the results dropped, a serial rerun
    and then a pooled rerun start from the same warm preparation, so
    every pooled task can carry its component's packed bitset.
    ``carried`` lists, per pooled task, whether it did.
    """
    session = KRCoreSession(graph)
    query(session, None)
    session.drop_results()
    serial = query(session, None)
    session.drop_results()
    carried = []
    build = session_mod.component_task

    def spy(*args, **kwargs):
        carried.append(kwargs["bitset"] is not None)
        return build(*args, **kwargs)

    monkeypatch.setattr(session_mod, "component_task", spy)
    return serial, query(session, plan), carried


def _assert_carried(carried, packed):
    # The bitset engine (csr backend) packs every component during the
    # serial query; the set engines never pack, so their tasks ship the
    # rows alone.
    assert carried
    assert all(carried) if packed else not any(carried)


class TestShmParity:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("engine", ("engine", "clique"))
    def test_enumeration_matrix(self, family, backend, engine, monkeypatch):
        inst = family_instance(family)
        cfg = adv_enum_config(backend=backend)
        if engine == "engine":
            knobs = dict(config=cfg)
        else:
            knobs = dict(algorithm=engine, backend=backend)

        def query(session, plan):
            return session.enumerate(
                inst.k, predicate=inst.predicate(), plan=plan,
                with_stats=True, **knobs,
            )

        (serial, st_s), (par, st_p), carried = _warm_pool_rerun(
            monkeypatch, inst.graph, query, {"executor": "process", "workers": 2},
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, f"pool {family}/{backend}/{engine}")
        if serial:
            _assert_carried(carried, backend == "csr" and engine == "engine")

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("order", ("degree", "weighted-delta", "random"))
    def test_maximum_matrix(self, family, backend, order, monkeypatch):
        inst = family_instance(family, maximum=True)
        cfg = adv_max_config(backend=backend, order=order, seed=5)

        def query(session, plan):
            return session.maximum(
                inst.k, predicate=inst.predicate(), config=cfg, plan=plan,
                with_stats=True,
            )

        (serial, st_s), (par, st_p), carried = _warm_pool_rerun(
            monkeypatch, inst.graph, query, {"executor": "process", "workers": 2},
        )
        assert (serial is None) == (par is None)
        if serial is not None:
            assert set(serial.vertices) == set(par.vertices)
            _assert_carried(carried, backend == "csr")
        assert_stats_parity(st_s, st_p, f"pool {family}/{backend}/{order}")

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_multi_component_parity(self, backend, monkeypatch):
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(backend=backend)

        def query(session, plan):
            return session.enumerate(
                k, predicate=pred, config=cfg, plan=plan, with_stats=True,
            )

        (serial, st_s), (par, st_p), carried = _warm_pool_rerun(
            monkeypatch, g, query, {"executor": "process", "workers": 3},
        )
        assert as_sorted_sets(serial) == as_sorted_sets(par)
        assert_stats_parity(st_s, st_p, "pool multi-component")
        assert st_p.components > 1
        assert len(carried) == st_p.components
        _assert_carried(carried, backend == "csr")


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
        # inline (executor=None) and process-pool paths must agree on
        # the result AND every parity counter, including the
        # shared_bound high-water mark.
        inst = family_instance(family, maximum=True)
        base = adv_max_config(split_depth=depth)
        ref, st_ref = solve_max(inst.graph, inst.k, inst.predicate(), base)
        got, st = solve_max(
            inst.graph, inst.k, inst.predicate(),
            base.evolve(executor="process", workers=2),
        )
        assert (ref is None) == (got is None)
        if ref is not None:
            assert set(got.vertices) == set(ref.vertices)
            # 0 when the tree never reached the split depth (no frames
            # parked); the exact best size otherwise.
            assert st_ref.shared_bound in (0, len(ref.vertices))
        assert_stats_parity(st_ref, st, f"split {family}/d{depth}")
        assert st.shared_bound == st_ref.shared_bound

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
# Task transport and worker death
# ----------------------------------------------------------------------

class TestSegmentLifecycle:
    def test_pack_unpack_roundtrip(self):
        # A task pickles its component as plain rows; with no packed form
        # on the coordinator, no bitset rides along.
        inst = family_instance("onion")
        ctx = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )[0]
        assert ctx.bitset is None
        task = pickle.loads(pickle.dumps(task_from_context(0, ctx, "enumerate")))
        assert task.vertices == ctx.vertices
        assert task.adj == ctx.adj
        assert task.dissimilar == ctx.index.rows()
        assert task.bitset is None

    def test_pack_unpack_carries_bitset_matrices(self):
        # A packed bitset survives the pickle a pooled task goes through.
        inst = family_instance("onion")
        ctx = prepare_components(
            inst.graph, inst.k, inst.predicate(), adv_enum_config(),
            SearchStats(), Budget(None, None),
        )[0]
        packed = bitset_context(ctx)
        clone = pickle.loads(pickle.dumps(packed))
        assert (clone.n, clone.words, clone.local) == (
            packed.n, packed.words, packed.local
        )
        for name in ("verts", "nbr", "dis", "sim", "full"):
            assert (getattr(clone, name) == getattr(packed, name)).all()

    def test_worker_death_releases_segments_and_pool_recovers(self, monkeypatch):
        # inject="exit" makes the worker os._exit mid-task: the pool
        # breaks, the coordinator raises the typed error, and the next
        # run (fresh pool) succeeds.
        g, k, pred = multi_component_graph()
        cfg = adv_enum_config(executor="process", workers=2)
        monkeypatch.setenv(INJECT_ENV, "exit")
        with pytest.raises(ComponentExecutionError) as err:
            solve_enum(g, k, pred, cfg)
        assert err.value.error_type == "BrokenProcessPool"
        monkeypatch.delenv(INJECT_ENV)
        serial, _ = solve_enum(g, k, pred, adv_enum_config())
        par, _ = solve_enum(g, k, pred, cfg)
        assert as_sorted_sets(serial) == as_sorted_sets(par)


# ----------------------------------------------------------------------
# The former deprecated aliases: plan= (an ExecutionPlan or its field
# dict) is the one spelling left
# ----------------------------------------------------------------------

class TestDeprecatedAliases:
    def test_session_plan_kwarg_and_cache_sharing(self):
        # The fingerprint strips the executor knobs: a serial query and
        # a pooled query share cache entries in either direction.
        g, k, pred = multi_component_graph()
        session = KRCoreSession(g)
        a, st_a = session.enumerate(
            k, predicate=pred, plan={"executor": "process", "workers": 2},
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
        # plan= is the only spelling; the loose scalars are plan fields
        # (and "shm" names the retired shared-memory transport).
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
        rows_pool = KRCoreSession(g).sweep(
            [k], [pred.r], predicate=pred,
            plan={"executor": "process", "workers": 2},
        )
        assert rows_pool == rows_serial


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
        svc = self._service(db, plan={"executor": "process", "workers": 2})
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
            # The retired shared-memory transport, in either spelling.
            with pytest.raises(ServiceError, match="split_depth"):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"shm": True},
                })
            with pytest.raises(ServiceError, match="process"):
                svc.handle("onion", "maximum", {
                    "k": inst.k, "r": r, "plan": {"executor": "shm"},
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
            + ["--executor", "process", "--workers", "2", "--split-depth", "1"]
        ) == 0
        pool_out = capsys.readouterr().out
        assert pool_out.splitlines()[0] == serial_out.splitlines()[0]

    @pytest.mark.parametrize("flags, plan", (
        ([], None),
        (["--executor", "process", "--workers", "2"],
         {"executor": "process", "workers": 2}),
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
        # The shared-memory transport is gone: its shorthand and its
        # executor value are argparse errors, not silent fallbacks.
        from repro.cli import main

        for flags in (["--shm"], ["--executor", "shm"]):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    ["mine"] + self._graph_args(file_graph)
                    + flags + ["--workers", "2"]
                )
            assert exit_info.value.code == 2
            assert "shm" in capsys.readouterr().err

    def test_workers_without_executor_is_an_error(self, file_graph, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["maximum"] + self._graph_args(file_graph) + ["--workers", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--executor process" in err
        assert "shm" not in err

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
