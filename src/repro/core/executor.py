"""Pluggable component execution: serial loop or a process pool.

The paper's preprocessing (Theorem 1 + the k-core peel) decomposes every
instance into *independent* connected components, and the solvers
already materialise them as isolated
:class:`~repro.core.context.ComponentContext` objects — so the remaining
per-component searches are embarrassingly parallel.  This module is the
execution layer that exploits that:

* :class:`ComponentTask` — one component's search, reduced to a compact
  picklable payload (vertices, similar-edge adjacency, dissimilarity
  index rows, ``k``, the :class:`~repro.core.config.SearchConfig`, and
  for the maximum engine the cross-component seed core);
* :func:`solve_component_task` — the spawn-safe worker entry point: it
  rebuilds a :class:`ComponentContext` from the payload and runs the
  selected engine, returning the result plus a mergeable
  :class:`~repro.core.stats.SearchStats`;
* :class:`SerialExecutor` / :class:`ParallelExecutor` — run a list of
  tasks inline or over a cached ``ProcessPoolExecutor`` (spawn context,
  so the workers never inherit forked interpreter state), returning
  :class:`TaskOutcome` objects **in task order** so stats always merge
  deterministically;
* :func:`component_hardness` / :func:`component_sort_key` — the shared
  hardness estimate both the serial loops and the parallel schedulers
  order components by (hardest first, so big components start while the
  pool drains the small ones);
* :data:`MAXIMUM_BATCH` — the fixed batch width of the maximum solver's
  two-phase schedule (see :func:`repro.core.solver.iter_maximum_batches`).

Selection happens via the config's :class:`~repro.core.config.ExecutionPlan`
(``executor`` ``"serial"`` | ``"process"``, plus ``workers`` and
``split_depth``); :func:`make_executor` maps a config to ``None`` (the
classic in-process path), a :class:`SerialExecutor` (``workers=1`` — the
degenerate pool, exercised so the task path never rots), or a
:class:`ParallelExecutor`.  A task pickles its component's vertices,
adjacency and dissimilarity rows, plus the coordinator's packed
:class:`~repro.core.context.BitsetComponentContext` when it already
holds one, so a worker searches those matrices instead of repacking
them.  ``split_depth > 0`` additionally splits each maximum component's
branch tree into independent subtree tasks (see
:func:`repro.core.solver.solve_component_split`), batched
:data:`SPLIT_BATCH` wide under the same two-phase discipline.

Results and merged stats counters are identical across executors by
construction: every task carries its own seeded rng and private stats,
the schedules are fixed before any task runs, and outcomes merge in
submission order.  The differential fuzz harness (:mod:`repro.fuzz`)
cross-checks exactly that on every sweep.

The parity contract covers runs that *complete within budget*.  Budget
caps themselves are necessarily approximate under parallelism: the
serial path shares one :class:`~repro.core.context.Budget` across
components (a node cap can trip mid-component-N), while the process
path enforces ``node_limit`` per worker and re-checks the cumulative
sum at merge time (overshoot bounded by one ``node_limit`` per
in-flight task).  When a cap actually trips, both paths raise (or
return partial results per ``on_budget``), but the trip point, the
partial contents, and the stats of the truncated run may differ.
"""

from __future__ import annotations

import atexit
import os
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.config import (  # noqa: F401  (ExecutionPlan re-exported)
    ExecutionPlan,
    SearchConfig,
)
from repro.core.context import BitsetComponentContext, Budget, ComponentContext
from repro.core.stats import SearchStats
from repro.exceptions import (
    ComponentExecutionError,
    InvalidParameterError,
    SearchBudgetExceeded,
)
from repro.similarity.index import DissimilarityIndex

#: Fixed batch width of the maximum solver's two-phase schedule: within
#: a batch every component is seeded with the best core of the
#: *previous* batches (never a batch-mate), so up to this many maximum
#: searches can run concurrently while the between-batch
#: ``|component| <= |best|`` early termination keeps pruning whole
#: components.  Deliberately independent of ``workers`` — the schedule
#: (and therefore results and stats) must not change with the pool size.
MAXIMUM_BATCH = 4

#: Fixed batch width of the branch-split subtree schedule: within a
#: batch every subtree is seeded with the best core known *before* the
#: batch, so up to this many subtrees of one component solve
#: concurrently while completed batches still tighten the seed between
#: batches.  Like :data:`MAXIMUM_BATCH`, deliberately independent of
#: ``workers`` — the split schedule (and with it results and stats) is
#: a pure function of ``split_depth``, identical on every executor.
SPLIT_BATCH = 8

#: Fault-injection hook for the failure-path tests: when this env var is
#: ``"raise"`` at task *build* time, the worker raises a RuntimeError
#: instead of searching (the flag travels inside the payload, so no pool
#: restart is needed to flip it).  Mirrors ``KRCORE_FUZZ_INJECT``.
INJECT_ENV = "KRCORE_EXECUTOR_INJECT"

#: Env vars captured at task build time and replayed inside the worker.
#: Cached pool workers keep the environment they were spawned with, so
#: flags flipped afterwards (the fuzz harness's deliberate bound fault,
#: ``repro.core.bounds.FAULT_ENV``) would otherwise silently diverge
#: between the serial and process paths.
_PROPAGATED_ENV = ("KRCORE_FUZZ_INJECT",)


# ----------------------------------------------------------------------
# Shared hardness-aware scheduling
# ----------------------------------------------------------------------

def component_hardness(size: int, max_degree: int) -> int:
    """Cheap a-priori hardness estimate of one component.

    A static proxy for the measured ``hardness_score`` of
    :mod:`repro.datasets.adversarial` (which runs the solver — far too
    expensive for scheduling): search-tree work scales with the number
    of branchable vertices times the branching pressure, so ``size *
    (max_degree + 1)`` ranks a large sparse component above a tiny dense
    one and vice versa.  Both the serial loops and the parallel
    schedulers order by this single function, so "which component runs
    first" never depends on the executor.
    """
    return size * (max_degree + 1)


def component_sort_key(
    size: int, max_degree: int, min_vertex: int
) -> Tuple[int, int, int]:
    """Ascending sort key: hardest first, deterministic across backends.

    Ties fall back to larger-first and then the smallest original vertex
    id, so the schedule is a pure function of the component set — the
    python and csr preprocessing paths (whose component *discovery*
    orders differ) always produce the same schedule.
    """
    return (-component_hardness(size, max_degree), -size, min_vertex)


# ----------------------------------------------------------------------
# Task payloads and the worker entry point
# ----------------------------------------------------------------------

@dataclass
class ComponentTask:
    """One component search as a compact picklable payload.

    Everything the engines consume — and nothing they don't (no CSR
    substrate, no shared budget, no live caches) — so the payload
    pickles cheaply and rebuilds identically in a spawn-started worker.
    """

    cid: int                               # schedule position (error reports)
    mode: str                              # "enumerate" | "maximum"
    engine: str                            # enumeration engine name
    vertices: FrozenSet[int]
    adj: Dict[int, Set[int]]
    dissimilar: Dict[int, Set[int]]        # DissimilarityIndex rows
    k: int
    config: SearchConfig
    seed_best: Optional[FrozenSet[int]] = None   # maximum mode only
    time_left: Optional[float] = None      # remaining wall budget (seconds)
    inject: Optional[str] = None           # test-only fault injection
    env: Dict[str, str] = field(default_factory=dict)  # replayed env flags
    #: The coordinator's packed form of the component, when it holds
    #: one: the worker searches it instead of repacking the rows.
    bitset: Optional[BitsetComponentContext] = None
    #: Subtree root of a branch-split task (maximum mode only): the
    #: worker searches this frame instead of the whole component.
    frame: Optional[Tuple] = None


@dataclass
class TaskOutcome:
    """What one task produced (workers never raise across the pipe)."""

    cid: int
    status: str                            # "ok" | "budget" | "error"
    result: Any = None                     # cores list / best core / None
    stats: SearchStats = field(default_factory=SearchStats)
    error: str = ""                        # formatted traceback ("error")
    error_type: str = ""                   # original exception class name


def component_task(
    cid: int,
    mode: str,
    engine: str,
    vertices: FrozenSet[int],
    adj: Dict[int, Set[int]],
    index: DissimilarityIndex,
    k: int,
    config: SearchConfig,
    seed_best: Optional[FrozenSet[int]] = None,
    time_left: Optional[float] = None,
    *,
    bitset: Optional[BitsetComponentContext] = None,
    frame: Optional[Tuple] = None,
) -> ComponentTask:
    """Build a task from prepared component pieces.

    The config is normalised for the worker: the executor knobs are
    stripped (a worker never re-enters a pool) and the wall budget is
    carried as the explicit ``time_left`` the coordinator computed from
    its own deadline; ``node_limit`` stays — each worker enforces it on
    its own component, and the coordinator re-checks the cumulative sum.
    ``bitset`` is the coordinator's packed form when it already holds
    one, so the worker skips the O(n²) packing loop.
    """
    return ComponentTask(
        cid=cid,
        mode=mode,
        engine=engine,
        vertices=vertices,
        adj=adj,
        dissimilar=index.rows(),
        k=k,
        config=config.evolve(executor="serial", workers=None, time_limit=None),
        seed_best=seed_best,
        time_left=time_left,
        inject=os.environ.get(INJECT_ENV) or None,
        env={
            name: os.environ[name]
            for name in _PROPAGATED_ENV
            if name in os.environ
        },
        bitset=bitset,
        frame=frame,
    )


def task_from_context(
    cid: int,
    ctx: ComponentContext,
    mode: str,
    engine: str = "engine",
    seed_best: Optional[FrozenSet[int]] = None,
    time_left: Optional[float] = None,
    frame: Optional[Tuple] = None,
) -> ComponentTask:
    """:func:`component_task` from a prepared :class:`ComponentContext`."""
    return component_task(
        cid, mode, engine, ctx.vertices, ctx.adj, ctx.index, ctx.k,
        ctx.config, seed_best=seed_best, time_left=time_left,
        bitset=ctx.bitset, frame=frame,
    )


def solve_component_task(task: ComponentTask) -> TaskOutcome:
    """Worker entry point: rebuild the context, run the engine.

    Spawn-safe: a plain top-level function over a picklable payload with
    no module-level state, importable by a cold interpreter.  All
    failure modes are folded into the returned :class:`TaskOutcome` —
    budget trips as ``status="budget"`` (with the stats accumulated so
    far, so the coordinator's cumulative node accounting stays exact)
    and any other exception as ``status="error"`` carrying the formatted
    traceback, which the coordinator re-raises as a typed
    :class:`~repro.exceptions.ComponentExecutionError` with the
    component id attached.
    """
    # Imported lazily: solver imports this module at load time.
    from repro.core.maximum import find_maximum_in_component, solve_subtree
    from repro.core.solver import resolve_engine

    stats = SearchStats()
    for name in _PROPAGATED_ENV:
        if name in task.env:
            os.environ[name] = task.env[name]
        else:
            os.environ.pop(name, None)
    try:
        if task.inject == "raise":
            raise RuntimeError(
                f"injected worker fault ({INJECT_ENV}=raise)"
            )
        if task.inject == "exit":
            # Hard worker death (pool-recovery tests): the process
            # vanishes mid-task, breaking the pool.
            os._exit(86)
        ctx = ComponentContext(
            vertices=task.vertices,
            adj=task.adj,
            index=DissimilarityIndex(task.dissimilar),
            k=task.k,
            config=task.config,
            stats=stats,
            budget=Budget(task.time_left, task.config.node_limit),
            rng=random.Random(task.config.seed),
            bitset=task.bitset,
        )
        if task.mode == "maximum":
            if task.frame is not None:
                found = solve_subtree(ctx, task.frame, task.seed_best)
            else:
                found = find_maximum_in_component(ctx, task.seed_best)
            return TaskOutcome(task.cid, "ok", result=found, stats=stats)
        component_fn = resolve_engine(task.engine)
        return TaskOutcome(
            task.cid, "ok", result=component_fn(ctx), stats=stats
        )
    except SearchBudgetExceeded:
        return TaskOutcome(task.cid, "budget", stats=stats)
    except Exception as exc:
        return TaskOutcome(
            task.cid, "error", stats=stats,
            error=traceback.format_exc(), error_type=type(exc).__name__,
        )


def raise_for_outcome(out: TaskOutcome) -> None:
    """Re-raise a failed outcome as its typed coordinator-side error."""
    if out.status == "error":
        raise ComponentExecutionError(
            f"component task {out.cid} failed in the worker "
            f"({out.error_type}):\n{out.error}",
            component_id=out.cid,
            error_type=out.error_type,
        )
    if out.status == "budget":
        raise SearchBudgetExceeded(
            f"search budget exceeded in component task {out.cid}"
        )


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

class SerialExecutor:
    """Runs tasks inline, in order, through the same worker entry point.

    The degenerate pool (``executor="process", workers=1``): no
    processes, no pickling, but byte-identical semantics to
    :class:`ParallelExecutor` — so the task path is exercised by every
    single-core run instead of rotting behind a pool it can't afford.
    Stops at the first non-ok outcome (nothing after it could be
    merged anyway).
    """

    workers = 1

    def run(self, tasks: Sequence[ComponentTask]) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        for task in tasks:
            out = solve_component_task(task)
            outcomes.append(out)
            if out.status != "ok":
                break
        return outcomes


class ParallelExecutor:
    """Fans tasks out over a cached spawn-context process pool.

    Tasks are submitted in the given (hardness-ordered) sequence and
    outcomes are returned in the same order regardless of completion
    order, so the coordinator's stats merge is deterministic.  The pool
    itself is cached per worker count across all executors in the
    process (spawning interpreters is the dominant cost; reuse makes
    repeated queries, fuzz sweeps and test suites cheap) and is torn
    down at interpreter exit.  A broken pool (a worker died) or a
    KeyboardInterrupt evicts the cached pool so the next run starts
    clean.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be a positive integer, got {workers}"
            )
        self.workers = workers

    def run(self, tasks: Sequence[ComponentTask]) -> List[TaskOutcome]:
        pool = _get_pool(self.workers)
        try:
            futures = [pool.submit(solve_component_task, t) for t in tasks]
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            _evict_pool(self.workers)
            raise ComponentExecutionError(
                f"worker pool broke while solving {len(tasks)} component "
                f"task(s): {exc}", error_type="BrokenProcessPool",
            ) from exc
        except KeyboardInterrupt:
            _evict_pool(self.workers)
            raise


def effective_workers(workers: Optional[int]) -> int:
    """The pool size a config's ``workers`` resolves to."""
    return workers if workers is not None else (os.cpu_count() or 1)


def make_executor(config: SearchConfig):
    """Map a config to its executor.

    ``None`` means the classic in-process serial path (shared budget,
    warm bitset caches — the solvers keep their original loops);
    ``workers=1`` process configs degenerate to :class:`SerialExecutor`
    so a single-core machine never pays pool overhead.
    """
    if config.executor == "serial":
        return None
    workers = effective_workers(config.workers)
    if workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers)


# ----------------------------------------------------------------------
# Pool cache
# ----------------------------------------------------------------------

#: Cached spawn pools keyed by worker count.
_POOLS: Dict[int, _ProcessPool] = {}


def _package_search_path() -> str:
    """The directory ``import repro`` resolves from (the ``src`` dir)."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )


def _get_pool(workers: int) -> _ProcessPool:
    pool = _POOLS.get(workers)
    if pool is None:
        # Spawned children import repro from scratch; when the parent is
        # running off a *source tree* (found via sys.path / PYTHONPATH),
        # the children need the same root on PYTHONPATH — and because
        # the pool spawns workers lazily on demand, the variable has to
        # stay set for the pool's whole lifetime, not just creation.
        # For a properly *installed* package (site-/dist-packages) the
        # children resolve it on their own, so the parent environment is
        # left untouched.
        root = _package_search_path()
        installed = "site-packages" in root or "dist-packages" in root
        existing = os.environ.get("PYTHONPATH", "")
        parts = existing.split(os.pathsep) if existing else []
        if not installed and root not in parts:
            os.environ["PYTHONPATH"] = (
                os.pathsep.join([root] + parts) if parts else root
            )
        import multiprocessing

        pool = _ProcessPool(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
        _POOLS[workers] = pool
    return pool


def _evict_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every cached worker pool (idempotent)."""
    for workers in list(_POOLS):
        _evict_pool(workers)


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# Coordinator-side helpers
# ----------------------------------------------------------------------

def remaining_time(budget: Budget) -> Optional[float]:
    """Seconds left on a coordinator budget (``None`` = unlimited).

    Passed to workers as their private wall deadline; a non-positive
    remainder still ships (the worker trips on its first tick, exactly
    like the serial path would).
    """
    if budget.deadline is None:
        return None
    return budget.deadline - time.monotonic()


def merge_outcome(
    out: TaskOutcome, stats: SearchStats, node_limit: Optional[int]
) -> None:
    """Fold one outcome's stats into the run stats, enforcing caps.

    Merges first (so budget/error outcomes still account their partial
    work), re-raises typed failures, then re-checks the *cumulative*
    node cap — each worker only sees its own component, so the
    coordinator owns the across-components accounting the serial shared
    :class:`~repro.core.context.Budget` used to provide.
    """
    stats.merge(out.stats)
    raise_for_outcome(out)
    if node_limit is not None and stats.nodes > node_limit:
        raise SearchBudgetExceeded(
            f"node limit of {node_limit} exceeded across components"
        )
