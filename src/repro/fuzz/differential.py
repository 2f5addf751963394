"""Differential execution: python engine vs csr engine vs oracle.

Both engines read the components the session's one front end (its CSR
pipeline) prepares; ``backend`` picks only the engine.  Three
independent implementations must agree on every case:

1. the set-based reference engines (``backend="python"``);
2. the packed-bitset engines (``backend="csr"``) — documented to mirror
   the reference *decision for decision*, so beyond result equality the
   deterministic :class:`~repro.core.stats.SearchStats` counters must
   match exactly;
3. on small instances, the brute-force oracle of
   :mod:`repro.core.naive` (a structurally different algorithm — two
   independently wrong implementations rarely agree).

The front end itself is checked on every case against the reference
front end :func:`~repro.core.naive.reference_components` (dict-graph
set stages): the session's prepared components must equal the
reference's as a multiset of (vertex set, similar edges, dissimilar
pairs), else the case reports a ``front-end`` disagreement.  The oracle
searches the reference's components.

A fourth axis rides along: cases sampled with the pool executor
(``search["executor"] == "process"``) replay the csr run over the
worker-pool execution layer (:mod:`repro.core.executor` — pickled
components, possibly with a sampled branch ``split_depth``), which must
match the serial run exactly — results and merged stats counters
alike.

Cases carrying an edit stream (``case.edits``) exercise a fifth axis:
a session is warmed on the base graph, the edits are absorbed by the
bounded-scope maintenance layer (:mod:`repro.core.maintenance`), and
the maintained session must agree with a fresh session built directly
on the final graph — result for result, and (after
:meth:`~repro.core.session.KRCoreSession.drop_results`, which forces a
full re-search over the *maintained preprocessing*) search counter for
search counter.  The maintained session's CSR, which its edits patch,
must also equal a freeze of its own dict graph, and the fingerprint
the CSR carried through the edits must equal that freeze's.  See
:func:`run_edit_stream_case`.

Both runners also check the session's threshold-seeded front end: a csr
session warmed at a looser threshold derived from the case (no rng
draw; edit streams also warm it at the case's own threshold and then
apply the edits) answers the case after
:meth:`~repro.core.session.KRCoreSession.drop_results`, and must match
the fresh csr run on results and parity counters.
:attr:`CaseResult.threshold_seeded` records whether that query filtered
inside the looser core.

Any mismatch (or an engine crash) is reported as a
:class:`Disagreement`; the driver shrinks the case and serialises a
repro file.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import adv_enum_config
from repro.core.context import Budget
from repro.core.naive import (
    _is_krcore_vertexset,
    brute_force_maximal_krcores,
    reference_components,
)
from repro.core.session import KRCoreSession, prepare_components
from repro.core.solver import component_edges_key
from repro.core.stats import SearchStats
from repro.fuzz.space import FuzzCase
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint
from repro.similarity.metrics import MetricKind
from repro.similarity.threshold import SimilarityPredicate

#: SearchStats counters both engine backends must agree on exactly (the
#: decision-for-decision parity contract of PR 3; elapsed/cache fields
#: are excluded).
PARITY_COUNTERS = (
    "nodes",
    "check_nodes",
    "similarity_pruned",
    "structure_pruned",
    "connectivity_pruned",
    "retained",
    "moved_similarity_free",
    "early_term_i",
    "early_term_ii",
    "bound_pruned",
    "bound_calls",
    "dead_branches",
    "cores_emitted",
    "maximal_checks",
    "components",
)

#: Largest per-component vertex count the brute-force oracle is asked to
#: sweep (2^n subsets — keep it honest).
DEFAULT_ORACLE_LIMIT = 12


@dataclass(frozen=True)
class Disagreement:
    """One observed divergence between implementations."""

    kind: str     # backend-result | front-end | oracle-* | maintenance-* | ...
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class CaseResult:
    """Outcome of one differential run.

    ``stats`` is the csr run's full counter dict (empty when an engine
    crashed before producing stats) — the single source the driver's
    hardness tables read from.  ``threshold_seeded`` says whether the
    looser-threshold check's query took the threshold-seeded path.
    """

    disagreement: Optional[Disagreement] = None
    oracle_used: bool = False
    stats: Dict[str, Any] = field(default_factory=dict)
    threshold_seeded: bool = False

    @property
    def ok(self) -> bool:
        return self.disagreement is None


def _run_backend(case: FuzzCase, backend: str, executor: str = "serial"):
    """(canonical result, stats) of one engine backend on the case.

    The base python-vs-csr differential always runs serial; the sampled
    executor dimension is exercised by a separate replay (see
    :func:`run_case`) so every divergence is attributable to exactly one
    axis.
    """
    cfg = case.config(backend, executor=executor)
    return _query_session(case, KRCoreSession(case.graph, config=cfg, copy=False))


def _looser_predicate(case: FuzzCase) -> SimilarityPredicate:
    """The case's predicate at a strictly looser threshold, derived from
    the case alone: half a positive similarity threshold (a non-positive
    one minus 1), twice a distance threshold plus 1."""
    pred = case.predicate()
    if pred.kind is MetricKind.SIMILARITY:
        return pred.with_threshold(pred.r / 2 if pred.r > 0 else pred.r - 1.0)
    return pred.with_threshold(2 * pred.r + 1.0)


def _seeded_check(
    case: FuzzCase, res_fresh, stats_fresh, out: CaseResult
) -> Optional[Disagreement]:
    """The looser-threshold check of both runners (see the module doc).

    A csr session prepares ``k' = max(1, k - 1)`` at the looser
    threshold (a heuristic maximum: no search), then — for an edit
    stream — answers the case and absorbs the edits, which drops every
    threshold-seeded entry.  After ``drop_results`` the case's query must
    equal ``res_fresh`` and ``stats_fresh`` on every parity counter.
    """
    try:
        session = KRCoreSession(
            case.graph, config=case.config("csr", executor="serial"), copy=True
        )
        session.maximum_outcome(
            max(1, case.k - 1), predicate=_looser_predicate(case),
            mode="heuristic",
        )
        if case.edits:
            _query_session(case, session)
            for edit in case.edits:
                _apply_edit(session, edit)
        session.drop_results()
        res, stats = _query_session(case, session)
    except Exception:
        return Disagreement(
            "engine-error",
            f"looser-threshold check raised:\n{traceback.format_exc()}",
        )
    out.threshold_seeded = stats.threshold_seeds > 0
    if res != res_fresh:
        return Disagreement(
            "seeded-result",
            f"warm at a looser r: {_fmt(res)} fresh: {_fmt(res_fresh)}",
        )
    if session.maintenance_stats.errors:
        return Disagreement(
            "maintenance-error",
            f"looser-threshold check: maintenance swallowed "
            f"{session.maintenance_stats.errors} internal error(s)",
        )
    diffs = [
        f"{name}: seeded={getattr(stats, name)} "
        f"fresh={getattr(stats_fresh, name)}"
        for name in PARITY_COUNTERS
        if getattr(stats, name) != getattr(stats_fresh, name)
    ]
    if diffs:
        return Disagreement("seeded-stats", "; ".join(diffs))
    return None


def _reference(case: FuzzCase):
    """The reference front end's contexts for the case."""
    return reference_components(
        case.graph, case.k, case.predicate(), adv_enum_config(backend="python")
    )


def _component_multiset(contexts) -> Counter:
    """Components as a multiset of (vertices, similar edges, dissimilar
    pairs) — the engines' whole input, independent of order."""
    return Counter(
        (ctx.vertices, component_edges_key(ctx.adj), ctx.index.pair_key())
        for ctx in contexts
    )


def _front_end_check(case: FuzzCase, reference) -> Optional[Disagreement]:
    """The session's prepared components against the reference's."""
    contexts = prepare_components(
        case.graph, case.k, case.predicate(), case.config("csr"),
        SearchStats(), Budget(None, None),
    )
    got, want = _component_multiset(contexts), _component_multiset(reference)
    if got == want:
        return None
    return Disagreement(
        "front-end",
        f"session-only components {_fmt_parts(got - want)}; "
        f"reference-only {_fmt_parts(want - got)}",
    )


def _fmt_parts(parts: Counter) -> str:
    return str([
        (sorted(vertices), sorted(edges), sorted(pairs))
        for vertices, edges, pairs in parts.elements()
    ])


def run_case(
    case: FuzzCase, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> CaseResult:
    """Cross-check one case; the first divergence found wins.

    Order of checks: engine crashes, python-vs-csr result equality,
    python-vs-csr stats parity, the session's front end against the
    reference front end, the looser-threshold check, the sampled
    executor replay, then (small instances only) both engines against
    the brute-force oracle over the reference's components.  Cases
    carrying an edit stream run the maintained-vs-fresh differential
    instead.
    """
    if case.edits:
        return run_edit_stream_case(case, oracle_limit)
    out = CaseResult()
    runs = {}
    for backend in ("python", "csr"):
        try:
            runs[backend] = _run_backend(case, backend)
        except Exception:
            out.disagreement = Disagreement(
                "engine-error",
                f"{backend} backend raised:\n{traceback.format_exc()}",
            )
            return out

    (res_py, stats_py), (res_cs, stats_cs) = runs["python"], runs["csr"]
    out.stats = stats_cs.to_dict()

    if res_py != res_cs:
        out.disagreement = Disagreement(
            "backend-result",
            f"python={_fmt(res_py)} csr={_fmt(res_cs)}",
        )
        return out
    diffs = [
        f"{name}: python={getattr(stats_py, name)} csr={getattr(stats_cs, name)}"
        for name in PARITY_COUNTERS
        if getattr(stats_py, name) != getattr(stats_cs, name)
    ]
    if diffs:
        out.disagreement = Disagreement(
            "backend-stats", "; ".join(diffs)
        )
        return out

    try:
        contexts = _reference(case)
        out.disagreement = _front_end_check(case, contexts)
    except Exception:
        out.disagreement = Disagreement(
            "engine-error",
            f"front-end check raised:\n{traceback.format_exc()}",
        )
    if out.disagreement is not None:
        return out

    out.disagreement = _seeded_check(case, res_cs, stats_cs, out)
    if out.disagreement is not None:
        return out

    # Executor dimension: when the sampled knobs ask for the pool, the
    # csr run is replayed over the worker pool and must match the serial
    # run exactly — results AND merged stats counters (the parallel
    # schedule is worker-count independent by design).
    pool = case.search.get("executor")
    if pool == "process":
        try:
            res_pp, stats_pp = _run_backend(case, "csr", executor=pool)
        except Exception:
            out.disagreement = Disagreement(
                "engine-error",
                f"{pool} executor raised:\n{traceback.format_exc()}",
            )
            return out
        if res_pp != res_cs:
            out.disagreement = Disagreement(
                "executor-result",
                f"serial={_fmt(res_cs)} {pool}={_fmt(res_pp)}",
            )
            return out
        diffs = [
            f"{name}: serial={getattr(stats_cs, name)} "
            f"{pool}={getattr(stats_pp, name)}"
            for name in PARITY_COUNTERS
            if getattr(stats_cs, name) != getattr(stats_pp, name)
        ]
        if diffs:
            out.disagreement = Disagreement(
                "executor-stats", "; ".join(diffs)
            )
            return out

    if any(len(ctx.vertices) > oracle_limit for ctx in contexts):
        return out
    out.oracle_used = True

    truth: List = []
    for ctx in contexts:
        truth.extend(brute_force_maximal_krcores(ctx))
    truth_sorted = sorted(sorted(c) for c in truth)

    if case.mode == "enumerate":
        if res_py != truth_sorted:
            out.disagreement = Disagreement(
                "oracle-enum",
                f"engines={_fmt(res_py)} oracle={_fmt(truth_sorted)}",
            )
        return out

    # Maximum mode: sizes must match the oracle's best, and the returned
    # set must itself be a valid (k,r)-core of its component.
    best_truth = max((len(c) for c in truth), default=0)
    best_engine = len(res_py) if res_py is not None else 0
    if best_engine != best_truth:
        out.disagreement = Disagreement(
            "oracle-max",
            f"engine best size={best_engine} oracle best size={best_truth} "
            f"(engine core={_fmt(res_py)})",
        )
        return out
    if res_py:
        home = next(
            (ctx for ctx in contexts if res_py <= ctx.vertices), None
        )
        if home is None or not _is_krcore_vertexset(home, set(res_py)):
            out.disagreement = Disagreement(
                "oracle-max",
                f"engine core {_fmt(res_py)} is not a valid (k,r)-core",
            )
    return out


def _apply_edit(session: KRCoreSession, edit) -> None:
    """Replay one sampled edit tuple through the session mutators."""
    kind = edit[0]
    if kind == "add_edge":
        session.add_edge(edit[1], edit[2])
    elif kind == "remove_edge":
        session.remove_edge(edit[1], edit[2])
    elif kind == "set_attribute":
        session.set_attribute(edit[1], edit[2])
    else:  # pragma: no cover - sampler only emits the three kinds above
        raise ValueError(f"unknown edit kind {kind!r}")


def _query_session(case: FuzzCase, session: KRCoreSession, **overrides):
    """(canonical result, stats) of the case's query on a session."""
    if case.mode == "maximum":
        best, stats = session.maximum(
            case.k, predicate=case.predicate(), with_stats=True, **overrides
        )
        result = frozenset(best.vertices) if best is not None else None
        return result, stats
    cores, stats = session.enumerate(
        case.k, predicate=case.predicate(), with_stats=True, **overrides
    )
    return sorted(sorted(c.vertices) for c in cores), stats


def _csr_drift(session: KRCoreSession) -> Optional[str]:
    """The session's CSR against a freeze of its dict graph, or ``None``
    when the two forms hold the same graph."""
    got, want = (
        (c.indptr.tolist(), c.indices.tolist(),
         {u: c.attribute(u) for u in c.vertices() if c.has_attribute(u)})
        for c in (session.csr, CSRGraph.from_attributed(session.graph))
    )
    return None if got == want else f"csr {got} != frozen {want}"


def _fingerprint_drift(session: KRCoreSession) -> Optional[str]:
    """The fingerprint the session's CSR carried through its edits
    against a from-scratch one of a freeze of its dict graph, or
    ``None`` when they are equal."""
    carried = csr_fingerprint(session.csr)
    scratch = csr_fingerprint(CSRGraph.from_attributed(session.graph))
    return None if carried == scratch else (
        f"carried {carried[:16]}… != from scratch {scratch[:16]}…"
    )


def run_edit_stream_case(
    case: FuzzCase, oracle_limit: int = DEFAULT_ORACLE_LIMIT
) -> CaseResult:
    """Maintained-session vs fresh-session differential for an edit stream.

    Per backend: warm a session on the base graph, replay ``case.edits``
    through the bounded-scope maintenance layer, then

    1. the maintained session's results on the final graph must equal a
       fresh session's (built directly on the final graph, same config);
    2. the maintained session's CSR (patched by every edit) must equal
       a freeze of its dict graph (``csr-drift``) — the fresh session is
       built from that dict graph, so a drifted CSR would go unseen by
       the result checks — and the fingerprint its CSR carried through
       the edits (taken once before the first) must equal a from-scratch
       fingerprint of that freeze (``fingerprint-drift``);
    3. the maintenance layer must not have swallowed an internal error
       (``maintenance_stats.errors`` stays zero — errors fall back to
       recompute, which keeps results right but hides the bug);
    4. after :meth:`~repro.core.session.KRCoreSession.drop_results` the
       re-query searches every component over the *maintained*
       preprocessing caches, so its counters must match the fresh
       session's first query on every parity counter — any divergence
       means patched filtered graphs / survivors / component indexes
       differ from freshly-built ones even though results happened to
       agree.

    The two backends' final results are then cross-checked, the
    looser-threshold check runs on the edit stream, and cases sampled
    with the process executor replay the maintained csr query over the
    worker pool (results and counters vs the serial re-query).
    """
    out = CaseResult()
    finals = {}
    for backend in ("python", "csr"):
        cfg = case.config(backend, executor="serial")
        try:
            maintained = KRCoreSession(case.graph, config=cfg, copy=True)
            _query_session(case, maintained)  # warm every cache layer
            csr_fingerprint(maintained.csr)  # the edits carry it from here
            for edit in case.edits:
                _apply_edit(maintained, edit)
            res_m, _ = _query_session(case, maintained)
            fresh = KRCoreSession(maintained.graph, config=cfg, copy=True)
            res_f, stats_f = _query_session(case, fresh)
        except Exception:
            out.disagreement = Disagreement(
                "engine-error",
                f"{backend} edit-stream run raised:\n{traceback.format_exc()}",
            )
            return out
        if backend == "csr":
            out.stats = stats_f.to_dict()
        drift = _csr_drift(maintained)
        if drift is not None:
            out.disagreement = Disagreement(
                "csr-drift", f"{backend}: {drift} after edits {case.edits}"
            )
            return out
        drift = _fingerprint_drift(maintained)
        if drift is not None:
            out.disagreement = Disagreement(
                "fingerprint-drift",
                f"{backend}: {drift} after edits {case.edits}",
            )
            return out
        if res_m != res_f:
            out.disagreement = Disagreement(
                "maintenance-result",
                f"{backend}: maintained={_fmt(res_m)} fresh={_fmt(res_f)} "
                f"after edits {case.edits}",
            )
            return out
        errors = maintained.maintenance_stats.errors
        if errors:
            out.disagreement = Disagreement(
                "maintenance-error",
                f"{backend}: maintenance layer swallowed {errors} internal "
                f"error(s) (stats={maintained.maintenance_stats.to_dict()})",
            )
            return out
        # Counter-for-counter preprocessing parity: re-search everything
        # over the maintained caches and compare with the fresh build.
        maintained.drop_results()
        try:
            res_r, stats_r = _query_session(case, maintained)
        except Exception:
            out.disagreement = Disagreement(
                "engine-error",
                f"{backend} re-query over maintained caches raised:\n"
                f"{traceback.format_exc()}",
            )
            return out
        if res_r != res_f:
            out.disagreement = Disagreement(
                "maintenance-result",
                f"{backend}: re-query over maintained caches gave "
                f"{_fmt(res_r)}, fresh gave {_fmt(res_f)}",
            )
            return out
        diffs = [
            f"{name}: maintained={getattr(stats_r, name)} "
            f"fresh={getattr(stats_f, name)}"
            for name in PARITY_COUNTERS
            if getattr(stats_r, name) != getattr(stats_f, name)
        ]
        if diffs:
            out.disagreement = Disagreement(
                "maintenance-stats", f"{backend}: " + "; ".join(diffs)
            )
            return out
        finals[backend] = (maintained, res_f, stats_r)

    if finals["python"][1] != finals["csr"][1]:
        out.disagreement = Disagreement(
            "backend-result",
            f"after edits: python={_fmt(finals['python'][1])} "
            f"csr={_fmt(finals['csr'][1])}",
        )
        return out

    _, res_fresh, stats_fresh = finals["csr"]
    out.disagreement = _seeded_check(case, res_fresh, stats_fresh, out)
    if out.disagreement is not None:
        return out

    pool = case.search.get("executor")
    if pool == "process":
        maintained, res_serial, stats_serial = finals["csr"]
        maintained.drop_results()
        try:
            res_pp, stats_pp = _query_session(
                case, maintained, plan=case.config("csr", executor=pool).plan
            )
        except Exception:
            out.disagreement = Disagreement(
                "engine-error",
                f"{pool} executor over maintained caches raised:\n"
                f"{traceback.format_exc()}",
            )
            return out
        if res_pp != res_serial:
            out.disagreement = Disagreement(
                "executor-result",
                f"maintained caches: serial={_fmt(res_serial)} "
                f"{pool}={_fmt(res_pp)}",
            )
            return out
        diffs = [
            f"{name}: serial={getattr(stats_serial, name)} "
            f"{pool}={getattr(stats_pp, name)}"
            for name in PARITY_COUNTERS
            if getattr(stats_serial, name) != getattr(stats_pp, name)
        ]
        if diffs:
            out.disagreement = Disagreement(
                "executor-stats", "; ".join(diffs)
            )
            return out
    return out


def _fmt(result) -> str:
    if result is None:
        return "None"
    if isinstance(result, frozenset):
        return str(sorted(result))
    return str(result)
