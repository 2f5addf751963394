"""The fuzzer's configuration space.

A :class:`FuzzCase` is fully concrete and standalone: the graph itself
(not a generator reference), the ``(k, metric, r)`` query, the solver
mode, and the :class:`~repro.core.config.SearchConfig` knobs to run it
under.  Keeping the graph concrete is what makes shrinking and repro
serialisation trivial — a minimised case no longer corresponds to any
family's parameters.

:func:`sample_case` draws (family, params, k, r, order, bounds,
branch, pruning flags, maximal-check, mode) jointly from a seeded
``random.Random`` so a sweep is reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import SearchConfig
from repro.datasets.adversarial import FAMILIES, sample_instance
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

#: Search-order / bound / branch choices the sampler draws from (the
#: full Table 2 surface; "random" is included because both backends
#: consume the seeded rng identically).
SAMPLED_ORDERS = (
    "random",
    "degree",
    "delta1",
    "delta2",
    "delta1-then-delta2",
    "weighted-delta",
)
SAMPLED_BOUNDS = ("naive", "color-kcore", "kkprime")
SAMPLED_BRANCHES = ("adaptive", "expand", "shrink")
SAMPLED_CHECKS = ("search", "pairwise")

#: Probability a sampled case also gets the pool-executor differential
#: (serial vs pool results AND merged stats parity); the worker pool is
#: cached across cases, so the marginal cost per pooled case is task
#: pickling, not interpreter spawning.
POOL_EXECUTOR_RATE = 0.25
SAMPLED_WORKERS = (2, 3)
#: Branch-split depths sampled in maximum mode (0 = whole components;
#: split runs reshape the search schedule identically on every
#: executor, so the serial baseline replays with the same depth).
SAMPLED_SPLIT_DEPTHS = (0, 0, 1, 2)


@dataclass
class FuzzCase:
    """One concrete differential-fuzz input (graph + query + config)."""

    graph: AttributedGraph
    k: int
    metric: str
    r: float
    mode: str                       # "enumerate" or "maximum"
    search: Dict[str, Any] = field(default_factory=dict)
    family: str = "custom"
    params: Dict[str, Any] = field(default_factory=dict)
    #: Edit stream applied after a warm query: tuples of
    #: ``("add_edge", u, v)`` / ``("remove_edge", u, v)`` /
    #: ``("set_attribute", u, value)``.  Empty for classic cases; when
    #: non-empty the differential check compares a *maintained* session
    #: against a fresh session on the final graph.
    edits: List[Tuple] = field(default_factory=list)

    def predicate(self) -> SimilarityPredicate:
        """The case's similarity predicate."""
        return SimilarityPredicate(self.metric, self.r)

    def config(self, backend: str, executor: Optional[str] = None) -> SearchConfig:
        """The case's :class:`SearchConfig` on the given backend.

        ``executor`` overrides the sampled executor dimension: the
        differential runner forces ``"serial"`` for the base
        python-vs-csr comparison and replays the case on the
        ``"process"`` pool when the knobs ask for it.  The sampled
        ``split_depth`` is kept either way — the split schedule is
        executor-independent, so the serial baseline and the pool
        replay traverse the same tree.
        """
        search = dict(self.search)
        if executor is not None:
            search["executor"] = executor
        return SearchConfig(backend=backend, **search)

    def describe(self) -> str:
        """One-line summary for driver logs."""
        g = self.graph
        extra = f" edits={len(self.edits)}" if self.edits else ""
        return (
            f"{self.family} n={g.vertex_count} m={g.edge_count} "
            f"k={self.k} r={self.r:.4f} {self.mode} "
            f"order={self.search.get('order')} "
            f"bound={self.search.get('bound')} "
            f"check={self.search.get('maximal_check')}{extra}"
        )


#: Per-case search-node ceiling.  The hardest instance observed across
#: thousands of sampled configs stays under ~16k nodes, so only a
#: runaway engine regression (a non-terminating search — exactly what a
#: fuzzer exists to catch) can trip this; it then surfaces as an
#: engine-error disagreement instead of hanging the sweep.
CASE_NODE_LIMIT = 200_000


def _pool_executor(rng: random.Random) -> str:
    # Discarded draw: it once picked between two pool transports, and
    # keeping it keeps every later sample (and the pinned repros) stable.
    rng.randrange(2)
    return "process"


def sample_search(rng: random.Random, mode: str) -> Dict[str, Any]:
    """Random solver knobs (every Table 2 technique toggled freely)."""
    return {
        "node_limit": CASE_NODE_LIMIT,
        "order": rng.choice(SAMPLED_ORDERS),
        "branch": rng.choice(SAMPLED_BRANCHES),
        "lam": rng.choice((0.0, 1.0, 5.0)),
        "bound": rng.choice(SAMPLED_BOUNDS),
        "retain_candidates": rng.random() < 0.8,
        "move_similarity_free": rng.random() < 0.8,
        "early_termination": rng.random() < 0.8,
        "maximal_check": (
            "none" if mode == "maximum" else rng.choice(SAMPLED_CHECKS)
        ),
        "warm_start": rng.random() < 0.3,
        "executor": (
            _pool_executor(rng)
            if rng.random() < POOL_EXECUTOR_RATE else "serial"
        ),
        "workers": rng.choice(SAMPLED_WORKERS),
        "split_depth": (
            rng.choice(SAMPLED_SPLIT_DEPTHS) if mode == "maximum" else 0
        ),
        "seed": rng.randrange(1 << 16),
    }


def sample_case(
    rng: random.Random,
    tiny_bias: float = 0.7,
    families: tuple = tuple(sorted(FAMILIES)),
) -> FuzzCase:
    """Draw one case: adversarial instance + query jitter + solver knobs.

    ``tiny_bias`` is the probability of drawing a ``tiny`` instance
    (small enough for the brute-force oracle; the rest are ``small``
    instances that only get the backend-vs-backend differential).  ``k``
    is nudged around the family default and ``r`` is occasionally
    jittered off the engineered threshold so both the exactly-on-r and
    the slightly-off regimes get coverage.
    """
    family = rng.choice(families)
    size = "tiny" if rng.random() < tiny_bias else "small"
    inst = sample_instance(family, rng, size)
    k = max(1, inst.k + rng.choice((-1, 0, 0, 0, 1)))
    r = inst.r
    jitter = rng.random()
    if jitter < 0.15:
        r = r * 0.95
    elif jitter < 0.3:
        r = min(1.0, r * 1.05)
    mode = rng.choice(("enumerate", "maximum"))
    return FuzzCase(
        graph=inst.graph,
        k=k,
        metric=inst.metric,
        r=r,
        mode=mode,
        search=sample_search(rng, mode),
        family=family,
        params=dict(inst.params, size=size),
    )


#: Edit-stream length range (satellite of the maintenance tentpole):
#: short streams keep single-edit classification honest, longer ones
#: compose merges, splits, and cancelling edits.
EDIT_STREAM_RANGE = (1, 8)


def _sample_attribute_value(rng: random.Random, graph: AttributedGraph, u: int):
    """A mutated attribute value for ``u`` (set profiles when possible).

    Deliberately includes *borderline* moves (add/drop one token from
    the instance's own vocabulary — exactly the one-token-across-r flips
    the adversarial ``borderline`` family engineers), profile copies
    (merging similarity classes), empty profiles, and re-assignment of
    the current value (the no-op edit the session must not invalidate
    on).
    """
    current = graph.attribute(u)
    roll = rng.random()
    if roll < 0.15 and current is not None:
        return current  # no-op re-assignment
    attributed = [
        w for w in graph.vertices()
        if graph.has_attribute(w) and graph.attribute(w) is not None
    ]
    if roll < 0.35 and attributed:
        return graph.attribute(rng.choice(attributed))  # profile copy
    if not isinstance(current, (frozenset, set)):
        if attributed:
            return graph.attribute(rng.choice(attributed))
        return frozenset()
    vocab = sorted({
        tok for w in attributed
        if isinstance(graph.attribute(w), (frozenset, set))
        for tok in graph.attribute(w)
    })
    profile = set(current)
    if roll < 0.45:
        return frozenset()  # empty profile: all incident edges dissimilar
    if roll < 0.75 and vocab:
        profile.add(rng.choice(vocab))  # one token in (may cross r)
    elif profile:
        profile.discard(rng.choice(sorted(profile)))  # one token out
    elif vocab:
        profile.add(rng.choice(vocab))
    return frozenset(profile)


def sample_edit_stream_case(rng: random.Random) -> FuzzCase:
    """A classic case plus a short random edit stream.

    The differential runner warms a session on the base graph, applies
    the edits through the maintenance layer, and cross-checks results
    *and* preprocessing counters against a fresh session on the final
    graph (see :func:`repro.fuzz.differential.run_edit_stream_case`).
    Edits are sampled against a scratch copy of the graph so removals
    target existing edges and the stream includes duplicate and
    cancelling pairs with realistic probability.
    """
    case = sample_case(rng)
    graph = case.graph
    work = graph.copy()
    n = work.vertex_count
    edits: List[Tuple] = []
    for _ in range(rng.randint(*EDIT_STREAM_RANGE)):
        roll = rng.random()
        if roll < 0.35 and work.edge_count:
            u, v = rng.choice(sorted(work.edges()))
            work.remove_edge(u, v)
            edits.append(("remove_edge", u, v))
        elif roll < 0.7 and n >= 2:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                v = (u + 1) % n
            u, v = (u, v) if u < v else (v, u)
            work.add_edge(u, v)  # may be a duplicate-insert no-op
            edits.append(("add_edge", u, v))
        else:
            u = rng.randrange(n)
            value = _sample_attribute_value(rng, work, u)
            work.set_attribute(u, value)
            edits.append(("set_attribute", u, value))
    case.edits = edits
    return case


def sample_bound_stress_case(rng: random.Random) -> FuzzCase:
    """A case biased to exercise the tight size bounds.

    Used by the driver's self-test: maximum mode, a tight bound
    selected, drawn from the families whose bounds stay close to the
    true maximum (where an off-by-one fault in the bound must flip a
    pruning decision).
    """
    case = sample_case(
        rng,
        tiny_bias=1.0,
        families=("onion", "borderline", "interleaved"),
    )
    case.mode = "maximum"
    case.search["maximal_check"] = "none"
    case.search["bound"] = rng.choice(("color-kcore", "kkprime"))
    case.search["warm_start"] = rng.random() < 0.5
    # The self-test targets the bound, not the execution layer; keep the
    # witness minimal (and pool-free) by pinning the serial executor and
    # the unsplit schedule.
    case.search["executor"] = "serial"
    case.search["split_depth"] = 0
    return case
