"""Public one-shot API of the (k,r)-core library.

Three entry points:

* :func:`enumerate_maximal_krcores` — problem (i) of the paper;
* :func:`find_maximum_krcore` — problem (ii);
* :func:`krcore_statistics` — the count / max size / average size
  summary reported in Figure 7.

All accept either a prepared
:class:`~repro.similarity.threshold.SimilarityPredicate` or a
``(metric, r)`` pair, and either a named algorithm (Table 2 spelling) or
an explicit :class:`~repro.core.config.SearchConfig`.  Execution is
selected by an :class:`~repro.core.config.ExecutionPlan` (``plan=``).

Each function is a thin wrapper constructing a throwaway
:class:`~repro.core.session.KRCoreSession`: one call, one full
preprocessing pass.  Callers issuing *repeated* queries against the same
graph — several thresholds, several ``k``, statistics sweeps,
edit/re-query loops — should hold a session instead, which caches every
preprocessing layer between calls (see README "Sessions and repeated
queries").
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.config import ExecutionPlan, SearchConfig
from repro.core.session import KRCoreSession
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


def enumerate_maximal_krcores(
    graph: AttributedGraph,
    k: int,
    r: Optional[float] = None,
    *,
    metric: Union[str, Callable] = "jaccard",
    predicate: Optional[SimilarityPredicate] = None,
    algorithm: str = "advanced",
    config: Optional[SearchConfig] = None,
    backend: Optional[str] = None,
    plan: Optional[Union[ExecutionPlan, dict]] = None,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    with_stats: bool = False,
):
    """Enumerate all maximal (k,r)-cores of ``graph``.

    Parameters
    ----------
    graph:
        The attributed graph.
    k:
        Structure constraint: minimum in-subgraph degree (positive).
    r:
        Similarity threshold; interpreted per the metric's kind
        (``sim >= r`` for similarity metrics, ``dist <= r`` for distance
        metrics).  May be replaced by an explicit ``predicate``.
    metric:
        Metric name or callable (default Jaccard); ignored when
        ``predicate`` is given.
    algorithm:
        One of ``"naive"``, ``"clique"``, ``"basic"``, ``"be+cr"``,
        ``"be+cr+et"``, ``"advanced"`` (default), ``"advanced-o"``,
        ``"advanced-p"`` — the Table 2 line-up.  Ignored when an explicit
        ``config`` is supplied (the configurable engine then runs).
    backend:
        Search engine selection: ``"csr"`` (the bitset engines, the
        config default) or ``"python"`` (the set-based reference
        engines); both search the same CSR-prepared components.
        Overrides the config's/preset's ``backend`` when given.
    plan:
        An :class:`~repro.core.config.ExecutionPlan` (or its field
        dict) selecting the executor (``"serial"`` | ``"process"``),
        worker count and branch-split depth in one object.  Results and merged stats are
        identical across executors.
    time_limit / node_limit:
        Optional budget; exceeded budgets raise
        :class:`~repro.exceptions.SearchBudgetExceeded` carrying partial
        results (or return them when the config says ``on_budget="partial"``).
    with_stats:
        When true, return ``(cores, stats)`` instead of just the list.

    Returns
    -------
    ``list[KRCore]`` sorted by decreasing size, or ``(list, SearchStats)``.

    See Also
    --------
    :class:`~repro.core.session.KRCoreSession` : amortises the
        preprocessing across repeated queries on the same graph.
    """
    session = KRCoreSession(graph, copy=False)
    return session.enumerate(
        k, r, metric=metric, predicate=predicate, algorithm=algorithm,
        config=config, backend=backend, plan=plan, time_limit=time_limit,
        node_limit=node_limit, with_stats=with_stats,
    )


def find_maximum_krcore(
    graph: AttributedGraph,
    k: int,
    r: Optional[float] = None,
    *,
    metric: Union[str, Callable] = "jaccard",
    predicate: Optional[SimilarityPredicate] = None,
    algorithm: str = "advanced",
    config: Optional[SearchConfig] = None,
    backend: Optional[str] = None,
    plan: Optional[Union[ExecutionPlan, dict]] = None,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    with_stats: bool = False,
):
    """Find the maximum (k,r)-core of ``graph`` (``None`` when none exists).

    ``algorithm`` is one of ``"basic"``, ``"advanced"`` (default),
    ``"advanced-ub"``, ``"advanced-o"``, ``"color-kcore"`` — see Table 2
    and Figure 12(b).  Other parameters as in
    :func:`enumerate_maximal_krcores` (including ``plan=``); the plan's
    ``split_depth`` is most useful here — a single giant component's
    search tree splits into independent subtree tasks.  Repeated queries should use a
    :class:`~repro.core.session.KRCoreSession` (README "Sessions and
    repeated queries").
    """
    session = KRCoreSession(graph, copy=False)
    return session.maximum(
        k, r, metric=metric, predicate=predicate, algorithm=algorithm,
        config=config, backend=backend, plan=plan, time_limit=time_limit,
        node_limit=node_limit, with_stats=with_stats,
    )


def krcore_statistics(
    graph: AttributedGraph,
    k: int,
    r: Optional[float] = None,
    *,
    metric: Union[str, Callable] = "jaccard",
    predicate: Optional[SimilarityPredicate] = None,
    algorithm: str = "advanced",
    config: Optional[SearchConfig] = None,
    backend: Optional[str] = None,
    plan: Optional[Union[ExecutionPlan, dict]] = None,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    with_stats: bool = False,
):
    """Count, maximum size and average size of all maximal (k,r)-cores.

    The Figure 7 measurement.  Accepts the full parameter surface of its
    sister entry points (``algorithm=``, ``backend=``, ``plan=``,
    ``node_limit=``, ``with_stats=``); with ``with_stats=True`` returns
    ``(summary_dict, SearchStats)``.  Sweeping many ``k`` / ``r`` values
    is cheaper through :meth:`KRCoreSession.sweep <repro.core.session.\
KRCoreSession.sweep>` (README "Sessions and repeated queries").
    """
    session = KRCoreSession(graph, copy=False)
    return session.statistics(
        k, r, metric=metric, predicate=predicate, algorithm=algorithm,
        config=config, backend=backend, plan=plan, time_limit=time_limit,
        node_limit=node_limit, with_stats=with_stats,
    )
