"""Multi-threshold profiles: sweeping r and k without re-doing the work.

The paper's statistics experiments (Figure 7) and the sensitivity sweeps
(Figures 13/14) re-solve the same graph at many thresholds.  Both
profiles here are thin orchestration over
:class:`~repro.core.session.KRCoreSession`, which supplies the two
observations that make sweeps much cheaper than independent runs:

* **r-sweeps** (similarity thresholds): edge metric values do not
  change, only the comparison does — the session's edge-value cache
  recompares cached values at each threshold;

* **k-sweeps**: the k-core is monotone (the (k+1)-core is inside the
  k-core), so the session seeds the structural peeling for larger ``k``
  from the previous survivor set instead of the whole graph.

Because the profiles run through a session, both honour
``SearchConfig.backend`` (the search engine; bitset by default).

The module also provides :func:`krcore_vertex_memberships` — which
vertices belong to at least one maximal (k,r)-core — used by the case
studies to colour the "in a cohesive group / not" distinction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import SearchConfig, adv_enum_config
from repro.core.session import KRCoreSession
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


def _sweep_config(
    config: Optional[SearchConfig], time_limit: Optional[float]
) -> SearchConfig:
    cfg = config or adv_enum_config()
    if time_limit is not None:
        cfg = cfg.evolve(time_limit=time_limit)
    return cfg


def threshold_profile(
    graph: AttributedGraph,
    k: int,
    thresholds: Sequence[float],
    predicate: SimilarityPredicate,
    config: Optional[SearchConfig] = None,
    time_limit: Optional[float] = None,
) -> List[Dict[str, float]]:
    """Figure 7(a)-style statistics for many thresholds in one pass.

    ``predicate`` supplies the metric and direction; its own ``r`` is
    ignored.  Pairwise similarity values are computed once per structural
    k-core component (inside the session's caches) and reused across all
    ``thresholds``.

    Returns one row per threshold: ``{"r", "count", "max_size",
    "avg_size"}``.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if not thresholds:
        return []
    cfg = _sweep_config(config, time_limit)
    session = KRCoreSession(graph, config=cfg, copy=False)
    rows: List[Dict[str, float]] = []
    for r in thresholds:
        summary = session.statistics(k, predicate=predicate.with_threshold(r))
        rows.append({"r": r, **summary})
    return rows


def degree_profile(
    graph: AttributedGraph,
    ks: Sequence[int],
    predicate: SimilarityPredicate,
    config: Optional[SearchConfig] = None,
    time_limit: Optional[float] = None,
) -> List[Dict[str, float]]:
    """Figure 7(b)-style statistics for many ``k`` at one threshold.

    Exploits k-core monotonicity through the session's survivor cache:
    the structural survivor set of each ``k`` seeds the peeling of the
    next larger ``k``.
    """
    if any(k < 1 for k in ks):
        raise InvalidParameterError("every k must be positive")
    if not ks:
        return []
    cfg = _sweep_config(config, time_limit)
    session = KRCoreSession(graph, config=cfg, copy=False)
    rows_by: Dict[int, Dict[str, float]] = {}
    for k in sorted(set(ks)):
        rows_by[k] = {"k": k, **session.statistics(k, predicate=predicate)}
    return [dict(rows_by[k]) for k in ks]


def krcore_vertex_memberships(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    config: Optional[SearchConfig] = None,
    time_limit: Optional[float] = None,
) -> Dict[int, int]:
    """``vertex -> number of maximal (k,r)-cores containing it``.

    Vertices absent from the mapping belong to no core.  The Figure 5
    bridge author is exactly the vertex with membership count 2.
    """
    session = KRCoreSession(graph, config=config, copy=False)
    return session.memberships(
        k, predicate=predicate, time_limit=time_limit,
    )
