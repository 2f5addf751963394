"""Threshold semantics and threshold selection.

Two pieces live here:

* :class:`SimilarityPredicate` — a metric bundled with a threshold ``r``
  and a direction, exposing ``similar(u_attr, v_attr) -> bool``.  This is
  the single place the "similarity metric: sim >= r, distance metric:
  dist <= r" convention (paper footnote 1) is encoded.

* :func:`top_permille_threshold` — the threshold-selection rule of
  Section 8.1 for DBLP/Pokec: "we used the thousandth of the pairwise
  similarity distribution in decreasing order", i.e. *r = top x‰* means
  the threshold value below which only the top ``x`` per thousand of
  pairwise similarity values fall.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.metrics import (
    MetricKind,
    metric_kind,
    require_attribute,
    resolve_metric,
)


class SimilarityPredicate:
    """A metric + threshold pair with the right comparison direction.

    Parameters
    ----------
    metric:
        A metric name (``"jaccard"``, ``"weighted_jaccard"``,
        ``"euclidean"``, ...) or a callable of two attribute values.
    r:
        The threshold.  For ``SIMILARITY`` metrics a pair is similar when
        ``metric(a, b) >= r``; for ``DISTANCE`` metrics when
        ``metric(a, b) <= r``.
    kind:
        Required when ``metric`` is a custom callable; inferred for the
        built-ins.
    """

    __slots__ = ("metric", "r", "kind")

    def __init__(
        self,
        metric: Union[str, Callable[[Any, Any], float]],
        r: float,
        kind: Optional[MetricKind] = None,
    ):
        self.metric = resolve_metric(metric)
        if kind is None:
            kind = metric_kind(self.metric)
        if not isinstance(kind, MetricKind):
            raise InvalidParameterError(f"kind must be a MetricKind, got {kind!r}")
        self.kind = kind
        r = float(r)
        if math.isnan(r):
            # NaN compares False against everything: it would answer every
            # query empty and never equal itself as a cache key.
            raise InvalidParameterError("threshold r must be a number, got nan")
        if self.kind is MetricKind.DISTANCE and r < 0:
            raise InvalidParameterError(f"distance threshold must be >= 0, got {r}")
        self.r = r

    def value(self, a: Any, b: Any) -> float:
        """Raw metric value between two attribute values."""
        return self.metric(a, b)

    def similar(self, a: Any, b: Any) -> bool:
        """Whether two attribute values are similar under the threshold."""
        v = self.metric(a, b)
        if self.kind is MetricKind.SIMILARITY:
            return v >= self.r
        return v <= self.r

    def similar_vertices(self, graph: AttributedGraph, u: int, v: int) -> bool:
        """Whether two graph vertices are similar (attributes must exist)."""
        au = require_attribute(graph.attribute(u), u)
        av = require_attribute(graph.attribute(v), v)
        return self.similar(au, av)

    def with_threshold(self, r: float) -> "SimilarityPredicate":
        """A copy of this predicate with a different threshold."""
        return SimilarityPredicate(self.metric, r, self.kind)

    def __repr__(self) -> str:
        op = ">=" if self.kind is MetricKind.SIMILARITY else "<="
        return f"SimilarityPredicate({self.metric.__name__} {op} {self.r})"


def pairwise_similarity_sample(
    graph: AttributedGraph,
    metric: Union[str, Callable],
    max_pairs: int = 200_000,
    seed: int = 0,
) -> List[float]:
    """Metric values over vertex pairs (all pairs, or a uniform sample).

    For graphs with at most ``max_pairs`` vertex pairs the exact
    distribution is returned; larger graphs are sampled uniformly with a
    seeded RNG so threshold selection is deterministic.
    Vertices without attributes are skipped.
    """
    fn = resolve_metric(metric)
    vertices = [u for u in graph.vertices() if graph.has_attribute(u)]
    n = len(vertices)
    total_pairs = n * (n - 1) // 2
    values: List[float] = []
    if total_pairs <= max_pairs:
        for i in range(n):
            au = graph.attribute(vertices[i])
            for j in range(i + 1, n):
                values.append(fn(au, graph.attribute(vertices[j])))
        return values
    rng = random.Random(seed)
    for _ in range(max_pairs):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        values.append(fn(graph.attribute(vertices[i]), graph.attribute(vertices[j])))
    return values


def top_permille_threshold(
    graph: AttributedGraph,
    metric: Union[str, Callable],
    permille: float,
    max_pairs: int = 200_000,
    seed: int = 0,
) -> float:
    """Similarity value at the top ``permille``‰ of the pairwise distribution.

    ``permille=3`` reproduces the paper's "r = top 3‰" setting: the
    returned threshold is the value such that roughly 3 out of every 1000
    vertex pairs have similarity at least that high.  Growing the permille
    *lowers* the threshold (more pairs count as similar), exactly the
    direction the paper's r-axis sweeps.
    """
    if not (0 < permille <= 1000):
        raise InvalidParameterError(
            f"permille must be in (0, 1000], got {permille}"
        )
    values = pairwise_similarity_sample(graph, metric, max_pairs, seed)
    if not values:
        raise InvalidParameterError(
            "graph has fewer than two attributed vertices"
        )
    values.sort(reverse=True)
    # Index of the last pair that is still inside the top x‰.
    cutoff = max(0, min(len(values) - 1, int(len(values) * permille / 1000.0) - 1))
    return values[cutoff]


def quantile_threshold(values: Sequence[float], top_fraction: float) -> float:
    """Threshold so that ``top_fraction`` of ``values`` lie at or above it.

    Lower-level helper behind :func:`top_permille_threshold`, usable when
    the caller already holds a similarity sample.
    """
    if not values:
        raise InvalidParameterError("empty similarity sample")
    if not (0 < top_fraction <= 1):
        raise InvalidParameterError(
            f"top_fraction must be in (0, 1], got {top_fraction}"
        )
    ordered = sorted(values, reverse=True)
    cutoff = max(0, min(len(ordered) - 1, int(len(ordered) * top_fraction) - 1))
    return ordered[cutoff]
