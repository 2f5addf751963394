"""Threshold semantics and the top-x‰ threshold selection rule."""

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.metrics import MetricKind
from repro.similarity.threshold import (
    SimilarityPredicate,
    pairwise_similarity_sample,
    quantile_threshold,
    top_permille_threshold,
)


class TestSimilarityPredicate:
    def test_similarity_direction(self):
        pred = SimilarityPredicate("jaccard", 0.5)
        assert pred.similar({"a", "b"}, {"a", "b"})        # 1.0 >= 0.5
        assert pred.similar({"a", "b"}, {"a", "c", "b"})   # 2/3 >= 0.5
        assert not pred.similar({"a"}, {"b"})              # 0 < 0.5

    def test_similarity_boundary_inclusive(self):
        pred = SimilarityPredicate("jaccard", 0.5)
        # Jaccard exactly 0.5 counts as similar (sim >= r).
        assert pred.similar({"a", "b", "c"}, {"b", "c", "d"})

    def test_distance_direction(self):
        pred = SimilarityPredicate("euclidean", 5.0)
        assert pred.similar((0.0, 0.0), (3.0, 4.0))        # 5.0 <= 5.0
        assert not pred.similar((0.0, 0.0), (3.0, 4.1))

    def test_negative_distance_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimilarityPredicate("euclidean", -1.0)

    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_nan_threshold_rejected(self, metric):
        with pytest.raises(InvalidParameterError):
            SimilarityPredicate(metric, float("nan"))
        with pytest.raises(InvalidParameterError):
            SimilarityPredicate(metric, 0.5).with_threshold(float("nan"))

    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_infinite_threshold_accepted(self, metric):
        assert SimilarityPredicate(metric, float("inf")).r == float("inf")

    def test_custom_metric_requires_kind(self):
        with pytest.raises(InvalidParameterError):
            SimilarityPredicate(lambda a, b: 0.0, 0.5)

    def test_custom_metric_with_kind(self):
        pred = SimilarityPredicate(
            lambda a, b: abs(a - b), 2.0, kind=MetricKind.DISTANCE,
        )
        assert pred.similar(1.0, 2.5)
        assert not pred.similar(1.0, 4.0)

    def test_similar_vertices(self):
        g = AttributedGraph(2, attributes=[{"a"}, {"a", "b"}])
        pred = SimilarityPredicate("jaccard", 0.5)
        assert pred.similar_vertices(g, 0, 1)

    def test_similar_vertices_missing_attribute(self):
        from repro.exceptions import MissingAttributeError
        g = AttributedGraph(2, attributes={0: {"a"}})
        pred = SimilarityPredicate("jaccard", 0.5)
        with pytest.raises(MissingAttributeError):
            pred.similar_vertices(g, 0, 1)

    def test_with_threshold(self):
        pred = SimilarityPredicate("jaccard", 0.5)
        looser = pred.with_threshold(0.1)
        assert looser.r == 0.1
        assert looser.metric is pred.metric

    def test_repr_shows_direction(self):
        assert ">=" in repr(SimilarityPredicate("jaccard", 0.5))
        assert "<=" in repr(SimilarityPredicate("euclidean", 5.0))


class TestPairwiseSample:
    def _graph(self, n=6):
        g = AttributedGraph(n)
        for i in range(n):
            g.set_attribute(i, frozenset({f"k{i}", "shared"}))
        return g

    def test_exact_for_small_graphs(self):
        g = self._graph(5)
        values = pairwise_similarity_sample(g, "jaccard")
        assert len(values) == 10  # C(5,2)

    def test_sampled_for_large_graphs(self):
        g = self._graph(40)
        values = pairwise_similarity_sample(g, "jaccard", max_pairs=100)
        assert len(values) == 100

    def test_deterministic_per_seed(self):
        g = self._graph(40)
        a = pairwise_similarity_sample(g, "jaccard", max_pairs=50, seed=3)
        b = pairwise_similarity_sample(g, "jaccard", max_pairs=50, seed=3)
        assert a == b

    def test_skips_unattributed(self):
        g = AttributedGraph(3, attributes={0: {"a"}, 1: {"a"}})
        values = pairwise_similarity_sample(g, "jaccard")
        assert len(values) == 1


class TestTopPermille:
    def test_top_permille_basic(self):
        # 100 vertices in two attribute camps: same-camp pairs score 1,
        # cross-camp pairs score 0.
        g = AttributedGraph(100)
        for i in range(100):
            camp = "x" if i < 50 else "y"
            g.set_attribute(i, frozenset({camp}))
        # Same-camp pairs: 2 * C(50,2) = 2450 of C(100,2) = 4950 ~ 495‰.
        # A 100‰ threshold lands inside the score-1 mass.
        assert top_permille_threshold(g, "jaccard", 100) == 1.0
        # A 600‰ threshold must include some score-0 pairs.
        assert top_permille_threshold(g, "jaccard", 600) == 0.0

    def test_growing_permille_never_raises_threshold(self):
        g = AttributedGraph(30)
        for i in range(30):
            g.set_attribute(i, frozenset({f"k{i % 7}", f"j{i % 3}"}))
        values = [
            top_permille_threshold(g, "jaccard", pm)
            for pm in (1, 10, 100, 500, 1000)
        ]
        assert values == sorted(values, reverse=True)

    def test_permille_bounds(self):
        g = AttributedGraph(3, attributes=[{"a"}] * 3)
        with pytest.raises(InvalidParameterError):
            top_permille_threshold(g, "jaccard", 0)
        with pytest.raises(InvalidParameterError):
            top_permille_threshold(g, "jaccard", 1001)

    def test_no_attributed_pairs(self):
        g = AttributedGraph(1, attributes=[{"a"}])
        with pytest.raises(InvalidParameterError):
            top_permille_threshold(g, "jaccard", 5)


class TestQuantileThreshold:
    def test_basic(self):
        values = [0.9, 0.5, 0.1, 0.7]
        assert quantile_threshold(values, 0.25) == 0.9
        assert quantile_threshold(values, 0.5) == 0.7
        assert quantile_threshold(values, 1.0) == 0.1

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            quantile_threshold([], 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(InvalidParameterError):
            quantile_threshold([1.0], 0.0)
        with pytest.raises(InvalidParameterError):
            quantile_threshold([1.0], 1.5)
