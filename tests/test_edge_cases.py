"""Edge cases and failure injection across the public surface.

Small graphs, degenerate parameters, missing attributes, malformed
files, and budget interplay — the inputs a downstream user will
eventually throw at the library.
"""

import io

import pytest

from conftest import as_sorted_sets
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.session import KRCoreSession
from repro.exceptions import (
    GraphError,
    IngestError,
    MissingAttributeError,
    SearchBudgetExceeded,
)
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.io import read_attributes, read_edge_list
from repro.similarity.threshold import SimilarityPredicate


class TestDegenerateGraphs:
    def test_empty_graph(self):
        g = AttributedGraph(0)
        pred = SimilarityPredicate("jaccard", 0.5)
        assert enumerate_maximal_krcores(g, 1, predicate=pred) == []
        assert find_maximum_krcore(g, 1, predicate=pred) is None

    def test_single_vertex(self):
        g = AttributedGraph(1, attributes=[{"a"}])
        pred = SimilarityPredicate("jaccard", 0.5)
        # k >= 1 means a lone vertex can never qualify.
        assert enumerate_maximal_krcores(g, 1, predicate=pred) == []

    def test_single_edge_k1(self):
        g = AttributedGraph(2, edges=[(0, 1)], attributes=[{"a"}, {"a"}])
        pred = SimilarityPredicate("jaccard", 0.5)
        cores = enumerate_maximal_krcores(g, 1, predicate=pred)
        assert as_sorted_sets(cores) == [[0, 1]]

    def test_all_isolated_vertices(self):
        g = AttributedGraph(5, attributes=[{"a"}] * 5)
        pred = SimilarityPredicate("jaccard", 0.5)
        assert enumerate_maximal_krcores(g, 1, predicate=pred) == []

    def test_k_larger_than_graph(self):
        g = AttributedGraph(3, edges=[(0, 1), (1, 2), (0, 2)],
                            attributes=[{"a"}] * 3)
        pred = SimilarityPredicate("jaccard", 0.5)
        assert enumerate_maximal_krcores(g, 50, predicate=pred) == []

    def test_complete_graph_all_similar(self):
        n = 7
        g = AttributedGraph(n, attributes=[{"a"}] * n)
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j)
        pred = SimilarityPredicate("jaccard", 0.5)
        for k in (1, 3, n - 1):
            cores = enumerate_maximal_krcores(g, k, predicate=pred)
            assert as_sorted_sets(cores) == [list(range(n))]


class TestMissingAttributes:
    def test_unattributed_vertices_never_in_cores(self):
        # Vertex 3 has no attribute: its edges are dropped by
        # preprocessing, never reaching the metric.
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3),
                                      (1, 3)])
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"a"}))
        pred = SimilarityPredicate("jaccard", 0.5)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        assert as_sorted_sets(cores) == [[0, 1, 2]]

    def test_metric_on_missing_attribute_raises_cleanly(self):
        g = AttributedGraph(2, edges=[(0, 1)])
        pred = SimilarityPredicate("jaccard", 0.5)
        with pytest.raises(MissingAttributeError):
            pred.similar_vertices(g, 0, 1)


class TestMalformedFiles:
    def test_edge_list_single_field(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("lonely\n"))

    def test_point_attribute_not_numeric(self):
        with pytest.raises(IngestError, match="attribute line 1: "):
            read_attributes(io.StringIO("v notanumber 2.0\n"), "point")

    def test_counter_attribute_not_numeric(self):
        with pytest.raises(IngestError, match="attribute line 1: "):
            read_attributes(io.StringIO("v key:abc\n"), "counter")


class TestBudgetInterplay:
    def _heavy_instance(self):
        import random
        rng = random.Random(5)
        n = 16
        g = AttributedGraph(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    g.add_edge(i, j)
        vocab = ["a", "b", "c", "d", "e", "f"]
        for u in range(n):
            g.set_attribute(u, frozenset(rng.sample(vocab, 3)))
        return g, SimilarityPredicate("jaccard", 0.2)

    def test_node_budget_exact_raise(self):
        g, pred = self._heavy_instance()
        cfg = adv_enum_config(node_limit=3)
        with pytest.raises(SearchBudgetExceeded):
            enumerate_maximal_krcores(g, 2, predicate=pred, config=cfg)

    def test_partial_results_are_valid_cores(self):
        g, pred = self._heavy_instance()
        cfg = adv_enum_config(node_limit=5, on_budget="partial")
        cores, stats = enumerate_maximal_krcores(
            g, 2, predicate=pred, config=cfg, with_stats=True,
        )
        assert stats.timed_out
        for core in cores:
            # Partial output may be incomplete but never wrong.
            assert core.verify(g, pred)

    def test_maximum_partial_is_valid(self):
        g, pred = self._heavy_instance()
        cfg = adv_max_config(node_limit=2, on_budget="partial")
        best, stats = find_maximum_krcore(
            g, 2, predicate=pred, config=cfg, with_stats=True,
        )
        assert stats.timed_out
        if best is not None:
            assert best.verify(g, pred)

    def test_dynamic_miner_with_budget_config(self):
        g, pred = self._heavy_instance()
        cfg = adv_enum_config(node_limit=10_000_000)
        session = KRCoreSession(g, config=cfg)
        assert isinstance(session.enumerate(2, predicate=pred), list)


class TestThresholdBoundaries:
    def test_distance_zero_threshold(self):
        # r=0 km: only exactly co-located points are similar.
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3),
                                      (0, 3), (1, 3)])
        g.set_attribute(0, (1.0, 1.0))
        g.set_attribute(1, (1.0, 1.0))
        g.set_attribute(2, (1.0, 1.0))
        g.set_attribute(3, (9.0, 9.0))
        pred = SimilarityPredicate("euclidean", 0.0)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        assert as_sorted_sets(cores) == [[0, 1, 2]]

    def test_jaccard_threshold_one(self):
        # r=1.0: only identical attribute sets are similar.
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3),
                                      (0, 3), (1, 3)])
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"a", "b"}))
        g.set_attribute(3, frozenset({"a"}))
        pred = SimilarityPredicate("jaccard", 1.0)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        assert as_sorted_sets(cores) == [[0, 1, 2]]


class TestKROneCores:
    def test_k1_cores_are_similar_connected_pairs_plus(self):
        # k=1: any connected, pairwise-similar subgraph with >= 2
        # vertices qualifies; maximal ones partition by similarity.
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        for u in (0, 1):
            g.set_attribute(u, frozenset({"x"}))
        for u in (2, 3):
            g.set_attribute(u, frozenset({"y"}))
        pred = SimilarityPredicate("jaccard", 0.5)
        cores = enumerate_maximal_krcores(g, 1, predicate=pred)
        assert as_sorted_sets(cores) == [[0, 1], [2, 3]]
