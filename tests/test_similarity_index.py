"""Dissimilarity index: correctness vs brute force, numpy geo path."""

import numpy as np
import pytest

from conftest import make_geo_graph, make_random_attr_graph
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.similarity import index as index_module
from repro.similarity.index import (
    DissimilarityIndex,
    build_index,
    euclidean_dissimilar_pairs,
    point_column,
    remove_dissimilar_edges,
)
from repro.similarity.threshold import SimilarityPredicate


def brute_force_dissimilar(graph, predicate, vertices):
    vs = sorted(vertices)
    out = {u: set() for u in vs}
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if not predicate.similar(graph.attribute(u), graph.attribute(v)):
                out[u].add(v)
                out[v].add(u)
    return out


class TestBuildIndexGeneric:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        g = make_random_attr_graph(seed, n=14)
        pred = SimilarityPredicate("jaccard", 0.4)
        idx = build_index(g, pred, g.vertices())
        expected = brute_force_dissimilar(g, pred, g.vertices())
        for u in g.vertices():
            assert idx.dissimilar_to(u) == expected[u]

    def test_subset_of_vertices(self):
        g = make_random_attr_graph(3, n=10)
        pred = SimilarityPredicate("jaccard", 0.4)
        subset = {1, 3, 5, 7}
        idx = build_index(g, pred, subset)
        assert idx.vertices == frozenset(subset)
        expected = brute_force_dissimilar(g, pred, subset)
        for u in subset:
            assert idx.dissimilar_to(u) == expected[u]


class TestBuildIndexEuclidean:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("r", [5.0, 15.0, 40.0])
    def test_matches_brute_force(self, seed, r):
        g = make_geo_graph(seed, n=20)
        pred = SimilarityPredicate("euclidean", r)
        idx = build_index(g, pred, g.vertices())
        expected = brute_force_dissimilar(g, pred, g.vertices())
        for u in g.vertices():
            assert idx.dissimilar_to(u) == expected[u]

    def test_single_vertex(self):
        g = make_geo_graph(0, n=1, p=0.0)
        pred = SimilarityPredicate("euclidean", 1.0)
        idx = build_index(g, pred, [0])
        assert idx.dissimilar_to(0) == set()


    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_pairs_match_per_group_index(self, monkeypatch, chunk, seed):
        if chunk is not None:
            monkeypatch.setattr(index_module, "_PAIR_CHUNK", chunk)
        g = make_geo_graph(seed, n=30)
        csr = CSRGraph.from_attributed(g)
        groups = [[0], [1, 2, 3, 4, 5, 6, 7, 8], [9], list(range(10, 30))]
        verts = np.array([u for grp in groups for u in grp], dtype=np.int64)
        starts = np.cumsum([0] + [len(grp) for grp in groups])
        pred = SimilarityPredicate("euclidean", 15.0)
        pi, pj = euclidean_dissimilar_pairs(
            point_column(csr, verts), starts, pred.r
        )
        got = list(zip(verts[pi].tolist(), verts[pj].tolist()))
        want = [
            pair
            for grp in groups
            for pair in sorted(build_index(g, pred, grp).pair_key())
        ]
        assert got == want


class TestIndexQueries:
    def _index(self):
        # 0-1 dissimilar; 2 similar to both.
        return DissimilarityIndex({0: {1}, 1: {0}, 2: set()})

    def test_dp(self):
        idx = self._index()
        assert idx.dp(0, {1, 2}) == 1
        assert idx.dp(2, {0, 1}) == 0

    def test_sp(self):
        idx = self._index()
        assert idx.sp(0, {0, 1, 2}) == 1  # of the 2 others, 1 similar
        assert idx.sp(2, {0, 1, 2}) == 2

    def test_is_similarity_free(self):
        idx = self._index()
        assert idx.is_similarity_free(2, {0, 1})
        assert not idx.is_similarity_free(0, {1, 2})

    def test_similarity_free_subset(self):
        idx = self._index()
        assert idx.similarity_free_subset({0, 1, 2}, {0, 1, 2}) == {2}

    def test_pair_count(self):
        idx = self._index()
        assert idx.dissimilar_pair_count({0, 1, 2}) == 1
        assert idx.dissimilar_pair_count({0, 2}) == 0

    def test_has_dissimilar_pair(self):
        idx = self._index()
        assert idx.has_dissimilar_pair({0, 1})
        assert not idx.has_dissimilar_pair({0, 2})

    def test_similar_to(self):
        idx = self._index()
        assert idx.similar_to(0, {0, 1, 2}) == {2}

    def test_restricted(self):
        idx = self._index().restricted({0, 2})
        assert idx.vertices == frozenset({0, 2})
        assert idx.dissimilar_to(0) == set()


class TestRemoveDissimilarEdges:
    def test_removes_only_dissimilar(self, two_triangles):
        pred = SimilarityPredicate("jaccard", 0.5)
        filtered = remove_dissimilar_edges(two_triangles, pred)
        # The 2-3 bridge joins dissimilar camps and must go.
        assert not filtered.has_edge(2, 3)
        assert filtered.edge_count == 6
        # Original untouched.
        assert two_triangles.has_edge(2, 3)

    def test_missing_attribute_drops_edges(self):
        g = AttributedGraph(3, edges=[(0, 1), (1, 2)])
        g.set_attribute(0, {"a"})
        g.set_attribute(1, {"a"})
        pred = SimilarityPredicate("jaccard", 0.5)
        filtered = remove_dissimilar_edges(g, pred)
        assert filtered.has_edge(0, 1)
        assert not filtered.has_edge(1, 2)
