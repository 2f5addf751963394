"""CSRGraph round-trip fidelity and array-kernel agreement."""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import make_geo_graph, make_random_attr_graph
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import (
    CSRGraph,
    anchored_k_core_mask,
    component_labels,
    component_vertex_groups,
    core_numbers,
    gather_neighbors,
    k_core_mask,
    with_attribute,
    with_edge_added,
    with_edge_removed,
)
from repro.graph.kcore import core_decomposition, k_core_vertices
from repro.similarity.index import remove_dissimilar_edges, remove_dissimilar_edges_csr
from repro.similarity.threshold import SimilarityPredicate


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_graph_round_trip(self, seed):
        g = make_random_attr_graph(seed)
        c = CSRGraph.from_attributed(g)
        assert c.vertex_count == g.vertex_count
        assert c.edge_count == g.edge_count
        for u in g.vertices():
            assert c.degree(u) == g.degree(u)
            assert set(c.neighbors(u).tolist()) == g.neighbors(u)
            assert c.attribute(u) == g.attribute(u)
            assert c.has_attribute(u) == g.has_attribute(u)
        back = c.to_attributed()
        assert sorted(back.edges()) == sorted(g.edges())
        assert all(back.attribute(u) == g.attribute(u) for u in g.vertices())

    def test_empty_graph(self):
        c = CSRGraph.from_attributed(AttributedGraph(0))
        assert c.vertex_count == 0
        assert c.edge_count == 0
        assert list(c.edges()) == []
        assert c.to_attributed().vertex_count == 0
        core, order = core_numbers(c)
        assert core.size == 0 and order.size == 0
        assert component_vertex_groups(c) == []

    def test_single_vertex(self):
        g = AttributedGraph(1)
        g.set_attribute(0, frozenset({"a"}))
        c = CSRGraph.from_attributed(g)
        assert c.vertex_count == 1
        assert c.edge_count == 0
        assert c.degree(0) == 0
        assert c.attribute(0) == frozenset({"a"})
        assert c.to_attributed().attribute(0) == frozenset({"a"})
        assert k_core_mask(c, 0).tolist() == [True]
        assert k_core_mask(c, 1).tolist() == [False]

    def test_isolated_vertices_preserved(self):
        g = AttributedGraph(5, edges=[(0, 1)])
        c = CSRGraph.from_attributed(g)
        assert c.vertex_count == 5
        assert [c.degree(u) for u in range(5)] == [1, 1, 0, 0, 0]

    def test_edges_sorted_and_symmetric(self):
        g = make_random_attr_graph(7, n=15, p=0.4)
        c = CSRGraph.from_attributed(g)
        for u in range(15):
            row = c.neighbors(u)
            assert list(row) == sorted(row)
        eu, ev = c.edge_array()
        assert (eu < ev).all()
        assert sorted(zip(eu.tolist(), ev.tolist())) == sorted(g.edges())

    def test_has_edge(self):
        g = AttributedGraph(4, edges=[(0, 1), (1, 2)])
        c = CSRGraph.from_attributed(g)
        assert c.has_edge(0, 1) and c.has_edge(1, 0)
        assert not c.has_edge(0, 2)
        assert not c.has_edge(3, 0)

    def test_vertex_check(self):
        c = CSRGraph.from_attributed(AttributedGraph(2, edges=[(0, 1)]))
        with pytest.raises(GraphError):
            c.neighbors(2)
        with pytest.raises(GraphError):
            c.degree(-1)

    def test_labels_round_trip(self):
        g = AttributedGraph(2, edges=[(0, 1)], labels=["alice", "bob"])
        c = CSRGraph.from_attributed(g)
        assert c.label(0) == "alice"
        assert c.to_attributed().label(1) == "bob"


class TestFilterEdges:
    def test_filter_matches_python_edge_removal(self):
        for seed in range(8):
            g = make_random_attr_graph(seed, n=14, p=0.5)
            pred = SimilarityPredicate("jaccard", 0.4)
            want = CSRGraph.from_attributed(remove_dissimilar_edges(g, pred))
            got = remove_dissimilar_edges_csr(CSRGraph.from_attributed(g), pred)
            assert sorted(got.edges()) == sorted(want.edges())

    def test_geo_filter_matches(self):
        for seed in range(8):
            g = make_geo_graph(seed, n=16, p=0.5)
            pred = SimilarityPredicate("euclidean", 20.0)
            want = remove_dissimilar_edges(g, pred)
            got = remove_dissimilar_edges_csr(CSRGraph.from_attributed(g), pred)
            assert sorted(got.edges()) == sorted(want.edges())

    def test_missing_attribute_drops_incident_edges(self):
        g = AttributedGraph(3, edges=[(0, 1), (1, 2)])
        g.set_attribute(0, frozenset({"x"}))
        g.set_attribute(1, frozenset({"x"}))
        pred = SimilarityPredicate("jaccard", 0.1)
        got = remove_dissimilar_edges_csr(CSRGraph.from_attributed(g), pred)
        assert sorted(got.edges()) == [(0, 1)]

    def test_bad_mask_shape_rejected(self):
        c = CSRGraph.from_attributed(AttributedGraph(3, edges=[(0, 1), (1, 2)]))
        with pytest.raises(GraphError):
            c.filter_edges(np.ones(5, dtype=bool))

    def test_malformed_attr_on_isolated_vertex_is_ignored(self):
        """Non-endpoint attributes are never read — matching the python
        path, which only evaluates metrics on edge endpoints."""
        g = AttributedGraph(3, edges=[(0, 1)])
        g.set_attribute(0, (1.0, 2.0))
        g.set_attribute(1, (1.5, 2.0))
        g.set_attribute(2, frozenset({"not", "a", "point"}))  # isolated
        pred = SimilarityPredicate("euclidean", 5.0)
        want = remove_dissimilar_edges(g, pred)
        got = remove_dissimilar_edges_csr(CSRGraph.from_attributed(g), pred)
        assert sorted(got.edges()) == sorted(want.edges())

    def test_jaccard_filter_ignores_isolated_garbage_attr(self):
        g = AttributedGraph(3, edges=[(0, 1)])
        g.set_attribute(0, frozenset({"a", "b"}))
        g.set_attribute(1, frozenset({"a", "b"}))
        g.set_attribute(2, 12345)  # not iterable; isolated vertex
        pred = SimilarityPredicate("jaccard", 0.5)
        got = remove_dissimilar_edges_csr(CSRGraph.from_attributed(g), pred)
        assert sorted(got.edges()) == [(0, 1)]

    def test_geo_points_column(self):
        g = AttributedGraph(3, edges=[(0, 1)])
        g.set_attribute(0, (1.0, 2.0))
        g.set_attribute(1, (3.0, 4.0))
        pts = CSRGraph.from_attributed(g).geo_points()
        assert pts.shape == (3, 2)
        assert pts[0].tolist() == [1.0, 2.0]
        assert np.isnan(pts[2]).all()


def _assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def _lexsort_reference(csr: CSRGraph, keep: np.ndarray) -> CSRGraph:
    eu, ev = csr.edge_array()
    return CSRGraph.from_edges(csr.vertex_count, eu[keep], ev[keep])


@st.composite
def _csr_and_mask(draw, max_n=14):
    """A random graph, optionally put through one derive step, plus a
    keep mask (all-true, all-false or random) over its edges."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    ) if possible else []
    csr = CSRGraph.from_attributed(AttributedGraph(n, edges=edges))
    step = draw(st.sampled_from(["none", "add", "remove", "attribute"]))
    if step == "add" and len(edges) < len(possible):
        csr._edge_id_map()  # a structural edit must not carry it over
        missing = sorted(set(possible) - set(edges))
        csr = with_edge_added(csr, *draw(st.sampled_from(missing)))
        assert csr._edge_ids is None
    elif step == "remove" and edges:
        csr._edge_id_map()
        csr = with_edge_removed(csr, *draw(st.sampled_from(sorted(edges))))
        assert csr._edge_ids is None
    elif step == "attribute" and n:
        csr = with_attribute(csr, draw(st.integers(0, n - 1)), (0.0, 0.0))
    kind = draw(st.sampled_from(["all", "none", "random"]))
    m = csr.edge_count
    if kind == "all":
        keep = np.ones(m, dtype=bool)
    elif kind == "none":
        keep = np.zeros(m, dtype=bool)
    else:
        keep = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    return csr, keep


class TestSortFreeFilter:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_csr_and_mask())
    def test_matches_lexsort_build(self, case):
        csr, keep = case
        _assert_same_csr(csr.filter_edges(keep), _lexsort_reference(csr, keep))

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_edgeless_graphs(self, n):
        csr = CSRGraph.from_attributed(AttributedGraph(n))
        out = csr.filter_edges(np.zeros(0, dtype=bool))
        _assert_same_csr(out, _lexsort_reference(csr, np.zeros(0, dtype=bool)))
        assert out.vertex_count == n and out.edge_count == 0

    def test_isolated_vertices_and_filtered_chain(self):
        g = make_geo_graph(3, n=20, p=0.3)
        for u in (4, 9, 17):
            for w in list(g.neighbors(u)):
                g.remove_edge(u, w)
        csr = CSRGraph.from_attributed(g)
        rng = np.random.default_rng(3)
        keep = rng.random(csr.edge_count) < 0.6
        once = csr.filter_edges(keep)
        _assert_same_csr(once, _lexsort_reference(csr, keep))
        again = rng.random(once.edge_count) < 0.5
        _assert_same_csr(once.filter_edges(again), _lexsort_reference(once, again))

    def test_edge_id_map_pairs_both_directions(self):
        csr = CSRGraph.from_attributed(make_random_attr_graph(5, n=15, p=0.4))
        eu, ev = csr.edge_array()
        eid = csr._edge_id_map()
        src = np.repeat(np.arange(csr.vertex_count), csr.degrees)
        lo = np.minimum(src, csr.indices)
        hi = np.maximum(src, csr.indices)
        assert np.array_equal(eu[eid], lo) and np.array_equal(ev[eid], hi)
        assert np.bincount(eid, minlength=csr.edge_count).tolist() == [2] * csr.edge_count

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_csr_and_mask(), st.randoms(use_true_random=False))
    def test_filter_induced_matches_masked_filter(self, case, rnd):
        csr, keep = case
        mask = np.array(
            [rnd.random() < 0.6 for _ in range(csr.vertex_count)], dtype=bool
        )
        asked = []

        def keep_edges(ids):
            asked.extend(ids.tolist())
            return keep[ids]

        got = csr.filter_induced(mask, keep_edges)
        eu, ev = csr.edge_array()
        inside = mask[eu] & mask[ev]
        _assert_same_csr(got, csr.filter_edges(keep & inside))
        # Each edge inside the mask is decided exactly once.
        assert sorted(asked) == np.nonzero(inside)[0].tolist()

    def test_with_attribute_keeps_edge_id_map(self):
        csr = CSRGraph.from_attributed(make_geo_graph(1))
        eid = csr._edge_id_map()
        assert with_attribute(csr, 0, (1.0, 1.0))._edge_ids is eid


class TestSharedAttributes:
    def _graph(self):
        g = make_geo_graph(2, n=10, p=0.6)
        g._labels = [f"v{u}" for u in range(10)]
        return CSRGraph.from_attributed(g)

    def test_derived_graphs_share_attributes_and_labels(self):
        csr = self._graph()
        eu, ev = csr.edge_array()
        u, v = next((a, b) for a in range(10) for b in range(a + 1, 10)
                    if not csr.has_edge(a, b))
        derived = [
            csr.filter_edges(np.ones(csr.edge_count, dtype=bool)),
            with_edge_added(csr, u, v),
            with_edge_removed(csr, int(eu[0]), int(ev[0])),
        ]
        for out in derived:
            assert out._attributes is csr._attributes
            assert out._labels is csr._labels

    def test_with_attribute_copies_only_the_dict(self):
        csr = self._graph()
        out = with_attribute(csr, 3, (9.0, 9.0))
        assert out._attributes is not csr._attributes
        assert csr.attribute(3) != (9.0, 9.0) and out.attribute(3) == (9.0, 9.0)
        assert out._labels is csr._labels
        assert out.indices is csr.indices

    def test_constructor_copies_caller_dicts(self):
        attrs = {0: (1.0, 2.0)}
        labels = ["a", "b"]
        csr = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]), attrs, labels)
        attrs[1] = (5.0, 5.0)
        attrs[0] = (0.0, 0.0)
        labels[0] = "z"
        assert csr.attribute(0) == (1.0, 2.0)
        assert not csr.has_attribute(1)
        assert csr.label(0) == "a"


class TestKernels:
    def test_gather_neighbors_preserves_duplicates(self):
        c = CSRGraph.from_attributed(
            AttributedGraph(4, edges=[(0, 2), (1, 2), (0, 3), (1, 3)])
        )
        out = gather_neighbors(c, np.array([0, 1]))
        assert sorted(out.tolist()) == [2, 2, 3, 3]

    def test_negative_k_rejected(self):
        c = CSRGraph.from_attributed(AttributedGraph(2))
        with pytest.raises(InvalidParameterError):
            k_core_mask(c, -1)

    def test_out_of_range_vertices_rejected(self):
        """Negative ids must raise like the set path, not wrap around."""
        from repro.graph.components import connected_components

        g = AttributedGraph(5, edges=[(0, 1), (2, 3)])
        c = CSRGraph.from_attributed(g)
        with pytest.raises(GraphError):
            k_core_vertices(c, 1, vertices=[-1])
        with pytest.raises(GraphError):
            connected_components(c, vertices=[0, 5])

    def test_overlapping_anchor_candidate_rejected(self):
        c = CSRGraph.from_attributed(AttributedGraph(2, edges=[(0, 1)]))
        both = np.array([True, False])
        with pytest.raises(InvalidParameterError):
            anchored_k_core_mask(c, 1, both, both)

    @pytest.mark.parametrize("seed", range(10))
    def test_core_numbers_match_dict_path(self, seed):
        g = make_random_attr_graph(seed, n=24, p=0.3)
        c = CSRGraph.from_attributed(g)
        core, order = core_numbers(c)
        want = core_decomposition(g)
        assert {u: int(x) for u, x in enumerate(core)} == want
        assert sorted(order.tolist()) == list(range(24))

    @pytest.mark.parametrize("seed", range(10))
    def test_component_labels_partition(self, seed):
        g = make_random_attr_graph(seed, n=20, p=0.1)
        c = CSRGraph.from_attributed(g)
        labels = component_labels(c)
        # Endpoint labels agree along every edge; label is the min member.
        for u, v in g.edges():
            assert labels[u] == labels[v]
        for u in g.vertices():
            assert labels[u] <= u

    @pytest.mark.parametrize("seed", range(10))
    def test_masked_k_core_matches_reference(self, seed):
        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=22, p=0.35)
        sub = rng.sample(range(22), 14)
        c = CSRGraph.from_attributed(g)
        for k in (1, 2, 3):
            assert k_core_vertices(c, k, vertices=sub) == \
                k_core_vertices(g, k, vertices=sub)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_peel_matches_unseeded(self, seed):
        g = make_random_attr_graph(seed, n=40, p=0.2)
        c = CSRGraph.from_attributed(g)
        prev = None
        for k in range(1, 7):
            full = k_core_mask(c, k)
            if prev is not None:
                assert np.array_equal(k_core_mask(c, k, prev), full)
            prev = full

    @pytest.mark.parametrize("seed", range(10))
    def test_masked_groups_match_set_components(self, seed):
        from repro.graph.components import connected_components

        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=30, p=0.08)
        c = CSRGraph.from_attributed(g)
        sub = rng.sample(range(30), rng.randint(0, 30))
        mask = np.zeros(30, dtype=bool)
        mask[sub] = True
        groups = [g_.tolist() for g_ in component_vertex_groups(c, mask)]
        want = [sorted(comp) for comp in connected_components(g, sub)]
        assert groups == want
