"""Incremental maintenance: equivalence with from-scratch, cache reuse.

An evolving graph is a :class:`KRCoreSession` fed through
:meth:`~repro.core.session.KRCoreSession.edit`; each re-query re-solves
only the components an edit touched.
"""

import random

import pytest

from conftest import as_sorted_sets, make_random_attr_graph
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.config import adv_enum_config
from repro.core.session import KRCoreSession
from repro.datasets.planted import planted_communities
from repro.exceptions import InvalidParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


def cores_of(session, pred, k=2):
    return as_sorted_sets(session.enumerate(k, predicate=pred))


def assert_matches_scratch(session, pred):
    want = as_sorted_sets(
        enumerate_maximal_krcores(session.graph, 2, predicate=pred)
    )
    assert cores_of(session, pred) == want


class TestBasics:
    def test_initial_mine(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        assert cores_of(session, jaccard_half) == [[0, 1, 2], [3, 4, 5]]

    def test_invalid_k(self, two_triangles, jaccard_half):
        with pytest.raises(InvalidParameterError):
            KRCoreSession(two_triangles).enumerate(0, predicate=jaccard_half)

    def test_private_copy(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        two_triangles.remove_edge(0, 1)  # mutate the original
        assert cores_of(session, jaccard_half) == [[0, 1, 2], [3, 4, 5]]

    def test_maximum(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        assert session.maximum(2, predicate=jaccard_half).size == 3


class TestEdits:
    def test_edge_removal_breaks_core(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.enumerate(2, predicate=jaccard_half)
        assert session.edit(remove_edges=[(0, 1)])
        assert cores_of(session, jaccard_half) == [[3, 4, 5]]

    def test_edge_insert_grows_core(self, jaccard_half):
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
        for u in g.vertices():
            g.set_attribute(u, frozenset({"x", "y"}))
        session = KRCoreSession(g)
        assert session.maximum(2, predicate=jaccard_half).size == 4
        session.edit(remove_edges=[(1, 3)])
        assert session.maximum(2, predicate=jaccard_half).size == 3
        session.edit(add_edges=[(1, 3)])
        assert session.maximum(2, predicate=jaccard_half).size == 4

    def test_attribute_change_splits_core(self, jaccard_half):
        g = AttributedGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3),
                                      (1, 3), (0, 3)])
        for u in g.vertices():
            g.set_attribute(u, frozenset({"x", "y"}))
        session = KRCoreSession(g)
        assert session.maximum(2, predicate=jaccard_half).size == 4
        session.edit(attributes={3: frozenset({"p", "q"})})
        assert session.maximum(2, predicate=jaccard_half).size == 3

    def test_attributeless_vertex_survives_refresh(self, jaccard_half):
        # Vertex 3 never gets an attribute; it stays in the structural
        # k-core but outside every filtered component.  Re-queries
        # (which run on maintained caches) must handle it.
        g = AttributedGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"x", "y"}))
        session = KRCoreSession(g)
        assert cores_of(session, jaccard_half) == [[0, 1, 2]]
        session.edit(remove_edges=[(0, 3)])
        assert cores_of(session, jaccard_half) == [[0, 1, 2]]
        session.edit(remove_edges=[(1, 3)])
        assert cores_of(session, jaccard_half) == [[0, 1, 2]]

    def test_noop_edits_keep_cache(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.enumerate(2, predicate=jaccard_half)
        assert not session.edit(add_edges=[(0, 1)])     # already present
        assert not session.edit(remove_edges=[(0, 4)])  # never existed
        _, stats = session.enumerate(
            2, predicate=jaccard_half, with_stats=True
        )
        # Nothing changed, so both components come from the cache.
        assert stats.cache_misses == 0
        assert stats.cache_hits == 2


class TestCacheReuse:
    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_untouched_components_cached(self, backend):
        pc = planted_communities(n_blocks=4, block_size=10, k=3, seed=8)
        session = KRCoreSession(
            pc.graph, config=adv_enum_config(backend=backend),
        )
        _, stats = session.enumerate(
            pc.k, predicate=pc.predicate, with_stats=True
        )
        assert stats.cache_misses >= 1
        # Edit inside one block: the others must come from cache.
        block0 = sorted(pc.communities[0])
        session.edit(remove_edges=[(block0[0], block0[1])])
        _, stats = session.enumerate(
            pc.k, predicate=pc.predicate, with_stats=True
        )
        assert stats.cache_hits >= 1
        assert stats.cache_misses <= 2

    def test_invalidate_forces_resolve(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.enumerate(2, predicate=jaccard_half)
        session.invalidate()
        _, stats = session.enumerate(
            2, predicate=jaccard_half, with_stats=True
        )
        assert stats.cache_misses == 2
        assert stats.cache_hits == 0


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("seed", range(8))
    def test_edit_sequences_match_scratch(self, seed, backend):
        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=12, p=0.4)
        pred = SimilarityPredicate("jaccard", 0.35)
        session = KRCoreSession(g, config=adv_enum_config(backend=backend))
        assert_matches_scratch(session, pred)
        vocab = ["a", "b", "c", "d", "e", "f"]
        for _ in range(12):
            action = rng.random()
            u = rng.randrange(12)
            v = rng.randrange(12)
            if action < 0.4 and u != v:
                session.edit(add_edges=[(u, v)])
            elif action < 0.7 and u != v:
                session.edit(remove_edges=[(u, v)])
            else:
                session.edit(attributes={
                    u: frozenset(rng.sample(vocab, rng.randint(2, 4))),
                })
            assert_matches_scratch(session, pred)

    def test_maximum_matches_scratch_after_edits(self):
        g = make_random_attr_graph(55, n=12, p=0.5)
        pred = SimilarityPredicate("jaccard", 0.35)
        session = KRCoreSession(g)
        session.edit(add_edges=[(0, 5), (1, 5)])
        best = session.maximum(2, predicate=pred)
        scratch = find_maximum_krcore(session.graph, 2, predicate=pred)
        assert (best.size if best else 0) == (scratch.size if scratch else 0)
