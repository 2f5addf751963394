"""Streaming-edit maintenance: in-place cache patches vs recompute.

Covers the bounded-scope maintenance layer end to end: the incremental
k-core kernel and seeded component discovery as units, the edge-value
cache refreshes against freshly-built caches, session-level equivalence
with a fresh session after boundary-hugging edits (threshold-exact
attribute flips, k-degree boundary deletions, isolated vertices), batch
edit semantics (duplicates, cancelling pairs, no-op re-assignments),
eviction symmetry on component merges and splits, and the edit-stream
fuzz harness's ability to catch an injected maintenance fault.
"""

import random

import numpy as np
import pytest

from conftest import BACKENDS, as_sorted_sets, make_geo_graph, \
    make_random_attr_graph
from repro.core.bounds import FAULT_ENV
from repro.core.session import KRCoreSession
from repro.exceptions import InvalidParameterError
from repro.fuzz.differential import (
    PARITY_COUNTERS,
    run_case,
    run_edit_stream_case,
)
from repro.fuzz.space import FuzzCase, sample_edit_stream_case
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.components import connected_components, local_components
from repro.graph import csr as csr_module
from repro.graph.csr import CSRGraph
from repro.graph.kcore import incremental_kcore_update, k_core_vertices
from repro.similarity.cache import EdgeSimilarityCache
from repro.similarity.index import remove_dissimilar_edges
from repro.similarity.threshold import SimilarityPredicate


def two_similar_triangles(extra: int = 0) -> AttributedGraph:
    """Two triangles, every vertex sharing the same profile."""
    g = AttributedGraph(6 + extra)
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        g.add_edge(u, v)
    for u in range(6):
        g.set_attribute(u, frozenset({"x", "y"}))
    return g


def assert_matches_fresh(session, k, predicate, backend):
    """Maintained session == fresh session on the current graph.

    Checks results, then (after dropping only the cached results) the
    full re-search over the *maintained* preprocessing caches against
    the fresh session's first query, counter for counter — the same
    contract the edit-stream fuzz dimension enforces.
    """
    maintained = session.enumerate(k, predicate=predicate)
    fresh = KRCoreSession(session.graph, backend=backend)
    want, want_stats = fresh.enumerate(k, predicate=predicate, with_stats=True)
    assert as_sorted_sets(maintained) == as_sorted_sets(want)
    session.drop_results()
    _, redo_stats = session.enumerate(k, predicate=predicate, with_stats=True)
    for name in PARITY_COUNTERS:
        assert getattr(redo_stats, name) == getattr(want_stats, name), name
    assert session.maintenance_stats.errors == 0


class TestIncrementalKCoreUnit:
    """incremental_kcore_update on a survivor mask == full peel."""

    @pytest.mark.parametrize("backend", ["csr"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_full_peel_under_random_edits(self, seed, backend):
        rng = random.Random(seed)
        n = rng.randint(5, 12)
        g0 = AttributedGraph(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    g0.add_edge(i, j)
        k = rng.randint(1, 3)

        g1 = g0.copy()
        adds, rems = [], []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5 and g1.edge_count:
                u, v = rng.choice(sorted(g1.edges()))
                g1.remove_edge(u, v)
                rems.append((u, v))
            else:
                u, v = rng.sample(range(n), 2)
                if g1.add_edge(*sorted((u, v))):
                    adds.append(tuple(sorted((u, v))))

        want = k_core_vertices(g1, k)
        filtered = CSRGraph.from_attributed(g1)
        survivors = np.zeros(n, dtype=bool)
        survivors[sorted(k_core_vertices(g0, k))] = True
        gone, came = incremental_kcore_update(
            filtered, k, survivors, adds, rems
        )
        got = set(np.nonzero(survivors)[0].tolist())
        assert got == want
        # Gross flows cover the net change (they may overlap).
        assert want - set(k_core_vertices(g0, k)) <= came
        assert set(k_core_vertices(g0, k)) - want <= gone

    @pytest.mark.parametrize("backend", ["csr"])
    def test_boundary_degree_deletion_cascades(self, backend):
        # A 4-cycle is exactly 2-regular: removing any edge must peel
        # the whole cycle, discovered from the deleted endpoints alone.
        g1 = AttributedGraph(4, edges=[(1, 2), (2, 3), (0, 3)])
        filtered = CSRGraph.from_attributed(g1)
        survivors = np.ones(4, dtype=bool)
        incremental_kcore_update(filtered, 2, survivors, [], [(0, 1)])
        assert not survivors.any()

    @pytest.mark.parametrize("backend", ["csr"])
    def test_insertion_pulls_in_outside_region(self, backend):
        # Path 0-1-2-3 plus the closing edge 0-3: every vertex reaches
        # degree 2 at once, so the whole cycle joins the 2-core even
        # though only the new edge's endpoints were seeded.
        g1 = AttributedGraph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
        filtered = CSRGraph.from_attributed(g1)
        survivors = np.zeros(4, dtype=bool)
        incremental_kcore_update(filtered, 2, survivors, [(0, 3)], [])
        assert set(np.nonzero(survivors)[0].tolist()) == {0, 1, 2, 3}


class TestLocalComponentsUnit:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_global_components_from_seeds(self, seed):
        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=rng.randint(6, 14), p=0.2)
        member_set = {v for v in g.vertices() if rng.random() < 0.7}
        seeds = sorted(v for v in member_set if rng.random() < 0.5)
        got = local_components(g, seeds, lambda x: x in member_set)
        full = connected_components(g, member_set)
        want = [c for c in full if any(s in c for s in seeds)]
        assert got == want  # same sets, same largest-first order

    def test_seeds_failing_membership_are_skipped(self, two_triangles):
        comps = local_components(
            two_triangles, [0, 3], lambda x: x != 3
        )
        assert comps == [{0, 1, 2}]


class TestCacheRefreshUnits:
    """Refreshed value caches decide like a cache built fresh on the
    edited graph (``csr``) and like the reference front end's scalar
    filter of the edited dict graph (``python``)."""

    @pytest.mark.parametrize("reference", BACKENDS)
    @pytest.mark.parametrize("metric", ("jaccard", "euclidean"))
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_cache_refresh(self, seed, reference, metric):
        rng = random.Random(seed)
        if metric == "euclidean":
            g0 = make_geo_graph(seed, n=9)
            rs = (10.0, 25.0, 60.0)
        else:
            g0 = make_random_attr_graph(seed, n=9)
            rs = (0.25, 0.4, 0.6)
        predicate = SimilarityPredicate(metric, rs[0])
        substrate = CSRGraph.from_attributed
        cache = EdgeSimilarityCache(substrate(g0), predicate)
        g1 = g0.copy()
        kind = rng.choice(("add", "remove", "attribute"))
        if kind == "remove" and g1.edge_count:
            pair = rng.choice(sorted(g1.edges()))
            g1.remove_edge(*pair)
            cache.refresh(substrate(g1))
        elif kind == "add":
            non_edges = [
                (i, j)
                for i in range(g1.vertex_count)
                for j in range(i + 1, g1.vertex_count)
                if not g1.has_edge(i, j)
            ]
            pair = rng.choice(non_edges)
            g1.add_edge(*pair)
            cache.refresh(substrate(g1), added_edges=[pair])
        else:
            u = rng.randrange(g1.vertex_count)
            if metric == "euclidean":
                g1.set_attribute(u, (rng.uniform(0, 50), rng.uniform(0, 50)))
            else:
                g1.set_attribute(u, frozenset(rng.sample("abcdef", 3)))
            cache.refresh(substrate(g1), dirty_vertex=u)

        fresh = EdgeSimilarityCache(substrate(g1), predicate)
        pairs = sorted(tuple(sorted(e)) for e in g1.edges())
        for r in rs:
            if reference == "csr":
                want = fresh.decisions(pairs, r)
            else:
                kept = remove_dissimilar_edges(g1, predicate.with_threshold(r))
                want = [kept.has_edge(*pair) for pair in pairs]
            assert cache.decisions(pairs, r) == want, (kind, r)

    def test_only_the_csr_backend_is_accepted(self):
        g = make_random_attr_graph(0, n=9)
        predicate = SimilarityPredicate("jaccard", 0.3)
        for graph in (g, CSRGraph.from_attributed(g)):
            with pytest.raises(InvalidParameterError):
                EdgeSimilarityCache(graph, predicate, backend="python")
        with pytest.raises(InvalidParameterError):
            EdgeSimilarityCache(g, predicate)
        edges = sorted(g.edges())
        with pytest.raises(InvalidParameterError):
            EdgeSimilarityCache.from_payload(
                CSRGraph.from_attributed(g), predicate,
                {"backend": "python", "edges": [list(e) for e in edges],
                 "values": [0.5] * len(edges)},
            )


class TestSessionMaintenance:
    """Maintained sessions == fresh sessions after boundary edits."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_threshold_exact_attribute_flip(self, backend):
        # jaccard({"x","y"}, {"x"}) == 1/2 == r: the edge must be KEPT
        # (the predicate is >=); dropping to {"p","q"} kills it.  Both
        # flips sit exactly on the decision boundary the maintenance
        # layer re-scores.
        g = two_similar_triangles()
        g.add_edge(2, 3)
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        assert session.set_attribute(3, frozenset({"x"}))
        assert_matches_fresh(session, 2, pred, backend)
        assert session.set_attribute(3, frozenset({"p", "q"}))
        assert_matches_fresh(session, 2, pred, backend)
        assert session.maintenance_stats.maintained == 2
        assert session.maintenance_stats.fallbacks == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_k_degree_boundary_edge_removal(self, backend):
        # Every triangle vertex has degree exactly k=2: removing one
        # edge must cascade the whole component out of the k-core.
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        assert len(session.enumerate(2, predicate=pred)) == 2
        session.remove_edge(0, 1)
        got = session.enumerate(2, predicate=pred)
        assert as_sorted_sets(got) == [[3, 4, 5]]
        assert_matches_fresh(session, 2, pred, backend)
        ms = session.maintenance_stats
        assert ms.maintained == 1
        assert ms.survivors_removed == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolated_vertex_edits(self, backend):
        # Vertex 6 starts isolated and unattributed: wiring it in,
        # giving it an empty profile, and cutting it loose again are all
        # absorbed without fallback.
        g = two_similar_triangles(extra=1)
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        session.add_edge(6, 0)
        assert_matches_fresh(session, 2, pred, backend)
        assert session.set_attribute(6, frozenset())
        assert_matches_fresh(session, 2, pred, backend)
        session.remove_edge(6, 0)
        assert_matches_fresh(session, 2, pred, backend)
        assert session.maintenance_stats.fallbacks == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_edit_sequences_match_fresh(self, seed):
        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=10)
        pred = SimilarityPredicate("jaccard", 0.35)
        for backend in BACKENDS:
            session = KRCoreSession(g, backend=backend)
            session.enumerate(2, predicate=pred)
            for _ in range(4):
                roll = rng.random()
                if roll < 0.4 and session.graph.edge_count:
                    session.remove_edge(
                        *rng.choice(sorted(session.graph.edges()))
                    )
                elif roll < 0.8:
                    u, v = rng.sample(range(10), 2)
                    session.add_edge(*sorted((u, v)))
                else:
                    u = rng.randrange(10)
                    session.set_attribute(
                        u, frozenset(rng.sample("abcdef", 2))
                    )
            assert_matches_fresh(session, 2, pred, backend)

    def test_process_executor_parity_after_edits(self):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend="csr")
        session.enumerate(2, predicate=pred)
        session.remove_edge(0, 1)
        session.add_edge(1, 3)
        serial = session.enumerate(2, predicate=pred)
        session.drop_results()
        pooled = session.enumerate(
            2, predicate=pred, plan={"executor": "process", "workers": 2}
        )
        assert as_sorted_sets(pooled) == as_sorted_sets(serial)
        assert session.maintenance_stats.errors == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_maintenance_disabled_matches_enabled(self, backend):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        on = KRCoreSession(g, backend=backend)
        off = KRCoreSession(g, backend=backend, maintenance=False)
        for s in (on, off):
            s.enumerate(2, predicate=pred)
            s.remove_edge(0, 1)
            s.add_edge(0, 3)
            s.set_attribute(4, frozenset({"x"}))
        res_on = on.enumerate(2, predicate=pred)
        res_off = off.enumerate(2, predicate=pred)
        assert as_sorted_sets(res_on) == as_sorted_sets(res_off)
        assert on.maintenance_stats.maintained > 0
        assert off.maintenance_stats.edits == 0  # layer fully bypassed

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_untouched_components_keep_serving_from_cache(self, backend):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_misses == 2
        session.remove_edge(0, 1)  # kills component {0,1,2} outright
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_hits == 1  # {3,4,5} untouched, served cached
        assert stats.cache_misses == 0


class TestBatchEditSemantics:
    """KRCoreSession.edit: duplicates, cancellations, no-ops."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_then_delete_cancels_exactly(self, backend):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        assert session.edit(add_edges=[(2, 3)], remove_edges=[(2, 3)])
        assert sorted(session.graph.edges()) == sorted(g.edges())
        assert_matches_fresh(session, 2, pred, backend)
        # The cancelled merge-then-split restores the original two
        # component signatures, so both original cached results are
        # evicted at the merge and rebuilt identically at the split.
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_hits == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_edits_count_once(self, backend):
        g = two_similar_triangles()
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, r=0.5)
        assert session.edit(add_edges=[(2, 3), (2, 3), (2, 3)])
        assert session.maintenance_stats.edits == 1  # no-ops never reach it
        assert session.edit(remove_edges=[(2, 3), (2, 3)])
        assert session.maintenance_stats.edits == 2
        assert not session.edit(remove_edges=[(2, 3)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_noop_attribute_reassignment_leaves_caches_alone(self, backend):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        assert not session.set_attribute(0, frozenset({"x", "y"}))
        assert not session.edit(attributes={0: frozenset({"y", "x"})})
        assert session.maintenance_stats.edits == 0
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_hits == 2  # results survived untouched

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_attribute_edit_on_unattributed_vertex(self, backend):
        # Empty-profile vertices: assigning a first (empty) profile is a
        # real edit; re-assigning it is a no-op.
        g = two_similar_triangles(extra=1)
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        assert session.edit(attributes={6: frozenset()})
        assert not session.edit(attributes={6: frozenset()})
        assert_matches_fresh(session, 2, pred, backend)


class TestEvictionSymmetry:
    """Merges evict both predecessors; splits evict the one merged entry."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_evicts_both_predecessor_results(self, backend):
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        assert len(session.enumerate(2, predicate=pred)) == 2
        session.add_edge(2, 3)  # similar bridge: the components merge
        ms = session.maintenance_stats
        assert ms.maintained == 1
        assert ms.components_merged == 1
        assert ms.results_evicted == 2  # BOTH predecessors' entries
        # evicted keys leave the unsaved set too: it would otherwise keep
        # every dead component signature alive until the next save
        assert session.cache_stats()["results"]["unsaved"] == 0
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_misses == 1  # only the merged component
        assert stats.cache_hits == 0
        assert session.cache_stats()["results"]["unsaved"] == 1
        assert_matches_fresh(session, 2, pred, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_split_evicts_the_merged_result(self, backend):
        g = two_similar_triangles()
        g.add_edge(2, 3)
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        evicted_before = session.maintenance_stats.results_evicted
        session.remove_edge(2, 3)
        ms = session.maintenance_stats
        assert ms.components_split == 1
        assert ms.results_evicted - evicted_before == 1  # the merged entry
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_misses == 2  # both halves re-solved
        assert_matches_fresh(session, 2, pred, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_signature_rebuild_evicts_nothing(self, backend):
        # An attribute flip away and back reproduces the original
        # signatures bit for bit; the eviction pass must see zero dead
        # signatures both times the component is rebuilt.
        g = two_similar_triangles()
        pred = SimilarityPredicate("jaccard", 0.5)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, predicate=pred)
        session.set_attribute(3, frozenset({"x"}))   # edge values change,
        session.set_attribute(3, frozenset({"x", "y"}))  # then change back
        assert session.maintenance_stats.results_evicted == 0
        _, stats = session.enumerate(2, predicate=pred, with_stats=True)
        assert stats.cache_hits == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_tiebreak_matches_fresh_after_partial_eviction(self, backend):
        # Regression (shrunken-maintenance-max-tiebreak.json): two
        # components whose maximum cores tie in size.  The cancelling
        # add/remove pair merges and re-splits only the schedule-first
        # component {3,4,5}, killing its "max" entry; were the other
        # component's exact entry left behind, the maximum solver would
        # fold it into the incumbent at batch-formation time and award
        # the size tie to the schedule-*later* component.  Family-wide
        # max eviction keeps the maintained answer fresh-identical.
        g = AttributedGraph(6)
        for u, v in [(1, 2), (3, 4), (4, 5)]:
            g.add_edge(u, v)
        g.set_attribute(0, frozenset({"b0", "b1", "b2"}))
        g.set_attribute(1, frozenset({"b1", "b2"}))
        g.set_attribute(2, frozenset({"b1", "b2"}))
        g.set_attribute(3, frozenset({"b0", "b1", "b2", "p8", "q8"}))
        g.set_attribute(4, frozenset({"b0", "b1", "b2"}))
        g.set_attribute(5, frozenset({"b0", "b1", "b2", "p10"}))
        pred = SimilarityPredicate("jaccard", 0.57)
        session = KRCoreSession(g, backend=backend)
        assert session.maximum(1, predicate=pred) is not None  # warm cache
        session.add_edge(0, 5)
        session.remove_edge(0, 5)
        ms = session.maintenance_stats
        assert ms.errors == 0 and ms.fallbacks == 0
        maintained = session.maximum(1, predicate=pred)
        fresh = KRCoreSession(session.graph, backend=backend)
        want = fresh.maximum(1, predicate=pred)
        assert frozenset(maintained.vertices) == frozenset(want.vertices)


class TestEditStreamHarness:
    """The fuzz dimension that guards maintained-vs-fresh equivalence."""

    def _case(self):
        g = two_similar_triangles()
        return FuzzCase(
            graph=g, k=2, metric="jaccard", r=0.5, mode="enumerate",
            search={"executor": "serial"},
            edits=[("remove_edge", 0, 1)],
        )

    def test_clean_maintenance_passes(self):
        assert run_edit_stream_case(self._case()).ok

    def test_stale_survivors_fault_is_caught(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "stale-survivors")
        result = run_edit_stream_case(self._case())
        assert result.disagreement is not None
        monkeypatch.delenv(FAULT_ENV)
        assert run_edit_stream_case(self._case()).ok

    def test_fingerprint_fault_is_reported(self, monkeypatch):
        # A re-hash that skips the touched bucket leaves the carried
        # fingerprint on the pre-edit graph; the edit stream must say so.
        assert run_edit_stream_case(self._case()).ok
        monkeypatch.setattr(
            csr_module, "rehash_bucket", lambda csr, digests, u: dict(digests)
        )
        result = run_edit_stream_case(self._case())
        assert result.disagreement is not None
        assert result.disagreement.kind == "fingerprint-drift"
        assert "carried" in result.disagreement.detail

    def test_run_case_dispatches_on_edits(self, monkeypatch):
        # run_case must route edit-stream cases to the maintained-vs-
        # fresh differential — under the injected fault the classic
        # checks would pass (both backends equally stale-free on a
        # fresh run) while the maintenance check fails.
        monkeypatch.setenv(FAULT_ENV, "stale-survivors")
        assert run_case(self._case()).disagreement is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_edit_streams_are_clean(self, seed):
        case = sample_edit_stream_case(random.Random(seed))
        result = run_case(case)
        assert result.ok, result.disagreement
