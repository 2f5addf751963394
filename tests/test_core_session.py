"""KRCoreSession: one-shot parity, cache semantics, edits, sweeps."""

import random
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import as_sorted_sets, make_geo_graph, make_random_attr_graph
from repro.core.api import (
    enumerate_maximal_krcores,
    find_maximum_krcore,
    krcore_statistics,
)
from repro.core import maintenance
from repro.core.config import basic_enum_config
from repro.core.decomposition import krcore_vertex_memberships
from repro.core.session import KRCoreSession
from repro.core.solver import (
    component_adjacency,
    component_arrays,
    component_edges_key_csr,
    component_index,
    component_sets,
    freeze_graph,
    kcore_survivors,
    max_component_degree,
)
from repro.core.stats import SearchStats
from repro.datasets.geosocial import geosocial_network
from repro.datasets.planted import planted_communities
from repro.exceptions import (
    GraphError,
    InvalidParameterError,
    SearchBudgetExceeded,
)
from repro.fuzz.differential import PARITY_COUNTERS
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.io import graph_fingerprint
from repro.similarity.cache import EdgeSimilarityCache
from repro.similarity.metrics import MetricKind
from repro.similarity.threshold import SimilarityPredicate
from repro.store import GraphStore

BACKENDS = ("python", "csr")


class TestOneShotParity:
    """Session answers must equal the one-shot API on both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_enumerate(self, seed, backend):
        g = make_random_attr_graph(seed, n=11)
        session = KRCoreSession(g, backend=backend)
        for k in (1, 2, 3):
            for r in (0.25, 0.4, 0.6):
                got = session.enumerate(k, r)
                want = enumerate_maximal_krcores(
                    g, k, r, backend=backend,
                )
                assert as_sorted_sets(got) == as_sorted_sets(want), (k, r)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_maximum(self, seed, backend):
        g = make_random_attr_graph(seed, n=11)
        session = KRCoreSession(g, backend=backend)
        for k in (1, 2, 3):
            for r in (0.25, 0.4, 0.6):
                got = session.maximum(k, r)
                want = find_maximum_krcore(g, k, r, backend=backend)
                assert (got.size if got else 0) == \
                    (want.size if want else 0), (k, r)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_geo_metric(self, seed, backend):
        g = make_geo_graph(seed, n=12)
        session = KRCoreSession(g, metric="euclidean", backend=backend)
        for r in (10.0, 25.0, 60.0):
            got = session.enumerate(2, r)
            want = enumerate_maximal_krcores(
                g, 2, r, metric="euclidean", backend=backend,
            )
            assert as_sorted_sets(got) == as_sorted_sets(want)

    def test_statistics_and_memberships(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        assert session.statistics(2, predicate=jaccard_half) == \
            krcore_statistics(two_triangles, 2, predicate=jaccard_half)
        assert session.memberships(2, predicate=jaccard_half) == \
            krcore_vertex_memberships(two_triangles, 2, jaccard_half)

    @pytest.mark.parametrize(
        "algorithm", ("naive", "clique", "basic", "advanced"),
    )
    def test_algorithm_presets(self, algorithm):
        g = make_random_attr_graph(3, n=10)
        session = KRCoreSession(g)
        got = session.enumerate(2, 0.35, algorithm=algorithm)
        want = enumerate_maximal_krcores(g, 2, 0.35, algorithm=algorithm)
        assert as_sorted_sets(got) == as_sorted_sets(want)

    def test_session_level_config_default(self):
        g = make_random_attr_graph(5, n=10)
        cfg = basic_enum_config()
        session = KRCoreSession(g, config=cfg)
        got = session.enumerate(2, 0.35)
        want = enumerate_maximal_krcores(g, 2, 0.35, config=cfg)
        assert as_sorted_sets(got) == as_sorted_sets(want)

    def test_csr_graph_input(self, two_triangles, jaccard_half):
        frozen = CSRGraph.from_attributed(two_triangles)
        session = KRCoreSession(frozen)
        assert as_sorted_sets(session.enumerate(2, predicate=jaccard_half)) \
            == [[0, 1, 2], [3, 4, 5]]
        # The python engine reads the same CSR-prepared components.
        assert as_sorted_sets(
            session.enumerate(2, predicate=jaccard_half, backend="python")
        ) == [[0, 1, 2], [3, 4, 5]]

    def test_missing_threshold(self, two_triangles):
        session = KRCoreSession(two_triangles)
        with pytest.raises(InvalidParameterError):
            session.enumerate(2)

    def test_invalid_k(self, two_triangles):
        session = KRCoreSession(two_triangles)
        with pytest.raises(InvalidParameterError):
            session.enumerate(0, 0.5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_attributeless_vertex_in_structural_core(self, backend):
        # Vertex 3 has no attribute: it survives the *structural* k-core
        # but the edge filter drops all its edges, so it can never enter
        # a filtered component.  Warm queries must not trip over it.
        g = AttributedGraph(4)
        for i in range(4):
            for j in range(i + 1, 4):
                g.add_edge(i, j)
        for u in (0, 1, 2):
            g.set_attribute(u, frozenset({"x", "y"}))
        session = KRCoreSession(g, backend=backend)
        for r in (0.5, 0.4, 0.3):  # 2nd+ queries reuse the edge values
            got = session.enumerate(2, r)
            want = enumerate_maximal_krcores(g, 2, r, backend=backend)
            assert as_sorted_sets(got) == as_sorted_sets(want)


class TestCacheSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeat_query_zero_repreprocessing(self, backend):
        g = make_random_attr_graph(11, n=12)
        session = KRCoreSession(g, backend=backend)
        first, stats1 = session.enumerate(2, 0.35, with_stats=True)
        assert stats1.cache_misses == stats1.components
        assert stats1.cache_hits == 0
        assert stats1.reused_preprocess == 0
        second, stats2 = session.enumerate(2, 0.35, with_stats=True)
        assert as_sorted_sets(second) == as_sorted_sets(first)
        # Zero re-preprocessing and zero re-searching, by the counters:
        assert stats2.reused_preprocess == 1
        assert stats2.cache_hits == stats2.components == stats1.components
        assert stats2.cache_misses == 0
        assert stats2.nodes == 0

    def test_repeat_maximum_cached(self):
        g = make_random_attr_graph(13, n=12)
        session = KRCoreSession(g)
        first, stats1 = session.maximum(2, 0.35, with_stats=True)
        second, stats2 = session.maximum(2, 0.35, with_stats=True)
        assert (first.vertices if first else None) == \
            (second.vertices if second else None)
        assert stats2.cache_misses == 0
        assert stats2.nodes == 0

    def test_maximum_rides_enumeration_preprocessing(self):
        g = make_random_attr_graph(17, n=12)
        session = KRCoreSession(g)
        session.enumerate(2, 0.35)
        _, stats = session.maximum(2, 0.35, with_stats=True)
        assert stats.reused_preprocess == 1  # same prepared components

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_threshold_reuses_filter(self, backend):
        g = make_random_attr_graph(19, n=12)
        session = KRCoreSession(g, backend=backend)
        session.enumerate(2, 0.35)
        _, stats = session.enumerate(3, 0.35, with_stats=True)
        assert stats.reused_filters == 1
        assert stats.seeded_peels == 1  # peel warm-started from k=2

    def test_identical_structure_shares_results_across_r(self, two_triangles):
        # All intra-triangle similarities are 1.0 and the bridge is 0.0:
        # every threshold in (0, 1] induces the same filtered components
        # and the same (empty) dissimilar sets, so the result layer
        # serves later thresholds without re-searching.
        session = KRCoreSession(two_triangles)
        first, stats1 = session.enumerate(2, 0.3, with_stats=True)
        second, stats2 = session.enumerate(2, 0.8, with_stats=True)
        assert as_sorted_sets(second) == as_sorted_sets(first)
        assert stats1.cache_misses == 2
        assert stats2.cache_misses == 0
        assert stats2.cache_hits == 2

    def test_total_stats_accumulates(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.enumerate(2, predicate=jaccard_half)
        session.enumerate(2, predicate=jaccard_half)
        assert session.total_stats.components == 4
        assert session.total_stats.cache_hits == 2

    def test_warm_cache_serves_budgeted_queries(self):
        g = make_random_attr_graph(23, n=12)
        session = KRCoreSession(g)
        full = session.enumerate(2, 0.35)
        # A warm session can serve complete cached results without
        # spending any of the (tiny) budget.
        again = session.enumerate(2, 0.35, node_limit=1)
        assert as_sorted_sets(again) == as_sorted_sets(full)

    def test_cold_budget_raises_with_partial(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        session = KRCoreSession(g)
        with pytest.raises(SearchBudgetExceeded) as exc:
            session.enumerate(2, 0.2, time_limit=1e-9)
        partial_cores, partial_stats = exc.value.partial
        assert isinstance(partial_cores, list)
        assert partial_stats.timed_out


class TestEdits:
    def test_copy_isolates_caller_graph(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.remove_edge(0, 1)
        assert two_triangles.has_edge(0, 1)
        assert as_sorted_sets(session.enumerate(2, predicate=jaccard_half)) \
            == [[3, 4, 5]]

    def test_edit_batch_reports_change(self, two_triangles):
        session = KRCoreSession(two_triangles)
        assert session.edit(remove_edges=[(0, 1)])
        assert not session.edit(remove_edges=[(0, 1)])  # already gone
        assert session.edit(attributes={0: frozenset({"z"})})

    def test_edit_invalidates_only_touched_components(self):
        pc = planted_communities(n_blocks=4, block_size=10, k=3, seed=8)
        session = KRCoreSession(pc.graph)
        _, stats = session.enumerate(
            pc.k, predicate=pc.predicate, with_stats=True,
        )
        solved_initially = stats.cache_misses
        assert solved_initially >= 3
        block0 = sorted(pc.communities[0])
        session.remove_edge(block0[0], block0[1])
        _, stats = session.enumerate(
            pc.k, predicate=pc.predicate, with_stats=True,
        )
        # Only the edited block re-solves; the rest come from cache.
        assert stats.cache_hits >= solved_initially - 2
        assert stats.cache_misses <= 2

    def test_attribute_edit_invalidates_touched_component(self):
        pc = planted_communities(n_blocks=3, block_size=10, k=3, seed=5)
        session = KRCoreSession(pc.graph)
        session.enumerate(pc.k, predicate=pc.predicate)
        u = sorted(pc.communities[0])[0]
        session.set_attribute(u, frozenset({"entirely", "new"}))
        cores, stats = session.enumerate(
            pc.k, predicate=pc.predicate, with_stats=True,
        )
        assert stats.cache_hits >= 1
        want = enumerate_maximal_krcores(
            session.graph, pc.k, predicate=pc.predicate,
        )
        assert as_sorted_sets(cores) == as_sorted_sets(want)

    def test_invalidate_forces_full_resolve(self, two_triangles, jaccard_half):
        session = KRCoreSession(two_triangles)
        session.enumerate(2, predicate=jaccard_half)
        session.invalidate()
        _, stats = session.enumerate(
            2, predicate=jaccard_half, with_stats=True,
        )
        assert stats.cache_misses == 2
        assert stats.cache_hits == 0

    @pytest.mark.parametrize("backend", ["csr", "python"])
    def test_invalidate_refreezes_an_out_of_band_mutation(self, backend):
        g = make_random_attr_graph(5, n=12, p=0.5)
        session = KRCoreSession(g, copy=False, backend=backend)
        before = session.enumerate(2, 0.3)
        u, v = next(iter(g.edges()))
        g.remove_edge(u, v)  # behind the session's back
        g.set_attribute(u, frozenset())
        session.invalidate()
        assert not session.csr.has_edge(u, v)
        assert session.csr.attribute(u) == frozenset()
        want = KRCoreSession(g.copy(), backend=backend).enumerate(2, 0.3)
        assert as_sorted_sets(session.enumerate(2, 0.3)) == as_sorted_sets(want)
        assert as_sorted_sets(want) != as_sorted_sets(before)

    def test_result_cache_bounded(self):
        g = make_random_attr_graph(37, n=12)
        session = KRCoreSession(g, result_cache_limit=4)
        for round_ in range(10):
            session.remove_edge(round_, (round_ + 1) % 12)
            got = session.enumerate(2, 0.35)
            want = enumerate_maximal_krcores(session.graph, 2, 0.35)
            assert as_sorted_sets(got) == as_sorted_sets(want)
            assert len(session._results) <= 4

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_edit_sequences_match_scratch(self, seed, backend):
        rng = random.Random(seed)
        g = make_random_attr_graph(seed, n=12, p=0.4)
        pred = SimilarityPredicate("jaccard", 0.35)
        session = KRCoreSession(g, backend=backend)
        vocab = ["a", "b", "c", "d", "e", "f"]
        for _ in range(8):
            action = rng.random()
            u = rng.randrange(12)
            v = rng.randrange(12)
            if action < 0.4 and u != v:
                session.add_edge(u, v)
            elif action < 0.7 and u != v:
                session.remove_edge(u, v)
            else:
                session.set_attribute(
                    u, frozenset(rng.sample(vocab, rng.randint(2, 4))),
                )
            got = session.enumerate(2, predicate=pred)
            want = enumerate_maximal_krcores(
                session.graph, 2, predicate=pred, backend=backend,
            )
            assert as_sorted_sets(got) == as_sorted_sets(want)
            best = session.maximum(2, predicate=pred)
            scratch = find_maximum_krcore(
                session.graph, 2, predicate=pred, backend=backend,
            )
            assert (best.size if best else 0) == \
                (scratch.size if scratch else 0)


class TestSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grid_matches_one_shot(self, backend):
        g = make_random_attr_graph(29, n=12)
        session = KRCoreSession(g, backend=backend)
        ks = [3, 2]
        rs = [0.5, 0.3]
        rows = session.sweep(ks, rs)
        assert [(row["k"], row["r"]) for row in rows] == \
            [(k, r) for k in ks for r in rs]
        for row in rows:
            direct = krcore_statistics(
                g, row["k"], r=row["r"], backend=backend,
            )
            assert {key: row[key] for key in direct} == direct

    def test_sweep_with_predicate_overrides_threshold(self, two_triangles):
        pred = SimilarityPredicate("jaccard", 0.123)  # r replaced per point
        session = KRCoreSession(two_triangles)
        rows = session.sweep([2], [0.4, 0.6], predicate=pred)
        assert [row["count"] for row in rows] == [2, 2]

    def test_sweep_with_stats_reports_reuse(self):
        g = make_random_attr_graph(31, n=12)
        session = KRCoreSession(g)
        rows, stats = session.sweep([2, 3], [0.3, 0.4, 0.5], with_stats=True)
        assert len(rows) == 6
        assert stats.reused_filters >= 1   # each r's filter shared across k
        assert stats.seeded_peels >= 1     # k=3 peels seeded from k=2

class TestDegradedModes:
    """Anytime / heuristic / top-t query modes (ISSUE 10)."""

    def _graph(self):
        return make_random_attr_graph(2, n=30)

    def test_anytime_untripped_identical_to_exact(self):
        exact = KRCoreSession(self._graph()).maximum(2, 0.3)
        out = KRCoreSession(self._graph()).maximum_outcome(
            2, 0.3, mode="anytime"
        )
        assert out.status == "exact"
        assert out.gap == 0
        assert out.core is not None
        assert out.core.vertices == exact.vertices

    def test_exact_mode_matches_maximum(self):
        session = KRCoreSession(self._graph())
        exact = session.maximum(2, 0.3)
        out = session.maximum_outcome(2, 0.3, mode="exact")
        assert out.status == "exact"
        assert out.core.vertices == exact.vertices

    def test_anytime_budget_returns_incumbent_with_gap(self):
        # cold session: node_limit=1 provably trips on this graph
        out = KRCoreSession(self._graph()).maximum_outcome(
            2, 0.3, mode="anytime", node_limit=1
        )
        assert out.status == "budget"
        assert out.upper_bound >= out.size
        assert out.gap == out.upper_bound - out.size

    def test_exact_mode_still_raises_on_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            KRCoreSession(self._graph()).maximum_outcome(
                2, 0.3, mode="exact", node_limit=1
            )

    def test_heuristic_brackets_exact(self):
        exact = KRCoreSession(self._graph()).maximum(2, 0.3)
        out = KRCoreSession(self._graph()).maximum_outcome(
            2, 0.3, mode="heuristic"
        )
        assert out.status == "heuristic"
        assert out.size <= exact.size <= out.upper_bound

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="mode"):
            KRCoreSession(self._graph()).maximum_outcome(
                2, 0.3, mode="psychic"
            )

    def test_outcome_to_dict_shape(self):
        out = KRCoreSession(self._graph()).maximum_outcome(
            2, 0.3, mode="anytime"
        )
        d = out.to_dict()
        assert d["mode"] == "anytime"
        assert d["status"] == "exact"
        assert d["size"] == len(d["vertices"])
        assert d["gap"] == 0

    def test_top_cores_are_largest_maximal_cores(self):
        session = KRCoreSession(self._graph())
        cores = session.enumerate(2, 0.3)
        out = session.top_cores(2, 0.3, t=3)
        assert out.status == "exact"
        assert out.total_found == len(cores)
        want = sorted(
            cores, key=lambda c: (-c.size, sorted(c.vertices))
        )[:3]
        assert [sorted(c.vertices) for c in out.cores] == \
            [sorted(c.vertices) for c in want]

    def test_top_cores_t_larger_than_found(self):
        session = KRCoreSession(self._graph())
        out = session.top_cores(2, 0.3, t=10 ** 6)
        assert len(out.cores) == out.total_found

    def test_top_cores_bad_t(self):
        session = KRCoreSession(self._graph())
        for bad in (0, -1, True, 1.5):
            with pytest.raises(InvalidParameterError):
                session.top_cores(2, 0.3, t=bad)

    def test_top_cores_budget_returns_partial(self):
        out = KRCoreSession(self._graph()).top_cores(
            2, 0.3, t=3, node_limit=1
        )
        assert out.status == "budget"
        assert isinstance(out.cores, list)

    def test_config_mode_field_drives_default(self):
        cfg = basic_enum_config().evolve(mode="heuristic")
        out = KRCoreSession(self._graph()).maximum_outcome(
            2, 0.3, config=cfg
        )
        assert out.status == "heuristic"


def _weighted_graph(seed: int, n: int = 24, p: float = 0.3) -> AttributedGraph:
    rng = random.Random(seed)
    g = AttributedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    for i in range(n):
        g.set_attribute(i, Counter({
            key: rng.randint(1, 3) for key in rng.sample("abcdef", 3)
        }))
    return g


def _overlap(a, b) -> float:
    """A custom metric: shared keywords."""
    return float(len(a & b))


#: (graph, predicate, k) cases covering every metric family, zero
#: survivors and a single component.
PREPARATION_CASES = {
    "euclidean": (make_geo_graph(3, n=40, p=0.15),
                  SimilarityPredicate("euclidean", 30.0), 2),
    "euclidean-multi": (geosocial_network(1200, seed=2),
                        SimilarityPredicate("euclidean", 5.0), 3),
    "jaccard": (make_random_attr_graph(1, n=40, p=0.3, attrs=3),
                SimilarityPredicate("jaccard", 0.3), 2),
    "weighted-jaccard": (_weighted_graph(7),
                         SimilarityPredicate("weighted_jaccard", 0.3), 2),
    "custom": (make_random_attr_graph(9, n=30, p=0.3),
               SimilarityPredicate(_overlap, 1.0, kind=MetricKind.SIMILARITY),
               2),
    "zero-survivors": (make_geo_graph(4, n=20, p=0.2),
                       SimilarityPredicate("euclidean", 30.0), 15),
    "single-component": (make_geo_graph(6, n=15, p=0.9),
                         SimilarityPredicate("euclidean", 40.0), 3),
}


class TestBatchedPreparation:
    """The csr session's one-pass preparation against the per-component stages."""

    @pytest.mark.parametrize("case", sorted(PREPARATION_CASES))
    def test_matches_per_component_stages(self, case):
        graph, predicate, k = PREPARATION_CASES[case]
        csr = freeze_graph(graph)
        filtered = EdgeSimilarityCache(
            csr, predicate, backend="csr"
        ).filtered_at(predicate.r)
        survivors = kcore_survivors(filtered, k, "csr")
        comps = component_sets(filtered, survivors, "csr")
        batched = component_arrays(csr, predicate, filtered, survivors)
        assert len(batched) == len(comps)
        if case == "zero-survivors":
            assert not comps
        if case == "single-component":
            assert len(comps) == 1
        for arrays, comp in zip(batched, comps):
            assert arrays.verts.tolist() == sorted(comp)
            adj = component_adjacency(filtered, comp, survivors, "csr")
            index = component_index(csr, predicate, comp, "csr")
            assert arrays.edges_key == component_edges_key_csr(
                comp, filtered, survivors
            )
            assert arrays.pair_key() == index.pair_key()
            assert arrays.max_degree == max_component_degree(adj)
            assert arrays.adj == adj
            assert arrays.index.rows() == index.rows()

    @pytest.mark.parametrize("case", sorted(PREPARATION_CASES))
    def test_session_order_and_signatures(self, case):
        graph, predicate, k = PREPARATION_CASES[case]
        session = KRCoreSession(graph, backend="csr")
        parts = session._prepare(k, predicate, SearchStats())
        csr = freeze_graph(graph)
        filtered = EdgeSimilarityCache(
            csr, predicate, backend="csr"
        ).filtered_at(predicate.r)
        survivors = kcore_survivors(filtered, k, "csr")
        want = []
        for comp in component_sets(filtered, survivors, "csr"):
            adj = component_adjacency(filtered, comp, survivors, "csr")
            vertices = frozenset(comp)
            signature = (
                vertices,
                component_edges_key_csr(comp, filtered, survivors),
                component_index(csr, predicate, comp, "csr").pair_key(),
            )
            want.append((signature, max_component_degree(adj)))
        want.sort(key=lambda item: -item[1])
        assert [(p.signature, p.max_degree) for p in parts] == want


class TestLazyComponentForms:
    """Dict adjacency and index exist only where something reads them."""

    def test_unsearched_components_stay_arrays(self):
        graph = geosocial_network(2500, seed=3)
        session = KRCoreSession(graph, metric="euclidean")
        session.statistics(4, 4.9)
        session.maximum(4, 4.9)
        parts = session._prepare(
            4, SimilarityPredicate("euclidean", 4.9), SearchStats()
        )
        assert len(parts) > 1
        # The bitset engines search from the packed arrays alone.
        assert sum(part.arrays.materialised for part in parts) == 0
        assert any(part.bitset is not None for part in parts)
        # A set-form reader (the greedy heuristic) builds them on demand.
        session.maximum_outcome(4, 4.9, mode="heuristic")
        assert all(part.arrays.materialised for part in parts)

    def test_repeat_after_save_load_runs_no_engine(self, tmp_path):
        graph = geosocial_network(2500, seed=3)
        db = str(tmp_path / "store.db")
        with GraphStore(db) as store:
            cold = KRCoreSession(graph, metric="euclidean")
            summary = cold.statistics(4, 4.9)
            best = cold.maximum(4, 4.9)
            cold.save(store, "geo")
        with GraphStore(db) as store:
            warm = KRCoreSession.load(store, "geo", metric="euclidean")
            again, stats = warm.statistics(4, 4.9, with_stats=True)
            core, mstats = warm.maximum(4, 4.9, with_stats=True)
        assert again == summary
        assert sorted(core.vertices) == sorted(best.vertices)
        for st in (stats, mstats):
            assert st.nodes == 0
            assert st.cache_misses == 0
        assert warm._graph is None  # served from the loaded CSR alone


class TestCSRPrimarySession:
    """A CSR-given or loaded session builds its dict graph only on demand."""

    POINTS = [(4, 4.9), (5, 4.0), (4, 3.5)]

    def test_csr_session_never_thaws_for_csr_queries(self, monkeypatch):
        csr = freeze_graph(geosocial_network(2500, seed=3))

        def refuse(self):
            raise AssertionError("a csr query built the dict graph")

        monkeypatch.setattr(CSRGraph, "to_attributed", refuse)
        session = KRCoreSession(csr, metric="euclidean")
        for k, r in self.POINTS:
            session.statistics(k, r)
            session.maximum(k, r)
        assert session._graph is None
        assert krcore_statistics(csr, 4, 4.9, metric="euclidean") == \
            session.statistics(4, 4.9)

    def test_load_stays_lazy_and_edits_match_a_dict_session(self, tmp_path):
        graph = geosocial_network(2500, seed=3)
        db = str(tmp_path / "store.db")
        with GraphStore(db) as store:
            fp = store.save_graph("geo", graph)
            session = KRCoreSession.load(store, "geo", metric="euclidean")
        # The dict-graph session a row-by-row loader used to hand back.
        reference = KRCoreSession(graph, metric="euclidean")
        for k, r in self.POINTS:
            assert session.statistics(k, r) == reference.statistics(k, r)
            assert session.maximum(k, r).size == reference.maximum(k, r).size
        assert session._graph is None

        thawed = session.graph
        assert thawed.vertex_count == graph.vertex_count
        assert sorted(thawed.edges()) == sorted(graph.edges())
        assert all(
            thawed.attribute(u) == graph.attribute(u) for u in graph.vertices()
        )
        assert [thawed.label(u) for u in thawed.vertices()] == [
            graph.label(u) for u in graph.vertices()
        ]
        assert graph_fingerprint(thawed) == fp

        # Edits after the load: maintained exactly as on the dict session.
        u, v = next(iter(graph.edges()))
        w = next(x for x in graph.vertices() if not graph.has_edge(u, x) and x != u)
        edits = [
            {"remove_edges": [(u, v)]},
            {"add_edges": [(u, w)]},
            {"attributes": {v: (1.0, 2.0)}},
        ]
        for edit in edits:
            assert session.edit(**edit) == reference.edit(**edit)
            assert session.maintenance_stats.to_dict() == \
                reference.maintenance_stats.to_dict()
            for k, r in self.POINTS:
                assert session.statistics(k, r) == reference.statistics(k, r)
                got, want = session.maximum(k, r), reference.maximum(k, r)
                assert (got.size if got else 0) == (want.size if want else 0)
        assert session.maintenance_stats.maintained == len(edits)
        assert graph_fingerprint(session.graph) == \
            graph_fingerprint(reference.graph)

    @pytest.mark.parametrize("mode", ["maintained", "recompute", "declined"])
    def test_edits_patch_the_csr_without_a_dict_graph(self, monkeypatch, mode):
        graph = geosocial_network(2500, seed=3)
        reference = KRCoreSession(graph, metric="euclidean")
        u, v = next(iter(graph.edges()))
        w = next(x for x in graph.vertices() if not graph.has_edge(u, x) and x != u)
        edits = [
            {"remove_edges": [(u, v)]},
            {"add_edges": [(u, w)]},
            {"attributes": {v: graph.attribute(w)}},
        ]
        if mode == "declined":
            monkeypatch.setattr(maintenance, "_maintain", lambda *args: False)

        def refuse(self):
            raise AssertionError("an edit built the dict graph")

        session = KRCoreSession(
            freeze_graph(graph), metric="euclidean",
            maintenance=mode != "recompute",
        )
        monkeypatch.setattr(CSRGraph, "to_attributed", refuse)
        for k, r in self.POINTS:
            session.statistics(k, r)
        for edit in edits:
            assert session.edit(**edit) is True
            assert reference.edit(**edit) is True
            for k, r in self.POINTS:
                assert session.statistics(k, r) == reference.statistics(k, r)
        assert session._graph is None
        counts = session.maintenance_stats
        assert (counts.edits, counts.maintained, counts.fallbacks) == {
            "maintained": (3, 3, 0), "recompute": (0, 0, 0),
            "declined": (3, 0, 3),
        }[mode]
        assert csr_fingerprint(session.csr) == graph_fingerprint(reference.graph)

    def test_edit_errors_are_the_dict_graph_errors(self):
        graph = geosocial_network(200, seed=3)
        session = KRCoreSession(freeze_graph(graph), metric="euclidean")
        calls = [
            ("add_edge", (3, 3)), ("add_edge", (0, 200)),
            ("add_edge", (-1, 0)), ("remove_edge", (0, 200)),
            ("remove_edge", (np.int64(1), 0)), ("set_attribute", (200, None)),
        ]
        for name, args in calls:
            with pytest.raises(GraphError) as want:
                getattr(graph.copy(), name)(*args)
            with pytest.raises(GraphError) as got:
                getattr(session, name)(*args)
            assert (type(got.value), str(got.value)) == \
                (type(want.value), str(want.value))
        assert session._graph is None
        assert session.maintenance_stats.edits == 0

    @pytest.mark.parametrize("given", ["dict", "csr"])
    @pytest.mark.parametrize("backend", ["csr", "python"])
    def test_random_edit_stream_keeps_csr_equal_to_the_graph(
        self, given, backend
    ):
        graph = make_geo_graph(7, n=60, p=0.12)
        session = KRCoreSession(
            graph if given == "dict" else freeze_graph(graph),
            metric="euclidean", backend=backend,
        )
        rng = random.Random(11)
        for step in range(60):
            a, b = rng.sample(range(graph.vertex_count), 2)
            roll = rng.random()
            if roll < 0.4:
                session.add_edge(a, b)
            elif roll < 0.8:
                eu, ev = session.csr.edge_array()
                i = rng.randrange(eu.size)
                session.remove_edge(int(eu[i]), int(ev[i]))
            else:
                session.set_attribute(a, session.csr.attribute(b))
            if step % 5 == 0:
                session.statistics(3, 40.0)
        assert session.maintenance_stats.maintained > 0
        want = CSRGraph.from_attributed(session.graph)
        got = session.csr
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert [
            (got.has_attribute(x), got.attribute(x)) for x in got.vertices()
        ] == [
            (want.has_attribute(x), want.attribute(x)) for x in want.vertices()
        ]


def _borderline_geo_graph() -> AttributedGraph:
    """A geo graph with edge (0, 1) exactly 5.0 apart: at r = 5.0 its
    squared length sits in the filter's 1-ulp re-check band."""
    g = make_geo_graph(5, n=30, p=0.45)
    g.add_edge(0, 1)
    g.set_attribute(0, (10.0, 10.0))
    g.set_attribute(1, (13.0, 14.0))
    return g


#: metric name -> (graph, predicate factory, thresholds loosest first).
SEEDING_CASES = {
    "euclidean": (
        _borderline_geo_graph(),
        lambda r: SimilarityPredicate("euclidean", r),
        [30.0, 20.0, 12.0, 5.0],
    ),
    "jaccard": (
        make_random_attr_graph(4, n=30, p=0.4, attrs=3),
        lambda r: SimilarityPredicate("jaccard", r),
        [0.2, 0.35, 0.5, 0.7],
    ),
    "scalar": (
        make_random_attr_graph(6, n=30, p=0.4, attrs=3),
        lambda r: SimilarityPredicate(_overlap, r, kind=MetricKind.SIMILARITY),
        [1.0, 2.0, 3.0],
    ),
}


def _walk_orders(loosest_first):
    tightest_first = loosest_first[::-1]
    interleaved = loosest_first[1::2] + loosest_first[0::2]
    return {
        "loosest-first": loosest_first,
        "tightest-first": tightest_first,
        "interleaved": interleaved,
    }


def _assert_fresh_point(session, graph, k, predicate):
    """``session`` answers ``(k, predicate)`` as a fresh csr session does:
    results, and every parity counter of a full re-search."""
    fresh = KRCoreSession(graph, backend="csr")
    session.drop_results()
    got, got_stats = session.enumerate(k, predicate=predicate, with_stats=True)
    want, want_stats = fresh.enumerate(k, predicate=predicate, with_stats=True)
    assert as_sorted_sets(got) == as_sorted_sets(want), (k, predicate)
    best, best_stats = session.maximum(k, predicate=predicate, with_stats=True)
    ref, ref_stats = fresh.maximum(k, predicate=predicate, with_stats=True)
    assert (best.vertices if best else None) == (ref.vertices if ref else None)
    for name in PARITY_COUNTERS:
        assert getattr(got_stats, name) == getattr(want_stats, name), name
        assert getattr(best_stats, name) == getattr(ref_stats, name), name


def _assert_sizes_recount(session):
    for per_k in session._survivors.values():
        for survivors, size in per_k.values():
            assert size == int(np.count_nonzero(survivors))


class TestThresholdSeeding:
    """A new (k, r) point filters and peels inside a cached looser core."""

    @pytest.mark.parametrize("order", ["loosest-first", "tightest-first",
                                       "interleaved"])
    @pytest.mark.parametrize("metric", sorted(SEEDING_CASES))
    def test_walks_match_fresh_sessions(self, metric, order):
        graph, make, loosest_first = SEEDING_CASES[metric]
        rs = _walk_orders(loosest_first)[order]
        session = KRCoreSession(graph, backend="csr")
        for r in rs:
            for k in (2, 3):
                _assert_fresh_point(session, graph, k, make(r))
        _assert_sizes_recount(session)
        seeds = session.cache_stats()["reused"]["threshold_seeds"]
        if order == "tightest-first":
            assert seeds == 0  # no looser threshold is ever cached first
        else:
            assert seeds > 0
        if order == "loosest-first":
            # Every threshold after the first is filtered inside a core.
            assert seeds == len(rs) - 1
            assert len(session._seeded_filters) == len(rs) - 1

    def test_borderline_pair_decided_like_the_full_filter(self):
        graph, make, _ = SEEDING_CASES["euclidean"]
        session = KRCoreSession(graph, backend="csr")
        session.enumerate(1, predicate=make(30.0))
        _, stats = session.enumerate(1, predicate=make(5.0), with_stats=True)
        assert stats.threshold_seeds == 1
        seeded = session._filtered[
            ((make(5.0).metric, MetricKind.DISTANCE), 5.0)
        ]
        full = EdgeSimilarityCache(
            freeze_graph(graph), make(5.0), backend="csr"
        ).filtered_at(5.0)
        assert full.has_edge(0, 1) and seeded.has_edge(0, 1)

    def test_smaller_k_at_a_seeded_threshold(self):
        graph, make, _ = SEEDING_CASES["euclidean"]
        session = KRCoreSession(graph, backend="csr")
        session.enumerate(3, predicate=make(30.0))
        _, stats = session.enumerate(3, predicate=make(12.0), with_stats=True)
        assert stats.threshold_seeds == 1
        # The restricted graph holds only the k >= 3 core's rows: k = 2
        # has no seed at k' <= 2, so it takes the full filter.
        _, stats = session.enumerate(2, predicate=make(12.0), with_stats=True)
        assert (stats.threshold_seeds, stats.reused_filters) == (0, 0)
        fkey = ((make(12.0).metric, MetricKind.DISTANCE), 12.0)
        assert fkey not in session._seeded_filters
        _assert_fresh_point(session, graph, 2, make(12.0))
        _, stats = session.enumerate(4, predicate=make(12.0), with_stats=True)
        assert stats.reused_filters == 1

    def test_smaller_k_reseeds_from_a_qualifying_core(self):
        graph, make, _ = SEEDING_CASES["euclidean"]
        session = KRCoreSession(graph, backend="csr")
        session.enumerate(2, predicate=make(30.0))
        session.enumerate(4, predicate=make(30.0))
        session.enumerate(4, predicate=make(12.0))
        fkey = ((make(12.0).metric, MetricKind.DISTANCE), 12.0)
        assert session._seeded_filters[fkey] == 4  # smallest core: k' = 4
        _, stats = session.enumerate(2, predicate=make(12.0), with_stats=True)
        assert stats.threshold_seeds == 1
        assert session._seeded_filters[fkey] == 2
        for k in (2, 3, 4):
            _assert_fresh_point(session, graph, k, make(12.0))

    @pytest.mark.parametrize("metric", ["euclidean", "jaccard"])
    def test_edit_drops_seeded_entries(self, metric):
        graph, make, rs = SEEDING_CASES[metric]
        session = KRCoreSession(graph, backend="csr")
        for r in rs[:3]:
            for k in (2, 3):
                session.enumerate(k, predicate=make(r))
                session.maximum(k, predicate=make(r))
        assert session._seeded_filters
        current = session.graph
        u, v = next(iter(current.edges()))
        w = next(
            x for x in current.vertices()
            if x != u and not current.has_edge(u, x)
        )
        edits = [
            {"remove_edges": [(u, v)]},
            {"add_edges": [(u, w)]},
            {"attributes": {v: current.attribute(w)}},
        ]
        for edit in edits:
            assert session.edit(**edit)
            assert not session._seeded_filters
            _assert_sizes_recount(session)
            for r in rs[:3]:
                for k in (2, 3):
                    _assert_fresh_point(session, session.graph, k, make(r))
            assert session._seeded_filters  # re-derived from a kept seed
        assert session.maintenance_stats.fallbacks == 0
        assert session.maintenance_stats.errors == 0
        assert session.maintenance_stats.maintained == len(edits)

    def test_python_engine_shares_the_csr_front_end(self):
        graph, make, rs = SEEDING_CASES["jaccard"]
        session = KRCoreSession(freeze_graph(graph))
        reference = KRCoreSession(graph, backend="csr")
        session.statistics(2, predicate=make(rs[0]))
        _, stats = session.statistics(
            2, predicate=make(rs[0]), backend="python", with_stats=True
        )
        assert stats.reused_preprocess == 1 and stats.cache_misses > 0
        for r in rs[1:]:
            _, stats = session.statistics(
                2, predicate=make(r), backend="python", with_stats=True
            )
            assert stats.threshold_seeds == 1
            assert session.statistics(2, predicate=make(r), backend="python") \
                == reference.statistics(2, predicate=make(r))
        u, v = next(iter(graph.edges()))
        assert session.edit(remove_edges=[(u, v)], attributes={u: frozenset()})
        reference.edit(remove_edges=[(u, v)], attributes={u: frozenset()})
        for r in rs:
            assert session.statistics(2, predicate=make(r), backend="python") \
                == reference.statistics(2, predicate=make(r))
        assert session.maintenance_stats.maintained == 2
        assert session._graph is None

    def test_sweep_computes_loosest_first(self):
        graph, make, rs = SEEDING_CASES["euclidean"]
        ks = [3, 2]
        request = [rs[1], rs[3], rs[0], rs[2]]
        session = KRCoreSession(graph, metric="euclidean", backend="csr")
        rows, stats = session.sweep(ks, request, with_stats=True)
        assert [(row["k"], row["r"]) for row in rows] == \
            [(k, r) for k in ks for r in request]
        for row in rows:
            want = KRCoreSession(graph, metric="euclidean").statistics(
                row["k"], row["r"]
            )
            assert {key: row[key] for key in want} == want
        assert stats.threshold_seeds == len(rs) - 1

    def test_sweep_prefill_computes_loosest_first(self):
        graph, make, rs = SEEDING_CASES["jaccard"]
        session = KRCoreSession(graph, backend="csr")
        serial = KRCoreSession(graph, backend="csr").sweep([2, 3], rs[::-1])
        rows, stats = session.sweep(
            [2, 3], rs[::-1], plan={"executor": "process", "workers": 2},
            with_stats=True,
        )
        assert rows == serial
        assert stats.threshold_seeds == len(rs) - 1


@st.composite
def _seeded_pipeline_case(draw):
    """A graph, a threshold, a looser one, and ``k' <= k``."""
    metric = draw(st.sampled_from(["euclidean", "jaccard"]))
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(2, 28))
    p = draw(st.floats(0.1, 0.8))
    if metric == "euclidean":
        graph = make_geo_graph(seed, n=n, p=p)
        r = draw(st.floats(0.0, 60.0))
        loose = r + draw(st.floats(0.0, 40.0))
    else:
        graph = make_random_attr_graph(seed, n=n, p=p)
        r = draw(st.floats(0.0, 1.0))
        loose = r * draw(st.floats(0.0, 1.0))
    k = draw(st.integers(1, 5))
    return graph, metric, r, loose, k, draw(st.integers(1, k))


class TestSeededPipelineProperty:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_seeded_pipeline_case())
    def test_restricted_filter_and_seeded_peel_match_full(self, case):
        graph, metric, r, loose, k, k0 = case
        csr = freeze_graph(graph)
        predicate = SimilarityPredicate(metric, r)
        cache = EdgeSimilarityCache(csr, predicate, backend="csr")
        full = cache.filtered_at(r)
        survivors = kcore_survivors(full, k, "csr")
        seed = kcore_survivors(cache.filtered_at(loose), k0, "csr")
        restricted = cache.filtered_within(r, seed)
        seeded = kcore_survivors(restricted, k, "csr", seed=seed)
        assert np.array_equal(seeded, survivors)
        got = component_arrays(csr, predicate, restricted, seeded)
        want = component_arrays(csr, predicate, full, survivors)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for name in ("verts", "src", "dst", "pair_i", "pair_j"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert a.edges_key == b.edges_key
            assert a.max_degree == b.max_degree


class TestKValidation:
    """k is a positive int: refused when bool or non-integral."""

    @pytest.mark.parametrize("k", [2.5, True, False, np.bool_(True), "3",
                                   0, -1, float("nan"), float("inf")])
    def test_rejected(self, k):
        session = KRCoreSession(make_random_attr_graph(1, n=10))
        for query in (session.statistics, session.enumerate, session.maximum,
                      session.maximum_outcome, session.memberships):
            with pytest.raises(InvalidParameterError):
                query(k, 0.3)
        with pytest.raises(InvalidParameterError):
            session.sweep([k], [0.3])

    @pytest.mark.parametrize("k", [np.int64(3), 3.0, np.float64(3.0)])
    def test_integral_values_normalise_before_caching(self, k):
        graph = make_random_attr_graph(2, n=14, p=0.6)
        session = KRCoreSession(graph)
        want = KRCoreSession(graph).statistics(3, 0.3)
        assert session.statistics(k, 0.3) == want
        _, stats = session.statistics(3, 0.3, with_stats=True)
        assert stats.reused_preprocess == 1 and stats.cache_misses == 0
        assert all(type(key[2]) is int for key in session._prepared)
        cores = session.enumerate(k, 0.3)
        assert all(type(core.k) is int for core in cores)
        rows = session.sweep([k], [0.3])
        assert type(rows[0]["k"]) is int and rows[0]["k"] == 3
