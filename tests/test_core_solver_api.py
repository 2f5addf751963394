"""Solver orchestration and the public API surface."""

import pytest

from conftest import as_sorted_sets, make_random_attr_graph
from repro.core.api import (
    enumerate_maximal_krcores,
    find_maximum_krcore,
    krcore_statistics,
)
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.naive import reference_components
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.core.context import Budget
from repro.exceptions import (
    InvalidParameterError,
    SearchBudgetExceeded,
)
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate


class TestPrepareComponents:
    def test_k_must_be_positive(self):
        g = AttributedGraph(2)
        pred = SimilarityPredicate("jaccard", 0.5)
        with pytest.raises(InvalidParameterError):
            prepare_components(
                g, 0, pred, adv_enum_config(), SearchStats(), Budget(None, None)
            )

    def test_components_counted(self, two_triangles, jaccard_half):
        stats = SearchStats()
        ctxs = prepare_components(
            two_triangles, 2, jaccard_half, adv_enum_config(),
            stats, Budget(None, None),
        )
        # The dissimilar bridge edge is removed first, so two components.
        assert len(ctxs) == 2
        assert stats.components == 2

    def test_component_adjacency_restricted(self, two_triangles, jaccard_half):
        ctxs = prepare_components(
            two_triangles, 2, jaccard_half, adv_enum_config(),
            SearchStats(), Budget(None, None),
        )
        for ctx in ctxs:
            for u, nbrs in ctx.adj.items():
                assert nbrs <= set(ctx.vertices)

    def test_empty_graph(self):
        g = AttributedGraph(0)
        pred = SimilarityPredicate("jaccard", 0.5)
        assert prepare_components(
            g, 2, pred, adv_enum_config(), SearchStats(), Budget(None, None)
        ) == []

    def test_backends_prepare_the_same_components(self):
        # The session's front end against the dict-stage reference.
        g = make_random_attr_graph(17, n=12, p=0.6)
        pred = SimilarityPredicate("jaccard", 0.3)
        by_front_end = {}
        for name, ctxs in (
            ("session", prepare_components(
                g, 2, pred, adv_enum_config(), SearchStats(),
                Budget(None, None),
            )),
            ("reference", reference_components(g, 2, pred, adv_enum_config())),
        ):
            by_front_end[name] = sorted(
                (sorted(ctx.vertices), sorted(
                    (u, sorted(nbrs)) for u, nbrs in ctx.adj.items()
                ), sorted(ctx.index.pair_key()))
                for ctx in ctxs
            )
        assert by_front_end["session"] == by_front_end["reference"]
        assert by_front_end["session"]  # non-trivial fixture

    @pytest.mark.parametrize("backend", ("python", "csr"))
    def test_components_ordered_by_max_degree(self, backend):
        # "python": the reference front end; "csr": the session's.
        # A dense 5-block and a triangle, attribute-identical: the dense
        # block must come first (the Section 6.1 seeding rule).
        g = AttributedGraph(8)
        for i in range(5):
            for j in range(i + 1, 5):
                g.add_edge(i, j)
        for u, v in [(5, 6), (6, 7), (5, 7)]:
            g.add_edge(u, v)
        for u in g.vertices():
            g.set_attribute(u, frozenset({"s"}))
        pred = SimilarityPredicate("jaccard", 0.1)
        if backend == "python":
            ctxs = reference_components(g, 2, pred, adv_enum_config())
        else:
            ctxs = prepare_components(
                g, 2, pred, adv_enum_config(), SearchStats(),
                Budget(None, None),
            )
        degrees = [
            max(len(nbrs) for nbrs in ctx.adj.values()) for ctx in ctxs
        ]
        assert degrees == sorted(degrees, reverse=True)


class TestEnumerateAPI:
    def test_r_and_metric(self, two_triangles):
        cores = enumerate_maximal_krcores(
            two_triangles, 2, 0.5, metric="jaccard",
        )
        assert as_sorted_sets(cores) == [[0, 1, 2], [3, 4, 5]]

    def test_predicate_overrides(self, two_triangles, jaccard_half):
        cores = enumerate_maximal_krcores(
            two_triangles, 2, predicate=jaccard_half,
        )
        assert len(cores) == 2

    def test_missing_r_and_predicate(self, two_triangles):
        with pytest.raises(InvalidParameterError):
            enumerate_maximal_krcores(two_triangles, 2)

    def test_unknown_algorithm(self, two_triangles, jaccard_half):
        with pytest.raises(InvalidParameterError):
            enumerate_maximal_krcores(
                two_triangles, 2, predicate=jaccard_half, algorithm="wat",
            )

    def test_results_sorted_by_size_desc(self):
        g = make_random_attr_graph(17, n=12)
        pred = SimilarityPredicate("jaccard", 0.3)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        sizes = [c.size for c in cores]
        assert sizes == sorted(sizes, reverse=True)

    def test_with_stats(self, two_triangles, jaccard_half):
        cores, stats = enumerate_maximal_krcores(
            two_triangles, 2, predicate=jaccard_half, with_stats=True,
        )
        assert stats.components == 2
        assert stats.elapsed >= 0.0

    def test_all_results_verify(self):
        g = make_random_attr_graph(23, n=12)
        pred = SimilarityPredicate("jaccard", 0.3)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        for core in cores:
            assert core.verify(g, pred)

    def test_no_cores_when_constraints_impossible(self, two_triangles):
        cores = enumerate_maximal_krcores(
            two_triangles, 4, 0.5, metric="jaccard",
        )
        assert cores == []


class TestMaximumAPI:
    def test_returns_none_when_no_core(self, two_triangles):
        assert find_maximum_krcore(two_triangles, 4, 0.5) is None

    def test_matches_enumeration(self):
        g = make_random_attr_graph(31, n=12)
        pred = SimilarityPredicate("jaccard", 0.3)
        cores = enumerate_maximal_krcores(g, 2, predicate=pred)
        best = find_maximum_krcore(g, 2, predicate=pred)
        expected = max((c.size for c in cores), default=0)
        assert (best.size if best else 0) == expected

    def test_with_stats(self, two_triangles, jaccard_half):
        best, stats = find_maximum_krcore(
            two_triangles, 2, predicate=jaccard_half, with_stats=True,
        )
        assert best.size == 3
        assert stats.nodes >= 1

    def test_component_skipping(self):
        # Once a core as large as the remaining components is found,
        # those components are skipped wholesale.
        g = AttributedGraph(9)
        # Big clique of 5 + small triangle + another triangle.
        for i in range(5):
            for j in range(i + 1, 5):
                g.add_edge(i, j)
        g.add_edge(5, 6)
        g.add_edge(6, 7)
        g.add_edge(5, 7)
        for u in g.vertices():
            g.set_attribute(u, frozenset({"s"}))
        pred = SimilarityPredicate("jaccard", 0.1)
        best, stats = find_maximum_krcore(
            g, 2, predicate=pred, with_stats=True,
        )
        assert best.size == 5


class TestBudgets:
    def test_time_budget_raises_with_partial(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        pred = SimilarityPredicate("jaccard", 0.2)
        cfg = adv_enum_config(time_limit=1e-9)
        with pytest.raises(SearchBudgetExceeded) as exc:
            enumerate_maximal_krcores(g, 2, predicate=pred, config=cfg)
        partial_cores, partial_stats = exc.value.partial
        assert isinstance(partial_cores, list)
        assert partial_stats.timed_out

    def test_node_budget_partial_mode(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        pred = SimilarityPredicate("jaccard", 0.2)
        cfg = adv_enum_config(node_limit=1, on_budget="partial")
        cores, stats = enumerate_maximal_krcores(
            g, 2, predicate=pred, config=cfg, with_stats=True,
        )
        assert stats.timed_out

    def test_time_limit_kwarg(self, two_triangles, jaccard_half):
        # A generous limit must not interfere.
        cores = enumerate_maximal_krcores(
            two_triangles, 2, predicate=jaccard_half, time_limit=60,
        )
        assert len(cores) == 2

    def test_max_budget_partial(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        pred = SimilarityPredicate("jaccard", 0.2)
        cfg = adv_max_config(node_limit=1, on_budget="partial")
        best, stats = find_maximum_krcore(
            g, 2, predicate=pred, config=cfg, with_stats=True,
        )
        assert stats.timed_out


class TestStatisticsAPI:
    def test_statistics(self, two_triangles, jaccard_half):
        stats = krcore_statistics(
            two_triangles, 2, predicate=jaccard_half,
        )
        assert stats == {"count": 2, "max_size": 3, "avg_size": 3.0}

    def test_statistics_empty(self, two_triangles, jaccard_half):
        stats = krcore_statistics(two_triangles, 5, predicate=jaccard_half)
        assert stats["count"] == 0

    @pytest.mark.parametrize("backend", ("python", "csr"))
    @pytest.mark.parametrize("algorithm", ("basic", "advanced", "naive"))
    def test_parity_with_sister_entry_points(self, algorithm, backend):
        # krcore_statistics accepts the same algorithm/backend surface as
        # enumerate_maximal_krcores and summarises the same cores.
        from repro.core.results import summarize_cores

        g = make_random_attr_graph(41, n=11)
        pred = SimilarityPredicate("jaccard", 0.3)
        summary = krcore_statistics(
            g, 2, predicate=pred, algorithm=algorithm, backend=backend,
        )
        cores = enumerate_maximal_krcores(
            g, 2, predicate=pred, algorithm=algorithm, backend=backend,
        )
        assert summary == summarize_cores(cores)

    def test_with_stats(self, two_triangles, jaccard_half):
        summary, stats = krcore_statistics(
            two_triangles, 2, predicate=jaccard_half, with_stats=True,
        )
        assert summary["count"] == 2
        assert isinstance(stats, SearchStats)
        assert stats.components == 2

    def test_node_limit_partial_mode(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        pred = SimilarityPredicate("jaccard", 0.2)
        cfg = adv_enum_config(on_budget="partial")
        summary, stats = krcore_statistics(
            g, 2, predicate=pred, config=cfg, node_limit=1, with_stats=True,
        )
        assert stats.timed_out

    def test_node_limit_raises(self):
        g = make_random_attr_graph(7, n=14, p=0.8)
        pred = SimilarityPredicate("jaccard", 0.2)
        with pytest.raises(SearchBudgetExceeded):
            krcore_statistics(g, 2, predicate=pred, node_limit=1)
