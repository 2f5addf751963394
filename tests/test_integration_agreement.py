"""Cross-algorithm agreement — the central correctness experiment.

Every enumeration algorithm (naive, clique-based, basic, all ablation
stages, advanced with every order) must produce exactly the brute-force
oracle's maximal (k,r)-core set; every maximum algorithm must find a
core of exactly the oracle's maximum size.  Run over a grid of random
graphs, metrics, k and r.
"""

import pytest

from conftest import (
    as_sorted_sets,
    make_geo_graph,
    make_random_attr_graph,
    oracle_maximal_cores,
)
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.config import adv_enum_config
from repro.core.context import Budget
from repro.core.naive import reference_components
from repro.core.session import prepare_components
from repro.core.solver import component_edges_key
from repro.core.stats import SearchStats
from repro.similarity.threshold import SimilarityPredicate

ENUM_ALGORITHMS = (
    "naive", "clique", "basic", "be+cr", "be+cr+et",
    "advanced", "advanced-o", "advanced-p",
)
MAX_ALGORITHMS = (
    "basic", "advanced", "advanced-ub", "advanced-o", "color-kcore",
)
BACKENDS = ("python", "csr")


class TestKeywordGraphs:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_enumeration_agreement(self, seed, k, backend):
        g = make_random_attr_graph(seed, n=9)
        pred = SimilarityPredicate("jaccard", 0.35)
        expected = oracle_maximal_cores(g, k, pred)
        for alg in ENUM_ALGORITHMS:
            got = enumerate_maximal_krcores(
                g, k, predicate=pred, algorithm=alg, backend=backend,
            )
            assert as_sorted_sets(got) == expected, (alg, seed, k, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_maximum_agreement(self, seed, k, backend):
        g = make_random_attr_graph(seed, n=9)
        pred = SimilarityPredicate("jaccard", 0.35)
        expected = oracle_maximal_cores(g, k, pred)
        want = max((len(c) for c in expected), default=0)
        for alg in MAX_ALGORITHMS:
            best = find_maximum_krcore(
                g, k, predicate=pred, algorithm=alg, backend=backend,
            )
            assert (best.size if best else 0) == want, (alg, seed, k, backend)


class TestGeoGraphs:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("r", [10.0, 25.0])
    def test_enumeration_agreement(self, seed, r, backend):
        g = make_geo_graph(seed, n=11, p=0.45)
        pred = SimilarityPredicate("euclidean", r)
        expected = oracle_maximal_cores(g, 2, pred)
        for alg in ENUM_ALGORITHMS:
            got = enumerate_maximal_krcores(
                g, 2, predicate=pred, algorithm=alg, backend=backend,
            )
            assert as_sorted_sets(got) == expected, (alg, seed, r, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_maximum_agreement(self, seed, backend):
        g = make_geo_graph(seed, n=11, p=0.45)
        pred = SimilarityPredicate("euclidean", 18.0)
        expected = oracle_maximal_cores(g, 2, pred)
        want = max((len(c) for c in expected), default=0)
        for alg in MAX_ALGORITHMS:
            best = find_maximum_krcore(
                g, 2, predicate=pred, algorithm=alg, backend=backend,
            )
            assert (best.size if best else 0) == want, (alg, seed, backend)


def _prepared(contexts):
    """Canonical text of prepared components, in their order: vertices,
    similar edges and dissimilar pairs of each."""
    return repr([
        (sorted(ctx.vertices), sorted(component_edges_key(ctx.adj)),
         sorted(ctx.index.pair_key()))
        for ctx in contexts
    ])


def _assert_front_ends_identical(g, k, pred):
    session = prepare_components(
        g, k, pred, adv_enum_config(), SearchStats(), Budget(None, None)
    )
    reference = reference_components(g, k, pred, adv_enum_config())
    assert _prepared(session) == _prepared(reference)


class TestBackendIdentity:
    """The session's front end must prepare *exactly* the reference
    front end's components (same order, edges and dissimilar pairs), and
    the two engines must emit byte-identical outputs from them, on every
    agreement fixture."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_keyword_outputs_byte_identical(self, seed, k):
        g = make_random_attr_graph(seed, n=10)
        pred = SimilarityPredicate("jaccard", 0.35)
        _assert_front_ends_identical(g, k, pred)
        py = enumerate_maximal_krcores(g, k, predicate=pred, backend="python")
        cs = enumerate_maximal_krcores(g, k, predicate=pred, backend="csr")
        assert repr(as_sorted_sets(py)) == repr(as_sorted_sets(cs))

    @pytest.mark.parametrize("seed", range(8))
    def test_geo_outputs_byte_identical(self, seed):
        g = make_geo_graph(seed, n=12, p=0.45)
        pred = SimilarityPredicate("euclidean", 15.0)
        _assert_front_ends_identical(g, 2, pred)
        py = enumerate_maximal_krcores(g, 2, predicate=pred, backend="python")
        cs = enumerate_maximal_krcores(g, 2, predicate=pred, backend="csr")
        assert repr(as_sorted_sets(py)) == repr(as_sorted_sets(cs))


class TestThresholdExtremes:
    @pytest.mark.parametrize("seed", range(5))
    def test_r_zero_reduces_to_pure_kcore(self, seed):
        """At r=0 every pair is similar: the maximal (k,r)-cores are
        exactly the connected components of the plain k-core."""
        from repro.graph.components import connected_components
        from repro.graph.kcore import k_core_vertices

        g = make_random_attr_graph(seed, n=12)
        pred = SimilarityPredicate("jaccard", 0.0)
        k = 2
        got = enumerate_maximal_krcores(g, k, predicate=pred)
        expected = sorted(
            sorted(c) for c in connected_components(
                g, k_core_vertices(g, k),
            )
        )
        assert as_sorted_sets(got) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_impossible_threshold_yields_nothing(self, seed):
        g = make_random_attr_graph(seed, n=10, attrs=2)
        # Distinct 2-subsets can tie at 1.0 only if identical; crank r
        # above 1.0 so nothing is similar.
        pred = SimilarityPredicate("jaccard", 1.01)
        assert enumerate_maximal_krcores(g, 2, predicate=pred) == []
        assert find_maximum_krcore(g, 2, predicate=pred) is None


class TestOverlappingCores:
    def test_shared_vertex_cores(self):
        """Maximal cores may overlap (the Figure 5 bridge shape)."""
        from repro.datasets.planted import planted_bridge_case_study

        study = planted_bridge_case_study(block_size=8, k=3, seed=5)
        for alg in ("advanced", "basic", "clique"):
            got = enumerate_maximal_krcores(
                study.graph, study.k, predicate=study.predicate,
                algorithm=alg,
            )
            assert as_sorted_sets(got) == sorted(
                sorted(c) for c in study.communities
            ), alg


class TestConfigMatrixAgreement:
    """Backend × technique matrix against the oracle.

    Every knob combination must produce the oracle's maximal-core set on
    both engine backends — including the retained-candidate (Theorem 4)
    and search-based maximal-check paths the bitset engines reimplement.
    """

    KNOBS = (
        dict(retain_candidates=False, move_similarity_free=False,
             early_termination=False, maximal_check="pairwise"),
        dict(retain_candidates=True, move_similarity_free=False,
             early_termination=True, maximal_check="search"),
        dict(retain_candidates=True, move_similarity_free=True,
             early_termination=False, maximal_check="search"),
        dict(retain_candidates=True, move_similarity_free=True,
             early_termination=True, maximal_check="pairwise"),
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("knobs", range(len(KNOBS)))
    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_knob_matrix(self, seed, knobs, backend):
        from repro.core.config import adv_enum_config

        g = make_random_attr_graph(seed + 40, n=10)
        pred = SimilarityPredicate("jaccard", 0.35)
        expected = oracle_maximal_cores(g, 2, pred)
        cfg = adv_enum_config(**self.KNOBS[knobs]).evolve(backend=backend)
        got = enumerate_maximal_krcores(g, 2, predicate=pred, config=cfg)
        assert as_sorted_sets(got) == expected, (seed, knobs, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("order", (
        "random", "degree", "delta1", "delta2", "delta1-then-delta2",
        "weighted-delta",
    ))
    @pytest.mark.parametrize("seed", range(3))
    def test_enumeration_order_matrix(self, seed, order, backend):
        from repro.core.config import adv_enum_config

        g = make_random_attr_graph(seed + 60, n=9)
        pred = SimilarityPredicate("jaccard", 0.35)
        expected = oracle_maximal_cores(g, 2, pred)
        cfg = adv_enum_config(order=order, check_order=order).evolve(
            backend=backend
        )
        got = enumerate_maximal_krcores(g, 2, predicate=pred, config=cfg)
        assert as_sorted_sets(got) == expected, (seed, order, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bound", ("naive", "color-kcore", "kkprime"))
    @pytest.mark.parametrize("seed", range(4))
    def test_maximum_bound_matrix(self, seed, bound, backend):
        from repro.core.config import adv_max_config

        g = make_random_attr_graph(seed + 80, n=10)
        pred = SimilarityPredicate("jaccard", 0.35)
        expected = oracle_maximal_cores(g, 2, pred)
        want = max((len(c) for c in expected), default=0)
        cfg = adv_max_config(bound=bound).evolve(backend=backend)
        best = find_maximum_krcore(g, 2, predicate=pred, config=cfg)
        assert (best.size if best else 0) == want, (seed, bound, backend)
