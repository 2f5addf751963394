"""Hypothesis property tests for the (k,r)-core solvers.

Strategy: random small attributed graphs (edge set + per-vertex keyword
sets drawn from a small vocabulary).  Properties:

* soundness — every reported core satisfies Definition 3 (re-verified
  from scratch);
* completeness/maximality — the advanced algorithm returns exactly the
  brute-force oracle's maximal core set;
* problem consistency — the maximum core size equals the largest
  enumerated maximal core;
* bound validity — every size upper bound dominates the true maximum;
* monotonicity — raising k or the similarity threshold never enlarges
  the maximum core.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from conftest import as_sorted_sets, oracle_maximal_cores
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.bounds import color_kcore_bound, kk_prime_bound
from repro.core.config import adv_enum_config
from repro.core.context import Budget
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.graph.attributed_graph import AttributedGraph
from repro.similarity.threshold import SimilarityPredicate

VOCAB = ("a", "b", "c", "d", "e")
SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def attributed_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    ) if possible else []
    g = AttributedGraph(n, edges=edges)
    for u in range(n):
        attr = draw(
            st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=4)
        )
        g.set_attribute(u, attr)
    return g


@st.composite
def problem_instances(draw):
    g = draw(attributed_graphs())
    k = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.sampled_from([0.2, 0.34, 0.5, 0.67, 0.75]))
    return g, k, SimilarityPredicate("jaccard", r)


@SETTINGS
@given(problem_instances())
def test_every_reported_core_satisfies_definition(instance):
    g, k, pred = instance
    for core in enumerate_maximal_krcores(g, k, predicate=pred):
        assert core.verify(g, pred)


@SETTINGS
@given(problem_instances())
def test_advanced_matches_brute_force_oracle(instance):
    g, k, pred = instance
    got = enumerate_maximal_krcores(g, k, predicate=pred)
    assert as_sorted_sets(got) == oracle_maximal_cores(g, k, pred)


@SETTINGS
@given(problem_instances())
def test_maximum_equals_largest_maximal(instance):
    g, k, pred = instance
    cores = enumerate_maximal_krcores(g, k, predicate=pred)
    best = find_maximum_krcore(g, k, predicate=pred)
    want = max((c.size for c in cores), default=0)
    assert (best.size if best else 0) == want


@SETTINGS
@given(problem_instances())
def test_bounds_dominate_true_maximum(instance):
    g, k, pred = instance
    truth = oracle_maximal_cores(g, k, pred)
    for ctx in prepare_components(
        g, k, pred, adv_enum_config(), SearchStats(), Budget(None, None)
    ):
        local_max = max(
            (len(c) for c in truth if set(c) <= set(ctx.vertices)),
            default=0,
        )
        vs = set(ctx.vertices)
        assert kk_prime_bound(ctx, vs) >= local_max
        assert color_kcore_bound(ctx, vs) >= local_max


@SETTINGS
@given(attributed_graphs(), st.sampled_from([0.2, 0.4, 0.6]))
def test_maximum_size_monotone_in_k(g, r):
    pred = SimilarityPredicate("jaccard", r)
    sizes = []
    for k in (1, 2, 3):
        best = find_maximum_krcore(g, k, predicate=pred)
        sizes.append(best.size if best else 0)
    assert sizes == sorted(sizes, reverse=True)


@SETTINGS
@given(attributed_graphs(), st.integers(min_value=1, max_value=2))
def test_maximum_size_monotone_in_r(g, k):
    sizes = []
    for r in (0.2, 0.4, 0.6, 0.8):
        best = find_maximum_krcore(g, k, predicate=SimilarityPredicate("jaccard", r))
        sizes.append(best.size if best else 0)
    # Raising the similarity bar can only shrink cores.
    assert sizes == sorted(sizes, reverse=True)


@SETTINGS
@given(problem_instances())
def test_maximal_cores_pairwise_incomparable(instance):
    g, k, pred = instance
    cores = enumerate_maximal_krcores(g, k, predicate=pred)
    sets = [set(c.vertices) for c in cores]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j:
                assert not a <= b


@SETTINGS
@given(problem_instances())
def test_deterministic_across_runs(instance):
    g, k, pred = instance
    first = as_sorted_sets(enumerate_maximal_krcores(g, k, predicate=pred))
    second = as_sorted_sets(enumerate_maximal_krcores(g, k, predicate=pred))
    assert first == second
