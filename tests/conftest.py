"""Shared test fixtures and oracle helpers.

The test suite validates the solvers three independent ways:

1. ``networkx`` as an oracle for the graph substrate (k-cores, cliques,
   components) — production code never imports it;
2. the bitmask brute-force oracle
   (:func:`repro.core.naive.brute_force_maximal_krcores`) for small
   random graphs, over the dict-stage reference front end
   (:func:`repro.core.naive.reference_components`);
3. cross-algorithm agreement: every named algorithm must produce the
   same result set.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional

import pytest

from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.core.config import SearchConfig, adv_enum_config
from repro.core.context import Budget, ComponentContext
from repro.core.naive import brute_force_maximal_krcores, reference_components
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.similarity.threshold import SimilarityPredicate

BACKENDS = ("python", "csr")

VOCAB = ("a", "b", "c", "d", "e", "f")


def make_random_attr_graph(
    seed: int,
    n: Optional[int] = None,
    p: Optional[float] = None,
    attrs: Optional[int] = None,
) -> AttributedGraph:
    """Small random keyword-attributed graph (deterministic per seed)."""
    rng = random.Random(seed)
    n = n if n is not None else rng.randint(4, 12)
    p = p if p is not None else rng.uniform(0.25, 0.85)
    attrs = attrs if attrs is not None else rng.randint(2, 4)
    g = AttributedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    for i in range(n):
        g.set_attribute(i, frozenset(rng.sample(list(VOCAB), attrs)))
    return g


def make_geo_graph(seed: int, n: int = 12, p: float = 0.5) -> AttributedGraph:
    """Small random geo-attributed graph."""
    rng = random.Random(seed)
    g = AttributedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    for i in range(n):
        g.set_attribute(i, (rng.uniform(0, 50), rng.uniform(0, 50)))
    return g


def oracle_maximal_cores(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
) -> List[List[int]]:
    """Ground-truth maximal (k,r)-cores via the bitmask brute force over
    the reference front end's components."""
    found: List[FrozenSet[int]] = []
    for ctx in reference_components(graph, k, predicate, adv_enum_config()):
        found.extend(brute_force_maximal_krcores(ctx))
    return sorted(sorted(c) for c in found)


def single_component_context(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    config: Optional[SearchConfig] = None,
) -> List[ComponentContext]:
    """Prepared component contexts for white-box tests."""
    stats = SearchStats()
    budget = Budget(None, None)
    return prepare_components(
        graph, k, predicate, config or adv_enum_config(), stats, budget
    )


def solve_enum(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    config: SearchConfig,
    engine: str = "engine",
):
    """``(cores, stats)`` of a one-shot enumeration under ``config``.

    ``engine`` ``"naive"`` / ``"clique"`` runs that baseline instead of
    the configurable engine, on the config's backend and execution plan.
    """
    if engine == "engine":
        return enumerate_maximal_krcores(
            graph, k, predicate=predicate, config=config, with_stats=True
        )
    return enumerate_maximal_krcores(
        graph, k, predicate=predicate, algorithm=engine,
        backend=config.backend, plan=config.plan, with_stats=True,
    )


def solve_max(
    graph: AttributedGraph,
    k: int,
    predicate: SimilarityPredicate,
    config: SearchConfig,
):
    """``(best core or None, stats)`` of a one-shot maximum under ``config``."""
    return find_maximum_krcore(
        graph, k, predicate=predicate, config=config, with_stats=True
    )


def as_sorted_sets(cores) -> List[List[int]]:
    """Canonical form for comparing core collections."""
    return sorted(sorted(c.vertices if hasattr(c, "vertices") else c)
                  for c in cores)


@pytest.fixture(params=BACKENDS)
def graph_backend(request):
    """Convert an :class:`AttributedGraph` to the backend under test.

    ``"python"`` passes the graph through; ``"csr"`` freezes it into a
    :class:`CSRGraph`.  Structural-algorithm tests parametrized over this
    fixture assert both substrates give identical answers.
    """
    if request.param == "csr":
        return CSRGraph.from_attributed
    return lambda graph: graph


@pytest.fixture
def jaccard_half() -> SimilarityPredicate:
    return SimilarityPredicate("jaccard", 0.5)


@pytest.fixture
def two_triangles() -> AttributedGraph:
    """Two similar triangles joined by a dissimilar bridge edge."""
    g = AttributedGraph(6)
    for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        g.add_edge(u, v)
    for u in (0, 1, 2):
        g.set_attribute(u, frozenset({"x", "y"}))
    for u in (3, 4, 5):
        g.set_attribute(u, frozenset({"p", "q"}))
    return g
