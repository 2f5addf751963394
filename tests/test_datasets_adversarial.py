"""Adversarial families: determinism, engineered structure, hardness."""

import random

import pytest

from conftest import solve_enum, solve_max
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.context import Budget
from repro.core.bounds import kk_prime_bound
from repro.core.session import prepare_components
from repro.core.stats import SearchStats
from repro.datasets.adversarial import (
    FAMILIES,
    borderline_predicate_r,
    borderline_r,
    build_instance,
    hardness_score,
    interleaved_predicate_r,
    interleaved_profiles,
    onion_graph,
    ring_of_cliques,
    sample_instance,
)
from repro.exceptions import InvalidParameterError
from repro.graph.io import graph_fingerprint
from repro.similarity.metrics import jaccard


class TestDeterminism:
    """Every family is a pure function of (params, seed)."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_default_build_is_stable(self, name):
        a = build_instance(name)
        b = build_instance(name)
        assert graph_fingerprint(a.graph) == graph_fingerprint(b.graph)
        assert (a.k, a.metric, a.r) == (b.k, b.metric, b.r)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("size", ["tiny", "small"])
    def test_sampled_build_is_stable(self, name, size):
        a = sample_instance(name, random.Random(11), size)
        b = sample_instance(name, random.Random(11), size)
        assert graph_fingerprint(a.graph) == graph_fingerprint(b.graph)
        assert a.params == b.params

    def test_seed_changes_seeded_families(self):
        # Families with rng-driven chords must actually consume the seed.
        a = interleaved_profiles(n=30, vocab=8, window=4, chords=10, seed=1)
        b = interleaved_profiles(n=30, vocab=8, window=4, chords=10, seed=2)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_instance("moebius")
        with pytest.raises(InvalidParameterError):
            sample_instance("moebius", random.Random(0))

    def test_unknown_size_class_rejected(self):
        with pytest.raises(InvalidParameterError):
            FAMILIES["onion"].sample(random.Random(0), "galactic")


class TestOnion:
    """The deep-maximum-tree construction delivers its design contract."""

    def test_token_algebra_separates_layers(self):
        g = onion_graph(layers=3, options=2, group=3, half=1, core_tokens=6)
        inst = build_instance(
            "onion", layers=3, options=2, group=3, half=1, core_tokens=6
        )
        # Same layer, different options: below r.  Cross layer: above.
        same = jaccard(g.attribute(0), g.attribute(3))      # (l0,o0) vs (l0,o1)
        cross = jaccard(g.attribute(0), g.attribute(6))     # (l0,o0) vs (l1,o0)
        assert same < inst.r < cross

    def test_maximal_cores_are_option_selections(self):
        inst = build_instance(
            "onion", layers=2, options=2, group=3, half=1, core_tokens=6
        )
        cores, _ = solve_enum(
            inst.graph, inst.k, inst.predicate(), adv_enum_config()
        )
        # options ** layers selections, all of size layers * group.
        assert len(cores) == 4
        assert {len(c.vertices) for c in cores} == {6}

    def test_maximum_is_one_selection(self):
        inst = build_instance(
            "onion", layers=2, options=2, group=3, half=1, core_tokens=6
        )
        best, stats = solve_max(
            inst.graph, inst.k, inst.predicate(), adv_max_config()
        )
        assert len(best.vertices) == 6
        assert stats.nodes > 1  # the bound cannot close the tree at the root

    def test_kkprime_bound_is_loose_at_the_root(self):
        """The design point: the bound stays far above the true maximum."""
        inst = build_instance("onion", layers=4, options=2, group=6, half=2)
        contexts = prepare_components(
            inst.graph, inst.k, inst.predicate(),
            adv_max_config(backend="python"), SearchStats(), Budget(None, None),
        )
        assert len(contexts) == 1
        ctx = contexts[0]
        true_max = inst.params["layers"] * inst.params["group"]
        root_bound = kk_prime_bound(ctx, set(ctx.vertices))
        assert root_bound >= 1.5 * true_max

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            onion_graph(layers=1)
        with pytest.raises(InvalidParameterError):
            onion_graph(group=3, half=2)


class TestRingOfCliques:
    def test_uncut_ring_is_one_core(self):
        inst = build_instance(
            "ring-of-cliques", cliques=8, clique_size=4, cut_cliques=0
        )
        cores, _ = solve_enum(
            inst.graph, inst.k, inst.predicate(), adv_enum_config()
        )
        assert len(cores) == 1
        assert len(cores[0].vertices) == inst.graph.vertex_count

    def test_diameter_grows_with_cliques(self):
        g = ring_of_cliques(cliques=16, clique_size=4)
        # BFS levels from vertex 0: the ring forces ~cliques/2 hops.
        frontier, seen, levels = {0}, {0}, 0
        while frontier:
            frontier = {
                w for u in frontier for w in g.neighbors(u) if w not in seen
            }
            seen |= frontier
            levels += 1 if frontier else 0
        assert levels >= 8

    def test_cut_cliques_break_the_ring(self):
        inst = build_instance(
            "ring-of-cliques", cliques=9, clique_size=4, cut_cliques=3
        )
        cores, _ = solve_enum(
            inst.graph, inst.k, inst.predicate(), adv_enum_config()
        )
        # Cut cliques are mutually dissimilar: no single whole-ring core.
        assert len(cores) > 1
        assert all(
            len(c.vertices) < inst.graph.vertex_count for c in cores
        )


class TestInterleaved:
    def test_threshold_admits_designed_distance(self):
        params = dict(n=24, vocab=8, window=4, half=2, chords=0)
        g = interleaved_profiles(**params)
        r = interleaved_predicate_r(window=4, dist=1)
        # distance 1 similar, distance 2 not.
        assert jaccard(g.attribute(0), g.attribute(1)) >= r
        assert jaccard(g.attribute(0), g.attribute(2)) < r

    def test_dist_validation(self):
        with pytest.raises(InvalidParameterError):
            interleaved_predicate_r(window=3, dist=3)


class TestBorderline:
    def test_exact_threshold_pairs(self):
        g = borderline_r(n=12, base_tokens=4, chords=0)
        r = borderline_predicate_r(base_tokens=4)
        # Two class-1 vertices sit exactly on the threshold...
        assert jaccard(g.attribute(1), g.attribute(4)) == pytest.approx(r)
        # ...and one dropped base token flips the pair to dissimilar.
        trimmed = frozenset(g.attribute(1)) - {"b0"}
        assert jaccard(trimmed, g.attribute(4)) < r

    def test_empty_attribute_vertices_are_isolated_by_similarity(self):
        g = borderline_r(n=12, base_tokens=4, chords=0, empty_every=4)
        assert g.attribute(0) == frozenset()
        assert jaccard(g.attribute(0), g.attribute(1)) == 0.0
        assert jaccard(g.attribute(0), frozenset()) == 0.0


class TestHardnessScore:
    def test_score_reflects_tree_size(self):
        deep = build_instance("onion", layers=3, options=2, group=5, half=2)
        shallow = build_instance(
            "ring-of-cliques", cliques=6, clique_size=4, cut_cliques=0
        )
        deep_score, deep_stats = hardness_score(deep, mode="maximum")
        shallow_score, _ = hardness_score(shallow, mode="maximum")
        assert deep_score > shallow_score
        assert deep_stats["nodes"] > 0
        assert deep_stats["bound_calls"] > 0

    def test_enumerate_mode_and_validation(self):
        inst = build_instance("borderline", n=12, chords=0)
        score, stats = hardness_score(inst, mode="enumerate")
        assert score >= stats["nodes"] > 0
        with pytest.raises(InvalidParameterError):
            hardness_score(inst, mode="decide")
