"""The packed-bitset engine substrate (core.bitops / BitsetComponentContext).

Three layers of coverage:

* word-level kernels against their set-based counterparts on random
  masks and adjacencies (pack/unpack, popcounts, peels, reachability);
* the packed per-component state against the dict-of-sets component
  form it is built from;
* engine-level property tests: on random *planted* instances the bitset
  engines must recover the ground truth and agree exactly with the
  reference engines — the bound values themselves included.
"""

import random

import numpy as np
import pytest

from conftest import (
    as_sorted_sets,
    make_geo_graph,
    make_random_attr_graph,
    single_component_context,
)
from repro.core import bitops
from repro.core.bounds import (
    color_kcore_bound,
    color_kcore_bound_bits,
    compute_bound,
    compute_bound_bits,
    kk_prime_bound,
    kk_prime_bound_bits,
)
from repro.core.config import adv_enum_config, adv_max_config
from repro.core.context import BitsetComponentContext, bitset_context
from repro.core.enumerate import enumerate_component
from repro.core.maximum import find_maximum_in_component
from repro.core.api import enumerate_maximal_krcores, find_maximum_krcore
from repro.datasets.planted import planted_communities
from repro.graph.kcore import anchored_k_core, k_core_vertices
from repro.similarity.index import DissimilarityIndex
from repro.similarity.threshold import SimilarityPredicate


def random_adjacency(rng, n, p):
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def pack_adjacency(adj):
    n = len(adj)
    words = bitops.word_count(n)
    nbr = np.zeros((n, words), dtype=np.uint64)
    for u, nbrs in adj.items():
        for v in nbrs:
            bitops.set_bit(nbr[u], v)
    return nbr, words


class TestWordKernels:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_mask_roundtrip(self, n):
        rng = random.Random(n)
        chosen = sorted(rng.sample(range(n), rng.randint(0, n)))
        words = bitops.word_count(n)
        mask = bitops.mask_from_indices(
            np.array(chosen, dtype=np.int64), words
        )
        assert bitops.members(mask).tolist() == chosen
        assert bitops.popcount(mask) == len(chosen)
        if chosen:
            assert bitops.first_member(mask) == chosen[0]

    def test_set_and_clear_bits(self):
        words = bitops.word_count(130)
        mask = bitops.zeros(words)
        bitops.set_bit(mask, 0)
        bitops.set_bit(mask, 64)
        bitops.set_bit(mask, 129)
        assert bitops.members(mask).tolist() == [0, 64, 129]
        bitops.clear_bits(mask, np.array([64, 129], dtype=np.int64))
        assert bitops.members(mask).tolist() == [0]

    def test_row_popcounts_and_bit_rows(self):
        rng = random.Random(5)
        n = 90
        words = bitops.word_count(n)
        rows = np.zeros((7, words), dtype=np.uint64)
        expected = []
        for i in range(7):
            chosen = rng.sample(range(n), rng.randint(0, n))
            for v in chosen:
                bitops.set_bit(rows[i], v)
            expected.append(len(chosen))
        assert bitops.row_popcounts(rows).tolist() == expected
        bits = bitops.bit_rows(rows, n)
        assert bits.shape == (7, n)
        assert bits.sum(axis=1).tolist() == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_kcore_mask_matches_set_peel(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 80)
        adj = random_adjacency(rng, n, rng.uniform(0.05, 0.3))
        nbr, words = pack_adjacency(adj)
        sub = set(rng.sample(range(n), rng.randint(1, n)))
        within = bitops.mask_from_indices(
            np.array(sorted(sub), dtype=np.int64), words
        )
        for k in (1, 2, 3):
            got = bitops.members(bitops.kcore_mask(nbr, k, within)).tolist()
            want = sorted(k_core_vertices(adj, k, sub))
            assert got == want, (seed, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_anchored_kcore_mask_matches_reference(self, seed):
        rng = random.Random(seed + 100)
        n = rng.randint(6, 70)
        adj = random_adjacency(rng, n, rng.uniform(0.05, 0.3))
        nbr, words = pack_adjacency(adj)
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(1, n - 1)
        anchors, cands = set(verts[:cut]), set(verts[cut:])
        a_mask = bitops.mask_from_indices(
            np.array(sorted(anchors), dtype=np.int64), words
        )
        c_mask = bitops.mask_from_indices(
            np.array(sorted(cands), dtype=np.int64), words
        )
        for k in (1, 2, 3):
            got = bitops.members(
                bitops.anchored_kcore_mask(nbr, k, c_mask, a_mask)
            ).tolist()
            want = sorted(anchored_k_core(adj, k, cands, anchors))
            assert got == want, (seed, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_reach_and_components(self, seed):
        rng = random.Random(seed + 200)
        n = rng.randint(5, 80)
        adj = random_adjacency(rng, n, rng.uniform(0.02, 0.12))
        nbr, words = pack_adjacency(adj)
        sub = set(rng.sample(range(n), rng.randint(1, n)))
        within = bitops.mask_from_indices(
            np.array(sorted(sub), dtype=np.int64), words
        )
        from repro.graph.components import component_of, connected_components

        seed_v = rng.choice(sorted(sub))
        got = bitops.members(
            bitops.reach_mask(nbr, bitops.single_bit(seed_v, words), within)
        ).tolist()
        assert got == sorted(component_of(adj, seed_v, sub))

        pieces = [
            sorted(bitops.members(m).tolist())
            for m in bitops.component_masks(nbr, within)
        ]
        want = [sorted(c) for c in connected_components(adj, sub)]
        assert pieces == want


class TestBitsetComponentContext:
    @pytest.mark.parametrize("seed", range(6))
    def test_packs_component_faithfully(self, seed):
        g = make_random_attr_graph(seed, n=12)
        pred = SimilarityPredicate("jaccard", 0.35)
        for ctx in single_component_context(g, 2, pred, adv_enum_config()):
            b = bitset_context(ctx)
            assert ctx.bitset is b  # cached
            assert b.verts.tolist() == sorted(ctx.vertices)
            assert b.to_vertices(b.full) == ctx.vertices
            for i, u in enumerate(b.verts.tolist()):
                got_nbrs = {
                    b.verts[j] for j in bitops.members(b.nbr[i]).tolist()
                }
                assert got_nbrs == ctx.adj[u]
                got_dis = {
                    b.verts[j] for j in bitops.members(b.dis[i]).tolist()
                }
                assert got_dis == ctx.index.dissimilar_to(u) & ctx.vertices
                # sim row: component minus dissimilar minus self
                got_sim = {
                    b.verts[j] for j in bitops.members(b.sim[i]).tolist()
                }
                want_sim = (
                    set(ctx.vertices) - got_dis - {u}
                )
                assert got_sim == want_sim

    def test_mask_of_roundtrip(self):
        g = make_random_attr_graph(0, n=10)
        pred = SimilarityPredicate("jaccard", 0.35)
        ctx = single_component_context(g, 1, pred, adv_enum_config())[0]
        b = BitsetComponentContext(ctx.vertices, ctx.adj, ctx.index)
        some = set(list(ctx.vertices)[: max(1, len(ctx.vertices) // 2)])
        assert b.to_vertices(b.mask_of(some)) == frozenset(some)


class TestArrayConstructor:
    """``from_arrays`` packs exactly what the dict constructor packs."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_dict_constructor(self, n, seed):
        rng = random.Random(seed * 1000 + n)
        # Non-contiguous original ids: local id i is the i-th smallest.
        verts = np.array(sorted(rng.sample(range(10 * n), n)), dtype=np.int64)
        ids = verts.tolist()
        adj = {u: set() for u in ids}
        rows = {u: set() for u in ids}
        src, dst, pair_i, pair_j = [], [], [], []
        for i in range(n):
            for j in range(i + 1, n):
                roll = rng.random()
                if roll < 0.3:
                    adj[ids[i]].add(ids[j])
                    adj[ids[j]].add(ids[i])
                    src += [i, j]
                    dst += [j, i]
                elif roll < 0.45:
                    rows[ids[i]].add(ids[j])
                    rows[ids[j]].add(ids[i])
                    pair_i.append(i)
                    pair_j.append(j)
        src, dst, pair_i, pair_j = (
            np.array(xs, dtype=np.int64) for xs in (src, dst, pair_i, pair_j)
        )
        packed = BitsetComponentContext.from_arrays(
            verts, src, dst, pair_i, pair_j
        )
        ref = BitsetComponentContext(
            frozenset(ids), adj, DissimilarityIndex(rows)
        )
        assert packed.n == ref.n == n
        assert packed.words == ref.words
        assert np.array_equal(packed.verts, ref.verts)
        for name in ("nbr", "dis", "sim", "full"):
            assert np.array_equal(getattr(packed, name), getattr(ref, name))
        assert packed.local == ref.local


class TestBoundValueEquality:
    """Both bound implementations are pure functions of the node's
    vertex set and must return the same integers (the maximum engines'
    traversals — and therefore results — hinge on this)."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("geo", [False, True])
    def test_kkprime_and_color_bounds_match(self, seed, geo):
        g = (
            make_geo_graph(seed, n=13)
            if geo else make_random_attr_graph(seed, n=13)
        )
        pred = (
            SimilarityPredicate("euclidean", 20.0)
            if geo else SimilarityPredicate("jaccard", 0.35)
        )
        rng = random.Random(seed)
        for ctx in single_component_context(g, 2, pred, adv_max_config()):
            b = bitset_context(ctx)
            verts = sorted(ctx.vertices)
            for _ in range(4):
                sub = set(rng.sample(verts, rng.randint(1, len(verts))))
                mask = b.mask_of(sub)
                assert kk_prime_bound(ctx, sub) == kk_prime_bound_bits(
                    b, ctx, mask
                )
                assert color_kcore_bound(ctx, sub) == color_kcore_bound_bits(
                    b, ctx, mask
                )

    def test_compute_bound_dispatch_matches(self):
        g = make_random_attr_graph(3, n=12)
        pred = SimilarityPredicate("jaccard", 0.35)
        for bound in ("naive", "color-kcore", "kkprime"):
            ctxs = single_component_context(
                g, 2, pred, adv_max_config(bound=bound),
            )
            for ctx in ctxs:
                b = bitset_context(ctx)
                vs = set(ctx.vertices)
                cut = max(1, len(vs) // 3)
                M = set(sorted(vs)[:cut])
                C = vs - M
                assert compute_bound(ctx, M, C) == compute_bound_bits(
                    b, ctx, b.mask_of(M), b.mask_of(C)
                )


class TestPlantedRecovery:
    """Property tests: random planted instances, both engines, exact
    agreement with each other and with the planted ground truth."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["keywords", "geo"])
    def test_enumerate_recovers_plant_on_both_backends(self, seed, kind):
        rng = random.Random(seed)
        plant = planted_communities(
            n_blocks=rng.randint(2, 4),
            block_size=rng.randint(6, 10),
            k=3,
            attribute_kind=kind,
            seed=seed,
        )
        want = sorted(sorted(c) for c in plant.communities)
        for backend in ("python", "csr"):
            got = enumerate_maximal_krcores(
                plant.graph, plant.k, predicate=plant.predicate,
                backend=backend,
            )
            assert as_sorted_sets(got) == want, (seed, kind, backend)

    @pytest.mark.parametrize("seed", range(6))
    def test_maximum_identical_on_both_backends(self, seed):
        rng = random.Random(seed + 50)
        plant = planted_communities(
            n_blocks=rng.randint(2, 4),
            block_size=rng.randint(6, 11),
            k=3,
            seed=seed + 50,
        )
        py = find_maximum_krcore(
            plant.graph, plant.k, predicate=plant.predicate,
            backend="python",
        )
        cs = find_maximum_krcore(
            plant.graph, plant.k, predicate=plant.predicate, backend="csr",
        )
        assert py is not None and cs is not None
        assert py.vertices == cs.vertices
        assert len(py.vertices) == max(len(c) for c in plant.communities)

    @pytest.mark.parametrize("seed", range(8))
    def test_engine_level_agreement_on_random_components(self, seed):
        g = make_random_attr_graph(seed + 300, n=12)
        pred = SimilarityPredicate("jaccard", 0.3)
        py_ctxs = single_component_context(
            g, 2, pred, adv_enum_config(backend="python"),
        )
        cs_ctxs = single_component_context(
            g, 2, pred, adv_enum_config(backend="csr"),
        )
        py_cores = [
            core for ctx in py_ctxs for core in enumerate_component(ctx)
        ]
        cs_cores = [
            core for ctx in cs_ctxs for core in enumerate_component(ctx)
        ]
        # Same cores in the same emission order (identical traversal).
        assert py_cores == cs_cores

        py_best = [
            find_maximum_in_component(ctx) for ctx in single_component_context(
                g, 2, pred, adv_max_config(backend="python"),
            )
        ]
        cs_best = [
            find_maximum_in_component(ctx) for ctx in single_component_context(
                g, 2, pred, adv_max_config(backend="csr"),
            )
        ]
        assert py_best == cs_best


class TestVertexLimitFallback:
    def test_oversized_components_fall_back_to_set_engine(self, monkeypatch):
        """Above BITSET_VERTEX_LIMIT the csr backend must not pack the
        O(n^2/8) matrices — it silently runs the (result-identical)
        set engines instead."""
        import repro.core.context as ctxmod

        g = make_random_attr_graph(9, n=12)
        pred = SimilarityPredicate("jaccard", 0.35)
        want = as_sorted_sets(
            enumerate_maximal_krcores(g, 2, predicate=pred, backend="csr")
        )
        monkeypatch.setattr(ctxmod, "BITSET_VERTEX_LIMIT", 2)
        ctxs = single_component_context(
            g, 2, pred, adv_enum_config(backend="csr"),
        )
        got = [
            core for ctx in ctxs for core in enumerate_component(ctx)
        ]
        assert as_sorted_sets(got) == want
        assert all(ctx.bitset is None for ctx in ctxs)  # never packed
