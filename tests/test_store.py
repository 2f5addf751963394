"""Persistent graph store: codecs, staleness guards, warm-start parity."""

import sqlite3

import pytest

from conftest import as_sorted_sets, make_geo_graph, make_random_attr_graph
from repro.core.config import SearchConfig
from repro.core.session import KRCoreSession
from repro.exceptions import StoreError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_fingerprint
from repro.similarity.metrics import _METRIC_NAMES
from repro.store import GraphStore, codec

BACKENDS = ("python", "csr")


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "store.db")


def dense_similar_graph(n=8):
    """Complete graph, identical set profiles: every (k, r) grid point
    up to k = n - 1 has a surviving component, so result-cache traffic
    is guaranteed."""
    g = AttributedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
        g.set_attribute(i, frozenset({"a", "b"}))
    return g


def small_attr_graph():
    g = AttributedGraph(5, edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    g.set_attribute(0, frozenset({"a", "b"}))
    g.set_attribute(1, frozenset({"a", "b"}))
    g.set_attribute(2, frozenset({"a"}))
    g.set_attribute(3, {"x": 2, "y": 1.5})
    # vertex 4 is isolated and attributeless on purpose
    return g


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------

class TestCodec:
    @pytest.mark.parametrize("value", [
        frozenset(),
        frozenset({"a", "b"}),
        frozenset({1, 2, "x"}),
        {},
        {"a": 2, "b": 1.5},
        (1.0, -2.5),
    ])
    def test_attribute_round_trip(self, value):
        back = codec.decode_attribute(codec.encode_attribute(value))
        if isinstance(value, tuple):
            assert back == value
        else:
            assert back == value
            assert type(back) in (frozenset, dict)

    def test_attribute_encoding_is_canonical(self):
        a = codec.encode_attribute({"b": 1, "a": 2})
        b = codec.encode_attribute(dict([("a", 2), ("b", 1)]))
        assert a == b

    def test_unpersistable_attribute_rejected(self):
        with pytest.raises(StoreError):
            codec.encode_attribute(object())

    def test_metric_names(self):
        for name, fn in _METRIC_NAMES.items():
            assert codec.metric_name(fn) == name
        with pytest.raises(StoreError):
            codec.metric_name(lambda a, b: 1.0)

    def test_config_round_trip(self):
        cfg = SearchConfig()
        assert codec.decode_config(codec.encode_config(cfg)) == cfg

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_live_result_entries_round_trip(self, backend):
        # encode/decode the exact keys and values a session produces
        g = make_random_attr_graph(1, n=10)
        s = KRCoreSession(g, backend=backend)
        s.enumerate(2, 0.3)
        s.maximum(2, 0.3)
        s.maximum(3, 0.5)
        assert s._results
        for key, value in s._results.items():
            text = codec.encode_result_key(key)
            assert codec.decode_result_key(text) == key
            back = codec.decode_result_value(
                codec.encode_result_value(key, value)
            )
            if key[0] == "enum":
                assert back == value
            else:
                assert back[0] == value[0]
                assert back[1] == value[1]

    def test_edit_round_trip(self):
        text = codec.encode_edit(
            [(0, 1)], [(2, 3)], {4: frozenset({"q"}), 5: {"x": 2}},
        )
        back = codec.decode_edit(text)
        assert back["add_edges"] == [(0, 1)]
        assert back["remove_edges"] == [(2, 3)]
        assert back["attributes"] == {4: frozenset({"q"}), 5: {"x": 2}}


# ----------------------------------------------------------------------
# GraphStore
# ----------------------------------------------------------------------

class TestGraphStore:
    def test_graph_round_trip(self, db):
        g = small_attr_graph()
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
            assert fp == graph_fingerprint(g)
            g2 = store.load_graph("g")
        assert g2.vertex_count == g.vertex_count
        assert sorted(map(sorted, g2.edges())) == sorted(map(sorted, g.edges()))
        assert graph_fingerprint(g2) == fp
        assert not g2.has_attribute(4)

    def test_missing_graph_raises(self, db):
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("nope")
            with pytest.raises(StoreError):
                store.fingerprint("nope")

    def test_list_and_delete(self, db):
        with GraphStore(db) as store:
            store.save_graph("a", small_attr_graph())
            store.save_graph("b", make_random_attr_graph(0, n=6))
            names = [row["name"] for row in store.list_graphs()]
            assert names == ["a", "b"]
            assert store.has_graph("a")
            store.delete_graph("a")
            assert not store.has_graph("a")
            assert [row["name"] for row in store.list_graphs()] == ["b"]

    def test_tampered_rows_refused(self, db):
        with GraphStore(db) as store:
            store.save_graph("g", small_attr_graph())
        raw = sqlite3.connect(db)
        raw.execute(
            "DELETE FROM edges WHERE rowid IN "
            "(SELECT rowid FROM edges WHERE graph='g' LIMIT 1)"
        )
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("g")

    def test_csr_round_trip_and_staleness(self, db):
        g = small_attr_graph()
        csr = CSRGraph.from_attributed(g)
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
            store.save_csr("g", csr, fp)
            back = store.load_csr("g", g)
            assert back is not None
            assert back.vertex_count == csr.vertex_count
            assert back.edge_count == csr.edge_count
            # advancing the stored fingerprint makes the CSR stale
            g.add_edge(3, 4)
            store.save_graph("g", g)
            assert store.load_csr("g", g) is None

    def test_results_keyed_by_fingerprint(self, db):
        with GraphStore(db) as store:
            fp = store.save_graph("g", small_attr_graph())
            store.save_results("g", [("k1", "v1"), ("k2", "v2")], fp)
            assert store.load_results("g") == [("k1", "v1"), ("k2", "v2")]
            assert store.result_count("g") == 2
            # rows written under a different fingerprint are never served
            store.save_results("g", [("k3", "v3")], "deadbeef")
            assert store.load_results("g") == [("k1", "v1"), ("k2", "v2")]
            store.prune("g")
            assert store.result_count("g") == 2

    def test_record_edit_patches_and_invalidates(self, db):
        g = small_attr_graph()
        with GraphStore(db) as store:
            fp0 = store.save_graph("g", g)
            store.save_results("g", [("k", "v")], fp0)
            g.add_edge(3, 4)
            g.set_attribute(4, frozenset({"z"}))
            fp1 = graph_fingerprint(g)
            seq = store.record_edit(
                "g",
                codec.encode_edit([(3, 4)], [], {4: frozenset({"z"})}),
                fp1,
                add_edges=[(3, 4)],
                remove_edges=[],
                attributes={4: frozenset({"z"})},
            )
            assert seq == 1
            assert store.fingerprint("g") == fp1
            g2 = store.load_graph("g")
            assert graph_fingerprint(g2) == fp1
            # pre-edit results stop being served immediately
            assert store.load_results("g") == []
            log = store.edit_log("g")
            assert len(log) == 1
            assert log[0]["seq"] == 1
            assert log[0]["edit"]["add_edges"] == [(3, 4)]

    def test_schema_version_mismatch_rebuilds(self, db):
        with GraphStore(db) as store:
            store.save_graph("g", small_attr_graph())
        raw = sqlite3.connect(db)
        raw.execute("UPDATE meta SET value='0' WHERE key='schema_version'")
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            assert store.list_graphs() == []

    def test_stats_counts_rows(self, db):
        with GraphStore(db) as store:
            store.save_graph("g", small_attr_graph())
            stats = store.stats()
            assert stats["graphs"] == 1
            assert stats["edges"] == 4

    def test_memory_store(self):
        with GraphStore(":memory:") as store:
            fp = store.save_graph("g", small_attr_graph())
            assert store.fingerprint("g") == fp


# ----------------------------------------------------------------------
# Session persistence: cold-vs-warm equivalence
# ----------------------------------------------------------------------

GRID = [(2, 0.25), (2, 0.4), (3, 0.3)]


class TestSessionPersistence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_is_equivalent_and_free(self, db, backend, seed):
        g = make_random_attr_graph(seed, n=11)
        cold_answers = {}
        cold_work = {}
        with GraphStore(db) as store:
            cold = KRCoreSession(g, backend=backend)
            for k, r in GRID:
                cores, cstats = cold.enumerate(k, r, with_stats=True)
                best = cold.maximum(k, r)
                cold_answers[(k, r)] = (
                    as_sorted_sets(cores),
                    sorted(best.vertices) if best else None,
                )
                cold_work[(k, r)] = cstats.cache_hits + cstats.cache_misses
            cold.save(store, "g")

        # fresh process stand-in: new store handle, session rebuilt from disk
        with GraphStore(db) as store:
            warm = KRCoreSession.load(store, "g", backend=backend)
            for k, r in GRID:
                cores, stats = warm.enumerate(k, r, with_stats=True)
                assert stats.nodes == 0, "warm enumerate ran the engine"
                assert stats.cache_misses == 0
                if cold_work[(k, r)]:
                    assert stats.cache_hits > 0
                best, mstats = warm.maximum(k, r, with_stats=True)
                assert mstats.nodes == 0, "warm maximum ran the engine"
                got = (
                    as_sorted_sets(cores),
                    sorted(best.vertices) if best else None,
                )
                assert got == cold_answers[(k, r)], (k, r)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_sweep_matches_cold(self, db, backend):
        g = make_geo_graph(2, n=12)
        ks, rs = [2, 3], [15.0, 40.0]
        with GraphStore(db) as store:
            cold = KRCoreSession(g, metric="euclidean", backend=backend)
            cold_rows = cold.sweep(ks, rs)
            cold.save(store, "g")
        with GraphStore(db) as store:
            warm = KRCoreSession.load(
                store, "g", metric="euclidean", backend=backend,
            )
            warm_rows, stats = warm.sweep(ks, rs, with_stats=True)
            assert warm_rows == cold_rows
            assert stats.nodes == 0
            assert stats.cache_misses == 0

    def test_fingerprint_mismatch_refuses_results(self, db):
        g = make_random_attr_graph(4, n=10)
        with GraphStore(db) as store:
            cold = KRCoreSession(g)
            cold.enumerate(2, 0.3)
            cold.save(store, "g")
            assert store.result_count("g") > 0
            # the stored graph moves on without the session noticing
            g2 = cold.graph
            fp = graph_fingerprint(g2)
            store.record_edit(
                "g", codec.encode_edit([], [], {0: frozenset({"new"})}),
                "0" * 64,
                add_edges=[], remove_edges=[],
                attributes={0: frozenset({"new"})},
            )
            del fp, g2
        with GraphStore(db) as store:
            # rebuilt graph no longer matches its stored fingerprint
            with pytest.raises(StoreError):
                KRCoreSession.load(store, "g")

    def test_post_edit_warm_session_recomputes(self, db):
        g = dense_similar_graph(8)
        with GraphStore(db) as store:
            cold = KRCoreSession(g)
            cold.enumerate(2, 0.3)
            cold.save(store, "g")
            # a legitimate edit advances the fingerprint: old results die
            changed = cold.edit(attributes={0: frozenset({"edited"})})
            assert changed
            fp = graph_fingerprint(cold.graph)
            store.record_edit(
                "g", codec.encode_edit([], [], {0: frozenset({"edited"})}),
                fp,
                add_edges=[], remove_edges=[],
                attributes={0: frozenset({"edited"})},
            )
            warm = KRCoreSession.load(store, "g")
            assert warm.cache_stats()["results"]["size"] == 0
            want = as_sorted_sets(cold.enumerate(2, 0.3))
            got = warm.enumerate(2, 0.3)
            assert as_sorted_sets(got) == want

    def test_custom_metric_skipped_on_save(self, db):
        from repro.similarity.threshold import MetricKind, SimilarityPredicate
        g = dense_similar_graph(6)
        session = KRCoreSession(g)
        pred = SimilarityPredicate(
            lambda a, b: 1.0, 0.5, kind=MetricKind.SIMILARITY,
        )
        session.enumerate(2, predicate=pred)
        with GraphStore(db) as store:
            session.save(store, "g")  # must not raise on the callable
            assert store.has_graph("g")
            metrics = store.load_edge_metrics("g")
            assert metrics == []

    def test_write_through_is_incremental(self, db):
        g = dense_similar_graph(8)
        with GraphStore(db) as store:
            s = KRCoreSession(g)
            s.enumerate(2, 0.3)
            s.save(store, "g")
            first = store.result_count("g")
            assert first > 0
            assert s.cache_stats()["results"]["unsaved"] == 0
            s.enumerate(3, 0.4)
            assert s.cache_stats()["results"]["unsaved"] > 0
            s.save(store, "g")
            assert store.result_count("g") > first

    def test_edge_metric_cache_restored(self, db):
        g = make_random_attr_graph(8, n=10)
        with GraphStore(db) as store:
            cold = KRCoreSession(g, backend="csr")
            cold.enumerate(2, 0.3)
            cold.save(store, "g")
            metrics = store.load_edge_metrics("g")
            assert [(m, b) for m, b, _ in metrics] == [("jaccard", "csr")]
        with GraphStore(db) as store:
            warm = KRCoreSession.load(store, "g", backend="csr")
            entries = warm.cache_stats()["edge_values"]["entries"]
            assert entries == ["jaccard/csr"]


class TestCacheStats:
    def test_shape(self):
        s = KRCoreSession(dense_similar_graph(8))
        s.enumerate(2, 0.3)
        stats = s.cache_stats()
        assert set(stats) >= {
            "results", "edge_values", "filtered_graphs",
            "survivor_sets", "prepared_components", "reused", "maintenance",
        }
        assert stats["results"]["size"] >= 1
        assert stats["results"]["misses"] >= 1
        import json
        json.dumps(stats)  # must be JSON-able for the service

    def test_eviction_counter(self):
        g = dense_similar_graph(8)
        s = KRCoreSession(g, result_cache_limit=2)
        for k in (1, 2, 3, 4, 5):
            s.enumerate(k, 0.3)
        stats = s.cache_stats()
        assert stats["results"]["size"] <= 2
        assert stats["results"]["evictions"] > 0

class TestSaveCSRGraph:
    """Direct CSR persistence: the ingester-to-store path never
    materialises an AttributedGraph."""

    def _ingested(self, text="# nodes 5 edges 4\n0 1\n1 2\n2 3\n3 4\n"):
        import io

        from repro.graph.ingest import ingest_edge_list
        return ingest_edge_list(io.StringIO(text))

    def test_round_trip_via_load_graph(self, db):
        from repro.graph.ingest import csr_fingerprint
        csr = self._ingested()
        with GraphStore(db) as store:
            fp = store.save_csr_graph("g", csr)
            assert fp == csr_fingerprint(csr)
            # load_graph verifies the stored fingerprint on the way out
            g2 = store.load_graph("g")
        assert g2.vertex_count == csr.vertex_count
        assert graph_fingerprint(g2) == fp

    def test_warm_load_csr_cache(self, db):
        csr = self._ingested()
        with GraphStore(db) as store:
            fp = store.save_csr_graph("g", csr)
            g2 = store.load_graph("g")
            cached = store.load_csr("g", g2)
            assert cached is not None
            assert cached.vertex_count == csr.vertex_count

    def test_unchanged_resave_is_stable(self, db):
        csr = self._ingested()
        with GraphStore(db) as store:
            fp1 = store.save_csr_graph("g", csr)
            fp2 = store.save_csr_graph("g", csr)
            assert fp1 == fp2
            assert store.load_graph("g").vertex_count == csr.vertex_count

    def test_resave_with_different_content_updates(self, db):
        with GraphStore(db) as store:
            store.save_csr_graph("g", self._ingested())
            fp2 = store.save_csr_graph(
                "g", self._ingested("0 1\n1 2\n")
            )
            g2 = store.load_graph("g")
            assert g2.vertex_count == 3
            assert graph_fingerprint(g2) == fp2

    def test_relabelled_graph_keeps_labels(self, db):
        import io

        from repro.graph.ingest import ingest_edge_list
        csr = ingest_edge_list(io.StringIO("10 700\n700 42\n"))
        with GraphStore(db) as store:
            store.save_csr_graph("g", csr)
            g2 = store.load_graph("g")
        assert {g2.label(u) for u in g2.vertices()} == {"10", "42", "700"}

    def test_attributed_csr_round_trip(self, db):
        import io

        from repro.graph.ingest import csr_fingerprint, ingest_attributed_graph
        csr = ingest_attributed_graph(
            io.StringIO("0 1\n1 2\n"),
            io.StringIO("0 a b\n1 c\n2 d\n"), "set",
        )
        with GraphStore(db) as store:
            fp = store.save_csr_graph("g", csr)
            g2 = store.load_graph("g")
        assert g2.attribute(0) == frozenset({"a", "b"})
        assert graph_fingerprint(g2) == fp

    def test_queryable_after_csr_save(self, db):
        csr = self._ingested()
        with GraphStore(db) as store:
            store.save_csr_graph("g", csr)
            session = KRCoreSession.load(store, "g")
            cores = session.enumerate(2, 0.0, metric="jaccard")
            assert isinstance(cores, list)
