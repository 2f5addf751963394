"""Persistent graph store: codecs, staleness guards, warm-start parity."""

import hashlib
import json
import sqlite3

import numpy as np
import pytest

from conftest import as_sorted_sets, make_geo_graph, make_random_attr_graph
from repro.core.config import SearchConfig
from repro.core.session import KRCoreSession
from repro.exceptions import StoreError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.fingerprint import canonical_attribute, csr_fingerprint
from repro.graph.io import graph_fingerprint
from repro.similarity.threshold import SimilarityPredicate
from repro.similarity.metrics import _METRIC_NAMES
from repro.store import SCHEMA_VERSION, GraphStore, codec
from repro.store.store import (
    _TABLES,
    _encode_snapshot,
    _pack_arrays,
    _unpack_arrays,
)

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

    def test_snapshot_round_trip_is_array_exact(self, db):
        g = small_attr_graph()
        want = CSRGraph.from_attributed(g)
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
            back = store.load_graph("g")
            assert isinstance(back, CSRGraph)
            np.testing.assert_array_equal(back.indptr, want.indptr)
            np.testing.assert_array_equal(back.indices, want.indices)
            assert back._attributes == want._attributes
            assert csr_fingerprint(back) == fp
            # load_csr hands back the loaded graph: no second read
            assert store.load_csr("g", back) is back
            # a re-save of changed content serves the new arrays and
            # stops serving the derived rows of the old graph
            store.save_edge_metric(
                "g", "jaccard", "csr", {"values": np.zeros(4)}, fp,
            )
            store.save_results("g", [("k", "v")], fp)
            g.add_edge(3, 4)
            fp2 = store.save_graph("g", g)
            assert fp2 != fp
            assert store.load_graph("g").has_edge(3, 4)
            assert store.load_edge_metrics("g") == []
            assert store.load_results("g") == []
            assert store.prune("g") == 2

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

    @pytest.mark.parametrize("retired", (
        {"shm": False},                      # the dropped config field
        {"executor": "shm"},                 # the dropped executor value
    ))
    def test_rows_with_retired_shm_config_are_skipped(self, db, tmp_path,
                                                       retired):
        # Result rows written while SearchConfig still had the
        # shared-memory transport carry it in their key: loading skips
        # them (never served, never raised) and the query recomputes.
        g = dense_similar_graph(8)
        with GraphStore(db) as store:
            cold = KRCoreSession(g)
            want = as_sorted_sets(cold.enumerate(2, 0.3))
            cold.maximum(2, 0.3)
            cold.save(store, "g")
            rows = store.load_results("g")
        assert rows
        old_rows = []
        for key_text, value_text in rows:
            key = json.loads(key_text)
            key[2 if key[0] == "enum" else 1].update(retired)
            old_rows.append((codec.canonical_json(key), value_text))
        with GraphStore(str(tmp_path / "old.db")) as store:
            fp = store.save_graph("g", g)
            store.save_results("g", old_rows, fp)
            warm = KRCoreSession.load(store, "g")
            assert warm.cache_stats()["results"]["size"] == 0
            cores, stats = warm.enumerate(2, 0.3, with_stats=True)
            assert as_sorted_sets(cores) == want
            assert stats.cache_hits == 0 and stats.cache_misses > 0

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

    def test_python_edge_metric_row_of_an_older_release_is_skipped(self, db):
        g = make_random_attr_graph(8, n=10)
        predicate = SimilarityPredicate("jaccard", 0.3)
        edges = sorted(g.edges())
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
            # The edge-list payload older releases wrote for the python
            # backend: one value per edge, None where an attribute is
            # missing.
            store.save_edge_metric("g", "jaccard", "python", {
                "backend": "python",
                "edges": [[u, v] for u, v in edges],
                "values": [
                    predicate.value(g.attribute(u), g.attribute(v))
                    if g.has_attribute(u) and g.has_attribute(v) else None
                    for u, v in edges
                ],
            }, fp)
            assert [(m, b) for m, b, _ in store.load_edge_metrics("g")] == \
                [("jaccard", "python")]
        with GraphStore(db) as store:
            warm = KRCoreSession.load(store, "g", backend="python")
            assert warm.cache_stats()["edge_values"]["size"] == 0
            cold = KRCoreSession(g, backend="python")
            for k, r in GRID:
                got, stats = warm.enumerate(k, r, with_stats=True)
                want, want_stats = cold.enumerate(k, r, with_stats=True)
                assert as_sorted_sets(got) == as_sorted_sets(want)
                stats.elapsed = want_stats.elapsed
                assert stats.to_dict() == want_stats.to_dict()
            assert warm.cache_stats()["edge_values"]["entries"] == \
                ["jaccard/csr"]
            warm.save(store, "g")
            assert [(m, b) for m, b, _ in store.load_edge_metrics("g")] == \
                [("jaccard", "csr")]


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
        from repro.graph.fingerprint import csr_fingerprint
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

        from repro.graph.fingerprint import csr_fingerprint
        from repro.graph.ingest import ingest_attributed_graph
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


# ----------------------------------------------------------------------
# Snapshot + edit log: round trips, replay, tampering, old layouts
# ----------------------------------------------------------------------

def _points_graph(make_point):
    g = AttributedGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
    for u in range(4):
        g.set_attribute(u, make_point(u))
    return g


def _int_points():
    return _points_graph(lambda u: (u, 2 * u))


def _list_points():
    return _points_graph(lambda u: [u + 0.5, -1.25 * u])


def _sets_with_an_int_point():
    g = small_attr_graph()
    g.set_attribute(4, (3, 4))  # a point in an otherwise non-point graph
    return g


def _counters():
    g = AttributedGraph(3, edges=[(0, 1), (1, 2)])
    g.set_attribute(0, {"x": 2, "y": 1.5})
    g.set_attribute(1, {})
    g.set_attribute(2, {1: 3})
    return g


def _custom_labels():
    g = AttributedGraph(3, edges=[(0, 2)], labels=["alice", "bob", 'c "q"'])
    g.set_attribute(0, frozenset({"a"}))
    return g


def _attributeless():
    return AttributedGraph(12, edges=[(0, 11), (9, 10)])


def _empty():
    return AttributedGraph(0)


ROUND_TRIPS = {
    "int-points": _int_points,
    "list-points": _list_points,
    "sets-and-an-int-point": _sets_with_an_int_point,
    "counters": _counters,
    "custom-labels": _custom_labels,
    "attributeless": _attributeless,
    "n=0": _empty,
}


def _stored_value(value):
    """What a stored attribute loads back as."""
    return codec.decode_attribute(codec.encode_attribute(value))


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("make", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
    def test_save_load_round_trip(self, db, make):
        g = make()
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
        with GraphStore(db) as store:
            back = store.load_graph("g")
            session = KRCoreSession.load(store, "g")
        assert back.vertex_count == g.vertex_count
        assert sorted(back.edges()) == sorted(
            tuple(sorted(e)) for e in g.edges()
        )
        assert [back.label(u) for u in back.vertices()] == [
            g.label(u) for u in g.vertices()
        ]
        for u in g.vertices():
            assert back.has_attribute(u) == g.has_attribute(u)
            if g.has_attribute(u):
                assert back.attribute(u) == _stored_value(g.attribute(u))
        # the stored fingerprint is the loaded graph's, in both hashers
        assert fp == csr_fingerprint(back)
        assert fp == graph_fingerprint(back.to_attributed())
        assert graph_fingerprint(session.graph) == fp

    def test_int_points_store_their_float_pairs(self, db):
        with GraphStore(db) as store:
            store.save_graph("g", _int_points())
            back = store.load_graph("g")
        assert back.attribute(3) == (3.0, 6.0)
        assert all(type(c) is float for c in back.attribute(3))
        # the point column seeds the geo cache directly
        np.testing.assert_array_equal(back.geo_points()[3], [3.0, 6.0])

    def test_resave_folds_pending_edits_into_a_new_snapshot(self, db):
        g = small_attr_graph()
        with GraphStore(db) as store:
            store.save_graph("g", g)
            g.add_edge(3, 4)
            fp = graph_fingerprint(g)
            store.record_edit("g", codec.encode_edit([(3, 4)], [], {}), fp)
            assert store.list_graphs()[0]["pending_edits"] == 1
            assert store.save_graph("g", g) == fp
            assert store.list_graphs()[0]["pending_edits"] == 0
            assert store.list_graphs()[0]["m"] == g.edge_count
            # the folded entry stays in the log as history, and the
            # snapshot no longer needs it
            assert len(store.edit_log("g")) == 1
        raw = sqlite3.connect(db)
        raw.execute("UPDATE edits SET payload = 'garbage'")
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            assert store.load_graph("g").has_edge(3, 4)

    def test_replay_applies_edits_in_session_order(self, db):
        # Inserting and deleting the same edge in one batch: adds run
        # first, so the edge ends up absent — for the session and the
        # log replay alike; an existing edge re-added and removed goes.
        g = small_attr_graph()
        session = KRCoreSession(g)
        edit = {"add_edges": [(0, 3), (0, 1)], "remove_edges": [(0, 3), (0, 1)]}
        with GraphStore(db) as store:
            store.save_graph("g", g)
            assert session.edit(**edit)
            fp = graph_fingerprint(session.graph)
            store.record_edit("g", codec.encode_edit(**edit), fp)
            back = store.load_graph("g")
        assert not back.has_edge(0, 3) and not back.has_edge(0, 1)
        assert graph_fingerprint(back) == fp


def _rewrite_arrays(db, mutate):
    raw = sqlite3.connect(db)
    (blob,) = raw.execute("SELECT arrays FROM graphs WHERE name = 'g'").fetchone()
    arrays = _unpack_arrays(blob)
    mutate(arrays)
    raw.execute(
        "UPDATE graphs SET arrays = ? WHERE name = 'g'", (_pack_arrays(arrays),)
    )
    raw.commit()
    raw.close()


def _set(name, index, value):
    def mutate(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return mutate


def _drop(name):
    def mutate(arrays):
        del arrays[name]
    return mutate


def _geo_triangle_path():
    # 0-1-2 triangle plus the path 2-3-4; every vertex a geo point
    g = AttributedGraph(5, edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    for u in range(5):
        g.set_attribute(u, (float(u), 0.5 * u))
    return g


#: (graph, tamper) pairs; every one changes the stored content.
TAMPERS = {
    "indptr-offset": (_geo_triangle_path, _set("indptr", 2, 3)),
    "indptr-length": (_geo_triangle_path, _set("indptr", 5, 9)),
    "upper-entry": (_geo_triangle_path, _set("indices", 0, 3)),
    # a lower (v -> u, u < v) entry is invisible to the fingerprint's
    # edge records; the symmetry check must catch it
    "lower-entry": (_geo_triangle_path, _set("indices", 7, 1)),
    "out-of-range-id": (_geo_triangle_path, _set("indices", 9, 7)),
    "self-loop": (_geo_triangle_path, _set("indices", 9, 4)),
    "point-value": (_geo_triangle_path, _set("points", (2, 1), 9.0)),
    "point-id": (_geo_triangle_path, _set("point_ids", 4, 0)),
    "missing-array": (_geo_triangle_path, _drop("indices")),
    "encoded-value": (small_attr_graph, _set("attr_codes", 9, ord("c"))),
    "encoded-id": (small_attr_graph, _set("attr_ids", 0, 4)),
}


class TestTamperRefused:
    @pytest.mark.parametrize("case", list(TAMPERS))
    def test_changed_array_element_refused(self, db, case):
        make, mutate = TAMPERS[case]
        with GraphStore(db) as store:
            store.save_graph("g", make())
            store.load_graph("g")  # untampered: loads
        _rewrite_arrays(db, mutate)
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("g")
            with pytest.raises(StoreError):
                KRCoreSession.load(store, "g")

    def test_corrupted_fingerprint_refused(self, db):
        with GraphStore(db) as store:
            fp = store.save_graph("g", _geo_triangle_path())
            store.load_graph("g")
        raw = sqlite3.connect(db)
        raw.execute(
            "UPDATE graphs SET fingerprint = ?", (fp[:-1] + "0" * (fp[-1] != "0"),)
        )
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            with pytest.raises(StoreError, match="fingerprint check"):
                store.load_graph("g")

    def test_garbage_blob_refused(self, db):
        with GraphStore(db) as store:
            store.save_graph("g", small_attr_graph())
        raw = sqlite3.connect(db)
        raw.execute("UPDATE graphs SET arrays = x'00ff00ff'")
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("g")

    def _with_pending_edit(self, db):
        g = small_attr_graph()
        with GraphStore(db) as store:
            store.save_graph("g", g)
            g.add_edge(3, 4)
            store.record_edit(
                "g", codec.encode_edit([(3, 4)], [], {}), graph_fingerprint(g)
            )
            assert store.load_graph("g").has_edge(3, 4)

    @pytest.mark.parametrize("payload", [
        codec.encode_edit([(1, 4)], [], {}),          # a different edit
        codec.encode_edit([(3, 4)], [], {0: frozenset()}),
        '{"add_edges": [[3, 4]]',                     # malformed JSON
        codec.encode_edit([(3, 99)], [], {}),         # names no vertex
    ])
    def test_altered_edit_payload_refused(self, db, payload):
        self._with_pending_edit(db)
        raw = sqlite3.connect(db)
        raw.execute("UPDATE edits SET payload = ?", (payload,))
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("g")

    def test_deleted_edit_payload_refused(self, db):
        self._with_pending_edit(db)
        raw = sqlite3.connect(db)
        raw.execute("DELETE FROM edits")
        raw.commit()
        raw.close()
        with GraphStore(db) as store:
            with pytest.raises(StoreError):
                store.load_graph("g")

    def test_unreadable_payload_never_logged(self, db):
        with GraphStore(db) as store:
            fp = store.save_graph("g", small_attr_graph())
            with pytest.raises(StoreError):
                store.record_edit("g", "not json", "0" * 64)
            assert store.edit_log("g") == []
            assert store.fingerprint("g") == fp

    def test_stale_derived_rows_never_served(self, db):
        g = small_attr_graph()
        with GraphStore(db) as store:
            fp = store.save_graph("g", g)
            store.save_edge_metric(
                "g", "jaccard", "csr", {"values": np.zeros(4)}, fp,
            )
            store.save_results("g", [("k", "v")], fp)
            # rows under another graph's fingerprint are skipped outright
            store.save_edge_metric(
                "g", "euclidean", "csr", {"values": np.zeros(4)}, "f" * 64,
            )
            store.save_results("g", [("k2", "v2")], "f" * 64)
            assert [m for m, _, _ in store.load_edge_metrics("g")] == ["jaccard"]
            assert store.load_results("g") == [("k", "v")]
            # an edit moves the fingerprint on: every old row goes stale
            g.add_edge(3, 4)
            store.record_edit(
                "g", codec.encode_edit([(3, 4)], [], {}), graph_fingerprint(g)
            )
            assert store.load_edge_metrics("g") == []
            assert store.load_results("g") == []
            warm = KRCoreSession.load(store, "g")
            assert warm.cache_stats()["results"]["size"] == 0
            assert warm.cache_stats()["edge_values"]["size"] == 0


def _write_v1_database(path):
    """A database in the version-1 layout: a row per edge, attribute
    and label, plus a CSR blob, an edge-metric row and a result row."""
    g = small_attr_graph()
    fp = graph_fingerprint(g)
    raw = sqlite3.connect(path)
    raw.executescript(
        "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
        "CREATE TABLE graphs (name TEXT PRIMARY KEY, n INTEGER NOT NULL, "
        "fingerprint TEXT NOT NULL, created REAL NOT NULL, "
        "updated REAL NOT NULL);"
        "CREATE TABLE edges (graph TEXT NOT NULL, u INTEGER NOT NULL, "
        "v INTEGER NOT NULL, PRIMARY KEY (graph, u, v));"
        "CREATE TABLE attributes (graph TEXT NOT NULL, vertex INTEGER "
        "NOT NULL, value TEXT NOT NULL, PRIMARY KEY (graph, vertex));"
        "CREATE TABLE labels (graph TEXT NOT NULL, vertex INTEGER NOT NULL,"
        " label TEXT NOT NULL, PRIMARY KEY (graph, vertex));"
        "CREATE TABLE csr (graph TEXT PRIMARY KEY, fingerprint TEXT NOT "
        "NULL, arrays BLOB NOT NULL);"
        "CREATE TABLE edge_metrics (graph TEXT NOT NULL, metric TEXT NOT "
        "NULL, backend TEXT NOT NULL, fingerprint TEXT NOT NULL, meta TEXT "
        "NOT NULL, arrays BLOB, PRIMARY KEY (graph, metric, backend));"
        "CREATE TABLE results (graph TEXT NOT NULL, key TEXT NOT NULL, "
        "fingerprint TEXT NOT NULL, value TEXT NOT NULL, "
        "PRIMARY KEY (graph, key));"
        "CREATE TABLE edits (graph TEXT NOT NULL, seq INTEGER NOT NULL, "
        "applied REAL NOT NULL, payload TEXT NOT NULL, fingerprint TEXT "
        "NOT NULL, PRIMARY KEY (graph, seq));"
        "INSERT INTO meta VALUES ('schema_version', '1');"
    )
    raw.execute("INSERT INTO graphs VALUES ('g', 5, ?, 0, 0)", (fp,))
    raw.executemany(
        "INSERT INTO edges VALUES ('g', ?, ?)", sorted(g.edges())
    )
    raw.executemany(
        "INSERT INTO attributes VALUES ('g', ?, ?)",
        [(u, codec.encode_attribute(g.attribute(u)))
         for u in g.vertices() if g.has_attribute(u)],
    )
    raw.execute("INSERT INTO csr VALUES ('g', ?, x'00')", (fp,))
    raw.execute(
        "INSERT INTO edge_metrics VALUES ('g', 'jaccard', 'csr', ?, '{}', "
        "NULL)", (fp,),
    )
    raw.execute("INSERT INTO results VALUES ('g', 'k', ?, 'v')", (fp,))
    raw.commit()
    raw.close()


def _v2_text_fingerprint(g):
    """The version-2 fingerprint: SHA-256 over ``"e u v"`` and
    ``"a u <canonical>"`` text lines."""
    h = hashlib.sha256()
    for u, v in sorted(tuple(sorted(e)) for e in g.edges()):
        h.update(f"e {u} {v}\n".encode())
    for u in sorted(g.vertices()):
        if g.has_attribute(u):
            h.update(f"a {u} {canonical_attribute(g.attribute(u))}\n".encode())
    return h.hexdigest()


def _write_v2_database(path):
    """A database in the version-2 layout — today's tables — whose rows
    carry version-2 fingerprints: a snapshot with one pending edit, an
    edge-metric row and a result row."""
    g = small_attr_graph()
    fp = _v2_text_fingerprint(g)
    arrays, labels = _encode_snapshot(CSRGraph.from_attributed(g))
    g.add_edge(3, 4)
    fp_edited = _v2_text_fingerprint(g)
    raw = sqlite3.connect(path)
    for table, spec in _TABLES.items():
        raw.execute(f"CREATE TABLE {table} {spec}")
    raw.execute("INSERT INTO meta VALUES ('schema_version', '2')")
    raw.execute(
        "INSERT INTO graphs VALUES ('g', 5, 4, ?, 0, ?, 0, 0, ?)",
        (fp_edited, labels, _pack_arrays(arrays)),
    )
    raw.execute(
        "INSERT INTO edits VALUES ('g', 1, 0, ?, ?)",
        (codec.encode_edit([(3, 4)], [], {}), fp_edited),
    )
    raw.execute(
        "INSERT INTO edge_metrics VALUES ('g', 'jaccard', 'csr', ?, '{}', "
        "NULL)", (fp_edited,),
    )
    raw.execute("INSERT INTO results VALUES ('g', 'k', ?, 'v')", (fp_edited,))
    raw.commit()
    raw.close()
    return fp, fp_edited


class TestOldSchema:
    def test_v2_database_rebuilt_and_serves_nothing(self, db):
        old_fps = _write_v2_database(db)
        with GraphStore(db) as store:
            assert store.list_graphs() == []
            assert not store.has_graph("g")
            for load in (store.load_graph, store.load_results,
                         store.load_edge_metrics, store.fingerprint):
                with pytest.raises(StoreError):
                    load("g")
            with pytest.raises(StoreError):
                KRCoreSession.load(store, "g")
            assert store.edit_log("g") == []
        raw = sqlite3.connect(db)
        for table in ("graphs", "edits", "edge_metrics", "results"):
            assert raw.execute(f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
        assert raw.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone() == (str(SCHEMA_VERSION),)
        raw.close()
        # the same graph saved again gets a version-3 fingerprint
        with GraphStore(db) as store:
            fp = store.save_graph("g", small_attr_graph())
            assert fp not in old_fps
            assert store.load_graph("g").edge_count == 4

    def test_v1_database_rebuilt_and_serves_nothing(self, db):
        _write_v1_database(db)
        with GraphStore(db) as store:
            assert store.list_graphs() == []
            assert not store.has_graph("g")
            for load in (store.load_graph, store.load_results,
                         store.load_edge_metrics, store.fingerprint):
                with pytest.raises(StoreError):
                    load("g")
            with pytest.raises(StoreError):
                KRCoreSession.load(store, "g")
            tables = {
                name for (name,) in store._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert tables == {"meta", "graphs", "edge_metrics", "results", "edits"}
        raw = sqlite3.connect(db)
        assert raw.execute("SELECT COUNT(*) FROM results").fetchone() == (0,)
        assert raw.execute("SELECT COUNT(*) FROM edge_metrics").fetchone() == (0,)
        assert raw.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone() == (str(SCHEMA_VERSION),)
        raw.close()
        # the rebuilt store takes new graphs as usual
        with GraphStore(db) as store:
            fp = store.save_graph("g", small_attr_graph())
            assert store.load_graph("g").vertex_count == 5
            assert store.fingerprint("g") == fp
