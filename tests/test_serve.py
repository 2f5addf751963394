"""Query service + HTTP daemon: parity with direct sessions, coalescing,
edits, flush/warm restart, error mapping, and kept-alive connections
(one write per reply, request framing, hang-ups, shutdown)."""

import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from conftest import as_sorted_sets, make_random_attr_graph
from repro.core.session import KRCoreSession
from repro.exceptions import ServiceError
from repro.graph.fingerprint import csr_fingerprint
from repro.graph.io import graph_fingerprint
from repro.serve import KRCoreService, make_server, run_server
from repro.serve.http import KRCoreRequestHandler
from repro.serve.service import _Inflight
from repro.store import GraphStore, codec


def service_graph(seed=0, n=11):
    return make_random_attr_graph(seed, n=n)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "serve.db")


@pytest.fixture
def stored(db):
    with GraphStore(db) as store:
        store.save_graph("g", service_graph())
        store.save_graph("h", service_graph(seed=1, n=9))
    return db


@pytest.fixture
def service(stored):
    svc = KRCoreService(GraphStore(stored))
    yield svc
    svc.close()


class TestServiceParity:
    def test_enumerate_matches_direct_session(self, service):
        direct = KRCoreSession(service_graph())
        for k, r in [(2, 0.3), (2, 0.5), (3, 0.3)]:
            out = service.handle("g", "enumerate", {"k": k, "r": r})
            want = direct.enumerate(k, r)
            assert out["count"] == len(want)
            assert sorted(out["cores"]) == as_sorted_sets(want)

    def test_maximum_matches_direct_session(self, service):
        direct = KRCoreSession(service_graph())
        out = service.handle("g", "maximum", {"k": 2, "r": 0.3})
        want = direct.maximum(2, 0.3)
        assert out["size"] == (want.size if want else 0)
        if want is not None:
            assert out["core"] == sorted(want.vertices)

    def test_statistics_matches_direct_session(self, service):
        direct = KRCoreSession(service_graph())
        out = service.handle("g", "statistics", {"k": 2, "r": 0.3})
        want = direct.statistics(2, 0.3)
        for key, value in want.items():
            assert out[key] == value

    def test_sweep_matches_direct_session(self, service):
        direct = KRCoreSession(service_graph())
        out = service.handle(
            "g", "sweep", {"ks": [2, 3], "rs": [0.3, 0.5]},
        )
        assert out["rows"] == direct.sweep([2, 3], [0.3, 0.5])

    def test_with_stats_payload(self, service):
        out = service.handle(
            "g", "enumerate", {"k": 2, "r": 0.3, "with_stats": True},
        )
        assert "stats" in out and "nodes" in out["stats"]

    def test_independent_graphs(self, service):
        a = service.handle("g", "enumerate", {"k": 2, "r": 0.3})
        b = service.handle("h", "enumerate", {"k": 2, "r": 0.3})
        direct = KRCoreSession(service_graph(seed=1, n=9))
        assert sorted(b["cores"]) == as_sorted_sets(direct.enumerate(2, 0.3))
        assert a is not b


class TestServiceErrors:
    def test_unknown_graph_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("nope", "enumerate", {"k": 2, "r": 0.3})
        assert err.value.status == 404

    def test_unknown_op_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "transmogrify", {})
        assert err.value.status == 404

    def test_missing_params_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "enumerate", {"k": 2})
        assert err.value.status == 400

    def test_unknown_params_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "enumerate", {"k": 2, "r": 0.3, "wat": 1})
        assert err.value.status == 400

    def test_invalid_knob_value_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle(
                "g", "enumerate", {"k": 2, "r": 0.3, "workers": "many"},
            )
        assert err.value.status == 400

    @pytest.mark.parametrize("knob", (
        {"plan": {"bogus": 1}},
        {"plan": {"workers": "x"}},
        # NaN compares False against every bound: a naive positivity
        # check would run the query without a deadline.
        {"time_limit": "nan"},
        # A NaN threshold answered every query empty and never matched
        # itself as a cache key, growing the caches per request.
        {"r": "nan"},
    ))
    def test_malformed_knob_400(self, service, knob):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "enumerate", {"k": 2, "r": 0.3, **knob})
        assert err.value.status == 400

    def test_invalid_k_maps_to_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "enumerate", {"k": 0, "r": 0.3})
        assert err.value.status == 400

    def test_errors_counted(self, service):
        before = service.counters["errors"]
        with pytest.raises(ServiceError):
            service.handle("g", "enumerate", {})
        assert service.counters["errors"] == before + 1


class TestCoalescing:
    def test_joiner_shares_inflight_result(self, service):
        params = {"k": 2, "r": 0.3}
        key = ("g", "enumerate", codec.canonical_json(params))
        waiter = _Inflight()
        waiter.result = {"sentinel": True}
        waiter.event.set()
        service._inflight[key] = waiter
        try:
            out = service.handle("g", "enumerate", params)
        finally:
            service._inflight.pop(key, None)
        assert out == {"sentinel": True}
        assert service.counters["coalesced"] == 1

    def test_joiner_shares_inflight_error(self, service):
        params = {"k": 2, "r": 0.3}
        key = ("g", "enumerate", codec.canonical_json(params))
        waiter = _Inflight()
        waiter.error = ServiceError("boom", status=400)
        waiter.event.set()
        service._inflight[key] = waiter
        try:
            with pytest.raises(ServiceError, match="boom"):
                service.handle("g", "enumerate", params)
        finally:
            service._inflight.pop(key, None)

    def test_concurrent_identical_requests_agree(self, service):
        params = {"k": 2, "r": 0.35}
        results, errors = [], []

        def worker():
            try:
                results.append(service.handle("g", "enumerate", params))
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8
        assert all(r == results[0] for r in results)


class TestEditsAndFlush:
    def test_edit_persists_and_matches_scratch(self, service):
        before = service.handle("g", "enumerate", {"k": 2, "r": 0.3})
        out = service.handle("g", "edit", {
            "add_edges": [],
            "remove_edges": [],
            "attributes": {"0": ["set", ["solo"]]},
        })
        assert out["changed"] is True
        assert out["seq"] == 1
        after = service.handle("g", "enumerate", {"k": 2, "r": 0.3})
        # scratch session over the same edited graph must agree
        g = service_graph()
        g.set_attribute(0, frozenset({"solo"}))
        scratch = KRCoreSession(g)
        assert sorted(after["cores"]) == as_sorted_sets(scratch.enumerate(2, 0.3))
        assert after != before or before["count"] == after["count"]
        log = service.handle("g", "edits", {})
        assert len(log["edits"]) == 1

    @pytest.mark.parametrize("present", [False, True])
    def test_cancelling_edit_reloads_from_a_fresh_store(self, stored, present):
        # One batch inserts and deletes the same pair.  The session runs
        # adds before removes, and so must the store's log replay — or
        # the next load fails its fingerprint check (absent pair) or
        # serves an edge the session deleted (present pair).
        g = service_graph()
        u, v = next(
            (a, b) for a in g.vertices() for b in g.vertices()
            if a < b and g.has_edge(a, b) == present
        )
        edit = {"add_edges": [[u, v]], "remove_edges": [[u, v]]}
        svc = KRCoreService(GraphStore(stored))
        try:
            out = svc.handle("g", "edit", edit)
            assert out["changed"] is True
            direct = KRCoreSession(g)
            direct.edit(add_edges=[(u, v)], remove_edges=[(u, v)])
            with GraphStore(stored) as store:  # not flushed: the log replays
                reloaded = KRCoreSession.load(store, "g")
                assert reloaded.graph.has_edge(u, v) is False
                for k, r in [(2, 0.3), (2, 0.5), (3, 0.3)]:
                    assert as_sorted_sets(reloaded.enumerate(k, r)) == \
                        as_sorted_sets(direct.enumerate(k, r))
                    assert reloaded.statistics(k, r) == direct.statistics(k, r)
        finally:
            svc.close()

    def test_edit_fingerprint_is_the_graph_digest_of_the_edited_graph(
        self, stored
    ):
        g = service_graph()
        u, v = next(iter(g.edges()))
        svc = KRCoreService(GraphStore(stored))
        try:
            out = svc.handle("g", "edit", {
                "remove_edges": [[u, v]],
                "attributes": {"0": ["set", ["solo"]]},
            })
            session = svc._entry("g").session
            assert session._graph is None  # the daemon holds the CSR only
            g.remove_edge(u, v)
            g.set_attribute(0, frozenset({"solo"}))
            assert out["fingerprint"] == graph_fingerprint(g)
            assert out["fingerprint"] == \
                graph_fingerprint(session.csr.to_attributed())
            with GraphStore(stored) as store:  # not flushed: the log replays
                assert store.fingerprint("g") == out["fingerprint"]
                assert csr_fingerprint(store.load_graph("g")) == \
                    out["fingerprint"]
            assert session._graph is None
        finally:
            svc.close()

    def test_noop_edit_reports_unchanged(self, service):
        out = service.handle("g", "edit", {"add_edges": [], "remove_edges": []})
        assert out["changed"] is False
        assert out["seq"] is None

    def test_unknown_edit_fields_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle("g", "edit", {"drop_tables": True})
        assert err.value.status == 400

    def test_flush_then_warm_restart_skips_engine(self, stored):
        svc = KRCoreService(GraphStore(stored))
        cold = svc.handle(
            "g", "enumerate", {"k": 2, "r": 0.3, "with_stats": True},
        )
        svc.close()  # graceful shutdown flushes dirty state

        svc2 = KRCoreService(GraphStore(stored))
        try:
            warm = svc2.handle(
                "g", "enumerate", {"k": 2, "r": 0.3, "with_stats": True},
            )
            assert warm["cores"] == cold["cores"]
            assert warm["stats"]["nodes"] == 0
            assert warm["stats"]["cache_misses"] == 0
        finally:
            svc2.close()

    def test_flush_unknown_graph_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.flush("nope")
        assert err.value.status == 404

    def test_graph_stats_shape(self, service):
        service.handle("g", "enumerate", {"k": 2, "r": 0.3})
        out = service.handle("g", "stats", {})
        assert out["graph"] == "g"
        assert out["dirty"] is True
        assert "results" in out["cache"]
        assert out["store"]["graphs"] == 2
        json.dumps(out)  # whole payload must be JSON-able

    def test_health(self, service):
        out = service.health()
        assert out["ok"] is True
        assert out["graphs"] == ["g", "h"]


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

@pytest.fixture
def live_server(stored):
    """A running daemon; a test may swap its handler class or patch its
    service before connecting."""
    service = KRCoreService(GraphStore(stored))
    server = make_server(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(target=run_server, args=(server, ready))
    thread.start()
    assert ready.wait(5.0)
    yield server
    server.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


@pytest.fixture
def http_server(live_server):
    host, port = live_server.server_address[:2]
    return f"http://{host}:{port}"


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(base, path, payload=None):
    data = json.dumps(payload or {}).encode()
    req = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHTTP:
    def test_health_and_graph_list(self, http_server):
        status, body = _get(http_server, "/health")
        assert status == 200 and body["ok"] is True
        status, body = _get(http_server, "/graphs")
        assert [g["name"] for g in body["graphs"]] == ["g", "h"]

    def test_enumerate_parity_over_http(self, http_server):
        status, body = _post(
            http_server, "/graphs/g/enumerate", {"k": 2, "r": 0.3},
        )
        assert status == 200
        direct = KRCoreSession(service_graph())
        assert sorted(map(tuple, body["cores"])) == [
            tuple(c) for c in as_sorted_sets(direct.enumerate(2, 0.3))
        ]

    def test_edit_then_query_over_http(self, http_server):
        status, body = _post(http_server, "/graphs/g/edit", {
            "attributes": {"0": ["set", ["solo"]]},
        })
        assert status == 200 and body["changed"] is True
        status, body = _post(
            http_server, "/graphs/g/enumerate", {"k": 2, "r": 0.3},
        )
        assert status == 200
        g = service_graph()
        g.set_attribute(0, frozenset({"solo"}))
        scratch = KRCoreSession(g)
        assert sorted(map(tuple, body["cores"])) == [
            tuple(c) for c in as_sorted_sets(scratch.enumerate(2, 0.3))
        ]
        status, body = _get(http_server, "/graphs/g/edits")
        assert status == 200 and len(body["edits"]) == 1

    def test_stats_endpoint(self, http_server):
        _post(http_server, "/graphs/g/enumerate", {"k": 2, "r": 0.3})
        status, body = _get(http_server, "/graphs/g/stats")
        assert status == 200
        assert body["graph"] == "g"

    def test_flush_endpoint(self, http_server):
        _post(http_server, "/graphs/g/enumerate", {"k": 2, "r": 0.3})
        status, body = _post(http_server, "/flush")
        assert status == 200
        assert "g" in body["flushed"]

    def test_unknown_route_404(self, http_server):
        status, body = _get(http_server, "/nope")
        assert status == 404
        status, body = _post(http_server, "/graphs/g/transmogrify", {})
        assert status == 404
        status, body = _post(http_server, "/graphs/nope/enumerate",
                             {"k": 2, "r": 0.3})
        assert status == 404 and "error" in body

    def test_malformed_json_400(self, http_server):
        req = urllib.request.Request(
            http_server + "/graphs/g/enumerate", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_bad_params_400(self, http_server):
        status, body = _post(http_server, "/graphs/g/enumerate", {"k": 2})
        assert status == 400 and "error" in body

    @pytest.mark.parametrize("plan, named", (
        ({"shm": True}, "split_depth"),      # names the valid plan fields
        ({"executor": "shm"}, "process"),    # names the valid executors
    ))
    def test_retired_shm_plan_400(self, http_server, plan, named):
        status, body = _post(http_server, "/graphs/g/enumerate", {
            "k": 2, "r": 0.3, "plan": plan,
        })
        assert status == 400 and named in body["error"]

    def test_shutdown_endpoint(self, stored):
        service = KRCoreService(GraphStore(stored))
        server = make_server(service, port=0)
        ready = threading.Event()
        thread = threading.Thread(target=run_server, args=(server, ready))
        thread.start()
        assert ready.wait(5.0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        _post(base, "/graphs/g/enumerate", {"k": 2, "r": 0.3})
        status, body = _post(base, "/shutdown")
        assert status == 200 and body["shutting_down"] is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # dirty state was flushed on the way down
        with GraphStore(stored) as store:
            assert store.result_count("g") >= 0
            warm = KRCoreSession.load(store, "g")
            __, stats = warm.enumerate(2, 0.3, with_stats=True)
            assert stats.nodes == 0


def test_shutdown_request_flushes_before_run_server_returns(stored,
                                                            monkeypatch):
    # A slow flush must finish before run_server returns, or a caller
    # that joins the server thread and reopens the store races it.
    service = KRCoreService(GraphStore(stored))
    flushed = threading.Event()
    close = service.close

    def slow_close():
        time.sleep(0.3)
        close()
        flushed.set()

    monkeypatch.setattr(service, "close", slow_close)
    server = make_server(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(target=run_server, args=(server, ready))
    thread.start()
    assert ready.wait(5.0)
    host, port = server.server_address[:2]
    status, _ = _post(f"http://{host}:{port}", "/shutdown")
    assert status == 200
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert flushed.is_set()


def test_urlopen_get_404_maps(http_server):
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(http_server + "/graphs/g/unknown", timeout=10)
    assert err.value.code == 404


# ----------------------------------------------------------------------
# Keep-alive connections: one write per reply, Nagle off, framing kept
# ----------------------------------------------------------------------

def _connect(server):
    """A plain keep-alive client: default socket options, no TCP_NODELAY."""
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _call(conn, method, path, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _raw_exchange(server, request):
    """Send raw request bytes; read until the server closes the socket.

    The 5 s timeout turns "the server never answers or never closes"
    into a test failure rather than a hang.
    """
    with socket.create_connection(server.server_address[:2], timeout=5) as s:
        s.sendall(request)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse_reply(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(body)


STATS_BODY = json.dumps({"k": 2, "r": 0.3})
JSON_HEADERS = {"Content-Type": "application/json"}


class _CountingWriter:
    """Stands in for a handler's ``wfile``; logs each write's size."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def write(self, data):
        self.log.append(len(data))
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _CountingHandler(KRCoreRequestHandler):
    def setup(self):
        super().setup()
        self.server.nodelay.append(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        self.wfile = _CountingWriter(self.wfile, self.server.writes)


class _HungUpWriter(_CountingWriter):
    """A peer that closed before its answer: every write breaks."""

    def write(self, data):
        self.log.append(len(data))
        raise BrokenPipeError(32, "Broken pipe")


class _HungUpHandler(KRCoreRequestHandler):
    def setup(self):
        super().setup()
        self.wfile = _HungUpWriter(self.wfile, self.server.writes)


class TestKeepAlive:
    def test_nodelay_and_one_write_per_reply(self, live_server):
        live_server.RequestHandlerClass = _CountingHandler
        live_server.nodelay, live_server.writes = [], []
        conn = _connect(live_server)
        try:
            status, _ = _call(conn, "POST", "/graphs/g/statistics",
                              STATS_BODY, JSON_HEADERS)
            assert status == 200 and len(live_server.writes) == 1
            status, _ = _call(conn, "GET", "/graphs/nope/stats")
            assert status == 404 and len(live_server.writes) == 2

            def boom(*args, **kwargs):
                raise RuntimeError("injected")

            live_server.service.handle = boom
            status, body = _call(conn, "GET", "/graphs/g/stats")
            assert status == 500 and "injected" in body["error"]
            assert len(live_server.writes) == 3
        finally:
            conn.close()
        # one connection, accepted with Nagle off
        assert len(live_server.nodelay) == 1 and live_server.nodelay[0]

    def test_keepalive_small_reads_are_not_stalled(self, live_server):
        direct = KRCoreSession(service_graph()).statistics(2, 0.3)
        conn = _connect(live_server)
        try:
            _call(conn, "POST", "/graphs/g/statistics", STATS_BODY,
                  JSON_HEADERS)  # warm the result cache
            latencies = []
            for _ in range(20):
                start = time.perf_counter()
                status, body = _call(conn, "POST", "/graphs/g/statistics",
                                     STATS_BODY, JSON_HEADERS)
                latencies.append(time.perf_counter() - start)
                assert status == 200
                assert all(body[key] == value for key, value in direct.items())
        finally:
            conn.close()
        # a split reply waits ~40 ms on the client's delayed ACK
        assert statistics.median(latencies) < 0.020

    def test_unread_bodies_do_not_desync_the_connection(self, live_server):
        direct = KRCoreSession(service_graph()).statistics(2, 0.3)
        conn = _connect(live_server)
        try:
            conn.connect()
            sock = conn.sock
            for method, path, want in (
                ("POST", "/graphs/g/bogus", 404),
                ("POST", "/nope", 404),
                ("POST", "/flush", 200),
                ("GET", "/health", 200),
            ):
                status, _ = _call(conn, method, path, STATS_BODY,
                                  JSON_HEADERS)
                assert status == want, (method, path)
                status, body = _call(conn, "POST", "/graphs/g/statistics",
                                     STATS_BODY, JSON_HEADERS)
                assert status == 200, (method, path)
                assert all(body[key] == value for key, value in direct.items())
            assert conn.sock is sock  # never reconnected
        finally:
            conn.close()

    def test_shutdown_with_body_answers_and_closes(self, live_server):
        raw = _raw_exchange(
            live_server,
            b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
            b"\r\n{}",
        )
        status, headers, body = _parse_reply(raw)
        assert status == 200 and body["shutting_down"] is True
        assert headers["Connection"] == "close"

    def test_kept_alive_connection_is_refused_after_shutdown(
            self, live_server):
        conn = _connect(live_server)
        try:
            status, _ = _call(conn, "POST", "/graphs/g/statistics",
                              STATS_BODY, JSON_HEADERS)
            assert status == 200
            live_server.stop()
            # the store is closed: no answer from a stale session, no 500
            conn.request("GET", "/graphs/g/edits")
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 503 and "shutting down" in body["error"]
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("declared", [b"abc", b"-1", b"1e3", b""])
    def test_bad_content_length_is_400_and_closes(self, live_server,
                                                  declared):
        raw = _raw_exchange(
            live_server,
            b"POST /graphs/g/statistics HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + declared + b"\r\n\r\n" + STATS_BODY.encode(),
        )
        status, headers, body = _parse_reply(raw)
        assert status == 400 and "Content-Length" in body["error"]
        assert headers["Connection"] == "close"

    def test_oversized_body_is_413_and_closes(self, live_server):
        raw = _raw_exchange(
            live_server,
            b"POST /graphs/g/statistics HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n{}" % (16 * 1024 * 1024 + 1),
        )
        status, headers, body = _parse_reply(raw)
        assert status == 413 and "too large" in body["error"]
        assert headers["Connection"] == "close"

    def test_chunked_body_is_411_and_closes(self, live_server):
        raw = _raw_exchange(
            live_server,
            b"POST /graphs/g/statistics HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        status, headers, body = _parse_reply(raw)
        assert status == 411 and "Content-Length" in body["error"]
        assert headers["Connection"] == "close"

    def test_http09_reply_is_the_bare_body(self, live_server):
        raw = _raw_exchange(live_server, b"GET /health\r\n\r\n")
        assert json.loads(raw)["ok"] is True

    def test_idle_connection_reset_is_quiet(self, live_server):
        errors, closed = [], threading.Event()
        live_server.handle_error = lambda request, address: errors.append(
            address)
        shutdown_request = live_server.shutdown_request

        def record_close(request):
            shutdown_request(request)
            closed.set()

        # socketserver reports a handler's error, then closes its socket
        live_server.shutdown_request = record_close
        with socket.create_connection(live_server.server_address[:2],
                                      timeout=5) as s:
            s.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert s.recv(65536).startswith(b"HTTP/1.1 200")
            # abortive close: the server's next read sees a reset
            s.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
        assert closed.wait(5.0)
        assert errors == []

    def test_client_hangup_ends_the_connection_quietly(self, live_server):
        errors = []
        live_server.handle_error = lambda request, address: errors.append(
            address)
        live_server.RequestHandlerClass = _HungUpHandler
        live_server.writes = []
        conn = _connect(live_server)
        try:
            with pytest.raises(http.client.RemoteDisconnected):
                _call(conn, "GET", "/health")
        finally:
            conn.close()
        # nothing was re-raised into socketserver's traceback printer,
        # and the failed reply was not retried as a 500
        assert errors == []
        assert len(live_server.writes) == 1


# A graph whose k=2, r=0.3 maximum search provably needs more than one
# search node, so ``node_limit=1`` trips even on a cold session.
def hard_graph():
    return make_random_attr_graph(2, n=30)


@pytest.fixture
def hard_service(tmp_path):
    db = str(tmp_path / "hard.db")
    with GraphStore(db) as store:
        store.save_graph("b", hard_graph())
    svc = KRCoreService(GraphStore(db))
    yield svc
    svc.close()


@pytest.fixture
def hard_http_server(tmp_path):
    db = str(tmp_path / "hard_http.db")
    with GraphStore(db) as store:
        store.save_graph("b", hard_graph())
    service = KRCoreService(GraphStore(db))
    server = make_server(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(target=run_server, args=(server, ready))
    thread.start()
    assert ready.wait(5.0)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


class TestMaximumBudgetPartial:
    """A budget-tripped maximum returns a partial incumbent with
    ``"status": "budget"`` — never a bare 500 (regression)."""

    def test_legacy_maximum_reports_ok_status(self, service):
        out = service.handle("g", "maximum", {"k": 2, "r": 0.3})
        assert out["status"] == "ok"

    def test_budget_trip_returns_partial_not_error(self, hard_service):
        # cold service: the budget must charge real search nodes
        out = hard_service.handle(
            "b", "maximum", {"k": 2, "r": 0.3, "node_limit": 1},
        )
        assert out["status"] == "budget"
        assert "size" in out and "core" in out

    def test_budget_partial_over_http(self, hard_http_server):
        status, body = _post(
            hard_http_server, "/graphs/b/maximum",
            {"k": 2, "r": 0.3, "node_limit": 1},
        )
        assert status == 200
        assert body["status"] == "budget"


class TestDegradedModes:
    def test_mode_exact_matches_legacy(self, service):
        legacy = service.handle("h", "maximum", {"k": 2, "r": 0.3})
        out = service.handle(
            "h", "maximum", {"k": 2, "r": 0.3, "mode": "exact"},
        )
        assert out["status"] == "exact"
        assert out["size"] == legacy["size"]
        assert out["core"] == legacy["core"]
        assert out["gap"] == 0

    def test_mode_anytime_untripped_is_exact(self, service):
        exact = service.handle("g", "maximum", {"k": 2, "r": 0.3})
        out = service.handle(
            "g", "maximum", {"k": 2, "r": 0.3, "mode": "anytime"},
        )
        assert out["status"] == "exact"
        assert out["core"] == exact["core"]

    def test_mode_anytime_budget_reports_gap(self, hard_service):
        out = hard_service.handle(
            "b", "maximum",
            {"k": 2, "r": 0.3, "mode": "anytime", "node_limit": 1},
        )
        assert out["status"] == "budget"
        assert out["upper_bound"] >= out["size"]
        assert out["gap"] == out["upper_bound"] - out["size"]

    def test_mode_heuristic(self, service):
        exact = service.handle("g", "maximum", {"k": 2, "r": 0.3})
        out = service.handle(
            "g", "maximum", {"k": 2, "r": 0.3, "mode": "heuristic"},
        )
        assert out["status"] == "heuristic"
        assert out["size"] <= exact["size"] <= out["upper_bound"]

    def test_unknown_mode_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle(
                "g", "maximum", {"k": 2, "r": 0.3, "mode": "psychic"},
            )
        assert err.value.status == 400

    def test_mode_rejected_on_other_ops(self, service):
        with pytest.raises(ServiceError) as err:
            service.handle(
                "g", "enumerate", {"k": 2, "r": 0.3, "mode": "anytime"},
            )
        assert err.value.status == 400


class TestTopCores:
    def test_top_sizes_descend_and_match_enumerate(self, service):
        full = service.handle("g", "enumerate", {"k": 2, "r": 0.3})
        out = service.handle("g", "top", {"k": 2, "r": 0.3, "t": 3})
        assert out["status"] == "exact"
        assert out["total_found"] == full["count"]
        assert out["sizes"] == sorted(out["sizes"], reverse=True)
        assert len(out["cores"]) <= 3
        for core in out["cores"]:
            assert sorted(core) in full["cores"]

    def test_top_default_t_is_one(self, service):
        out = service.handle("g", "top", {"k": 2, "r": 0.3})
        assert len(out["cores"]) <= 1

    def test_top_bad_t_400(self, service):
        for bad in (0, -2, True, "three"):
            with pytest.raises(ServiceError) as err:
                service.handle("g", "top", {"k": 2, "r": 0.3, "t": bad})
            assert err.value.status == 400

    def test_top_over_http(self, http_server):
        status, body = _post(
            http_server, "/graphs/g/top", {"k": 2, "r": 0.3, "t": 2},
        )
        assert status == 200
        assert body["sizes"] == sorted(body["sizes"], reverse=True)
