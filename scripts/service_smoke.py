"""End-to-end smoke test for the persistent store + HTTP query service.

Stores an adversarial ring-of-cliques graph, starts the JSON daemon,
drives every endpoint over real HTTP, and checks each response against a
direct in-process session on the identical graph.  An edge removal and
its inverse must bring the fingerprint the daemon returns back to the
one ``GET /graphs`` listed before them.  A keep-alive pass then
drives every read endpoint over one persistent connection and checks the
answers equal the one-connection-per-request ones, including a request
that follows a 404 whose body the route never needed.  Then it shuts the
daemon down (flushing warm state), restarts it over the same database,
and proves the warm restart serves the same answers with zero engine
invocations.  CI runs this as the ``service-smoke`` step::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from repro.core.session import KRCoreSession
from repro.datasets.adversarial import (
    build_instance,
    ring_of_cliques,
    ring_predicate_r,
)
from repro.serve import KRCoreService, make_server, run_server
from repro.store import GraphStore

FAILURES: list = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  {status}: {message}")
    if not condition:
        FAILURES.append(message)


def request(base: str, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


#: Fields of /health and /graphs/<name>/stats that move between two
#: identical requests (uptime, counters and cache traffic).
VOLATILE = ("uptime", "counters", "cache", "total_stats", "store", "dirty")


def stable(payload):
    if not isinstance(payload, dict):
        return payload
    return {key: value for key, value in payload.items()
            if key not in VOLATILE}


def persistent_request(conn, method: str, path: str, payload=None):
    """One request on a kept-alive ``http.client`` connection.

    A reply that is not JSON (stdlib's HTML error page, say) comes back
    as its raw bytes, so the caller's check fails instead of crashing.
    """
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    raw = resp.read()
    try:
        return resp.status, json.loads(raw)
    except ValueError:
        return resp.status, raw


def keepalive_pass(base: str, reads) -> None:
    """Every read over one connection must answer as ``urlopen`` does."""
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)
    try:
        conn.connect()
        sock = conn.sock
        for method, path, payload in reads:
            want = request(base, method, path, payload)
            got = persistent_request(conn, method, path, payload)
            check(
                got[0] == want[0] and stable(got[1]) == stable(want[1]),
                f"keep-alive {method} {path} matches urlopen",
            )
        method, path, payload = reads[-1]
        status, _ = persistent_request(
            conn, "POST", "/graphs/adversarial/bogus", payload,
        )
        check(status == 404, "keep-alive 404 for an unknown op with a body")
        got = persistent_request(conn, method, path, payload)
        check(
            got == request(base, method, path, payload),
            "request after a 404-with-body is answered, not desynced",
        )
        check(conn.sock is sock, "keep-alive pass used one connection")
    finally:
        conn.close()


def start_daemon(db: str):
    service = KRCoreService(GraphStore(db))
    server = make_server(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(target=run_server, args=(server, ready))
    thread.start()
    ready.wait(10.0)
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


def sorted_cores(cores):
    return sorted(sorted(c) for c in cores)


def main() -> int:
    graph = ring_of_cliques(cliques=10, clique_size=5)
    r = ring_predicate_r()
    k = 2
    db_dir = tempfile.mkdtemp(prefix="service_smoke_")
    db = str(Path(db_dir) / "smoke.db")

    # a second, engineered-hard instance whose maximum search provably
    # cannot finish within a one-node budget (degraded-mode checks)
    hard = build_instance("ring-of-cliques")
    hard_params = {"k": hard.k, "r": hard.r, "metric": hard.metric}

    with GraphStore(db) as store:
        fp = store.save_graph("adversarial", graph)
        store.save_graph("hard", hard.graph)
    print(f"stored adversarial graph: n={graph.vertex_count} "
          f"m={graph.edge_count} fingerprint={fp[:12]}…")

    direct = KRCoreSession(graph)

    print("first daemon: cold queries over HTTP")
    server, thread, base = start_daemon(db)
    try:
        status, health = request(base, "GET", "/health")
        check(status == 200 and health["ok"], "health endpoint")
        check(health["graphs"] == ["adversarial", "hard"],
              "stored graphs listed")

        # degraded query modes FIRST, while the hard graph's session is
        # cold — a warmed result cache would answer without charging the
        # node budget and the trip checks below would be vacuous
        status, out = request(
            base, "POST", "/graphs/hard/maximum",
            {**hard_params, "node_limit": 1},
        )
        check(
            status == 200 and out["status"] == "budget",
            "budget-tripped maximum returns a partial, not a 500",
        )
        status, out = request(
            base, "POST", "/graphs/hard/maximum",
            {**hard_params, "mode": "anytime", "node_limit": 1},
        )
        check(
            status == 200 and out["status"] == "budget"
            and out["upper_bound"] >= out["size"]
            and out["gap"] == out["upper_bound"] - out["size"],
            "anytime budget answer carries incumbent + bound gap",
        )
        status, heur = request(
            base, "POST", "/graphs/hard/maximum",
            {**hard_params, "mode": "heuristic"},
        )
        check(
            status == 200 and heur["status"] == "heuristic",
            "heuristic mode answers",
        )
        status, top = request(
            base, "POST", "/graphs/hard/top", {**hard_params, "t": 3},
        )
        check(
            status == 200
            and top["sizes"] == sorted(top["sizes"], reverse=True)
            and len(top["cores"]) <= 3,
            "top-3 returns the largest cores first",
        )
        status, exact = request(
            base, "POST", "/graphs/hard/maximum",
            {**hard_params, "mode": "anytime"},
        )
        check(
            status == 200 and exact["status"] == "exact"
            and heur["size"] <= exact["size"] <= heur["upper_bound"],
            "heuristic answer brackets the exact maximum",
        )

        status, out = request(
            base, "POST", "/graphs/adversarial/enumerate", {"k": k, "r": r},
        )
        want = direct.enumerate(k, r)
        check(status == 200, "enumerate answers")
        check(
            sorted_cores(out["cores"])
            == sorted_cores(sorted(c.vertices) for c in want),
            "enumerate matches direct session",
        )

        status, out = request(
            base, "POST", "/graphs/adversarial/maximum", {"k": k, "r": r},
        )
        best = direct.maximum(k, r)
        check(
            status == 200 and out["size"] == (best.size if best else 0),
            "maximum matches direct session",
        )

        status, out = request(
            base, "POST", "/graphs/adversarial/statistics", {"k": k, "r": r},
        )
        summary = direct.statistics(k, r)
        check(
            status == 200
            and all(out[key] == value for key, value in summary.items()),
            "statistics matches direct session",
        )

        status, out = request(
            base, "POST", "/graphs/adversarial/sweep",
            {"ks": [2, 3], "rs": [r]},
        )
        check(
            status == 200 and out["rows"] == direct.sweep([2, 3], [r]),
            "sweep matches direct session",
        )

        # a maintained edit through the daemon, mirrored on the oracle
        status, out = request(
            base, "POST", "/graphs/adversarial/edit",
            {"attributes": {"0": ["set", ["solo"]]}},
        )
        check(
            status == 200 and out["changed"] and out["seq"] == 1,
            "edit applied and logged",
        )
        direct.set_attribute(0, frozenset({"solo"}))
        status, out = request(
            base, "POST", "/graphs/adversarial/enumerate", {"k": k, "r": r},
        )
        want = direct.enumerate(k, r)
        check(
            status == 200
            and sorted_cores(out["cores"])
            == sorted_cores(sorted(c.vertices) for c in want),
            "post-edit enumerate matches direct session",
        )

        status, out = request(base, "GET", "/graphs/adversarial/edits")
        check(
            status == 200 and len(out["edits"]) == 1,
            "edit log persisted",
        )

        # an edit and its inverse: the fingerprint the daemon carries
        # through both must come back to the stored pre-edit one
        status, out = request(base, "GET", "/graphs")
        before = next(
            row["fingerprint"] for row in out["graphs"]
            if row["name"] == "adversarial"
        )
        u, v = next(iter(graph.edges()))
        status, removed = request(
            base, "POST", "/graphs/adversarial/edit",
            {"remove_edges": [[u, v]]},
        )
        check(
            status == 200 and removed["changed"]
            and removed["fingerprint"] != before,
            "edge removal moves the fingerprint",
        )
        status, restored = request(
            base, "POST", "/graphs/adversarial/edit",
            {"add_edges": [[u, v]]},
        )
        check(
            status == 200 and restored["changed"]
            and restored["fingerprint"] == before,
            "edit then inverse restores the pre-edit fingerprint",
        )

        print("keep-alive pass: every read endpoint over one connection")
        params = {"k": k, "r": r}
        keepalive_pass(base, [
            ("GET", "/health", None),
            ("GET", "/graphs", None),
            ("GET", "/graphs/adversarial/stats", None),
            ("GET", "/graphs/adversarial/edits", None),
            ("POST", "/graphs/adversarial/enumerate", params),
            ("POST", "/graphs/adversarial/maximum", params),
            ("POST", "/graphs/adversarial/top", {**params, "t": 2}),
            ("POST", "/graphs/adversarial/sweep", {"ks": [2, 3], "rs": [r]}),
            ("POST", "/graphs/adversarial/statistics", params),
        ])

        status, out = request(base, "POST", "/graphs/nope/enumerate",
                              {"k": 2, "r": 0.5})
        check(status == 404, "unknown graph is a 404")

        # malformed knobs are client errors, never a 500 or a silently
        # ignored deadline
        status, out = request(
            base, "POST", "/graphs/adversarial/enumerate",
            {"k": k, "r": r, "plan": {"bogus": 1}},
        )
        check(status == 400 and "error" in out,
              "unknown plan field is a 400")
        status, out = request(
            base, "POST", "/graphs/adversarial/enumerate",
            {"k": k, "r": r, "time_limit": "nan"},
        )
        check(status == 400 and "error" in out, "NaN time_limit is a 400")

        status, out = request(base, "POST", "/shutdown")
        check(status == 200, "graceful shutdown accepted")
    finally:
        server.stop()
        thread.join(timeout=10.0)
    check(not thread.is_alive(), "daemon thread exited")

    print("second daemon: warm restart must skip the engine")
    server, thread, base = start_daemon(db)
    try:
        status, out = request(
            base, "POST", "/graphs/adversarial/enumerate",
            {"k": k, "r": r, "with_stats": True},
        )
        want = direct.enumerate(k, r)
        check(
            status == 200
            and sorted_cores(out["cores"])
            == sorted_cores(sorted(c.vertices) for c in want),
            "warm enumerate matches direct session",
        )
        check(
            out["stats"]["nodes"] == 0,
            "warm restart ran zero engine search nodes",
        )
        check(
            out["stats"]["cache_misses"] == 0
            and out["stats"]["cache_hits"] > 0,
            "warm restart served from the persisted result cache",
        )
    finally:
        server.stop()
        thread.join(timeout=10.0)

    if FAILURES:
        print(f"service smoke FAILED ({len(FAILURES)} check(s))")
        return 1
    print("service smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
