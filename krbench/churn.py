"""Workload ``service-churn``: reads beside maintained edits on the daemon.

A ``repro serve`` daemon runs in its own process over a stored geo-social
graph (``n = 50000``, about 274k edges, the same for every seed).  One
client drives a closed loop
over one keep-alive HTTP connection, in passes of one edit and two reads:
two thirds are reads (``statistics``/``maximum``/``top`` at two ``k`` by
two ``r``, cycling, so the result cache is hot) and one third are edits.
Edits come in groups of six that leave the graph as they found it: move
a core member's point 25 km away and back, remove an in-core edge and
add it back, then a second one.  A cycle of six passes is one group and
every read once.  Edits run session maintenance, graph fingerprinting and
the store's edit log; reads run the result cache, the graph lock and
HTTP.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import random
import re
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from common import (
    BenchError, Outcome, Spans, child_env, layer_table, median, process_peak_rss_mb,
    traced_layers, workdir,
)
from inputs import EDGES, POINTS, geo_files_fresh_process

from repro.core.session import KRCoreSession
from repro.graph.ingest import ingest_attributed_graph
from repro.graph.io import graph_fingerprint
from repro.serve.service import KRCoreService
from repro.store import GraphStore, codec

SIZES = {"full": 50_000, "tiny": 3_000}
#: The graph is the same for every run; ``--seed`` picks the edited
#: vertices and the read order.  On some generated graphs a maximum read
#: after an edit recomputes for seconds, on others in milliseconds, and
#: a seeded graph would make that, not the system, set the spread.
GRAPH_SEED = 0
SETUP_REPS = 2
METRIC = "euclidean"
NAME = "churn"
READ_OPS = ("statistics", "maximum", "top")
KS = (4, 5)
RS = (4.0, 5.0)
MOVE_KM = 25.0
GROUP = 6               # edits per group that restores the graph
READS_PER_PASS = 2      # beside each edit: two thirds of the ops are reads
EDIT_LAYERS = (
    "graph.io.fingerprint_s", "core.maintenance.edit_s", "store.record_edit_s",
)
MAINTENANCE = ("maintained", "fallbacks", "results_evicted")


@dataclass
class Op:
    op: str
    params: Dict[str, Any]
    timed: bool
    response: Any = None
    latency: float = 0.0    #: client-observed, over HTTP
    handled: float = 0.0    #: in-process KRCoreService.handle (traced runs)
    traced: float = 0.0     #: traced Replica (traced runs)


class Daemon:
    """A ``repro serve`` process on a free port, with one client connection."""

    def __init__(self, db, log):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--db", str(db),
             "--port", "0", "--metric", METRIC],
            env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            port = re.search(r"http://[^:]+:(\d+)", banner)
            if port is None:
                raise RuntimeError(f"daemon did not start: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", int(port.group(1)), timeout=170
        )
        self.conn.connect()
        # http.client writes headers and body in separate sends; without
        # TCP_NODELAY, Nagle's algorithm holds the body for the server's
        # delayed ACK and every POST pays ~40 ms the service never caused.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: {payload}")
        return payload

    def stop(self) -> None:
        """Kill and reap; the benchmark discards the store, so no flush."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        self.proc.kill()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _plan(seed: int, cores: List[List[int]], csr):
    """Read cycle and per-group edits, both seeded and fixed up front."""
    rng = random.Random(seed)
    reads = [
        (op, {"k": k, "r": r}) for op in READ_OPS for k in KS for r in RS
    ]
    rng.shuffle(reads)
    members = sorted({u for core in cores for u in core})
    rng.shuffle(members)

    def group(b: int) -> List[Dict[str, Any]]:
        u = members[b % len(members)]
        core = next(set(c) for c in cores if u in c)
        mates = [int(v) for v in csr.neighbors(u) if int(v) in core]
        v, w = (mates[(b + i) % len(mates)] for i in range(2))
        x, y = csr.attribute(u)
        return [
            {"attributes": {str(u): ["point", [x + MOVE_KM, y]]}},
            {"attributes": {str(u): ["point", [x, y]]}},
            {"remove_edges": [[u, v]]},
            {"add_edges": [[u, v]]},
            {"remove_edges": [[u, w]]},
            {"add_edges": [[u, w]]},
        ]

    return reads, group


def _edit_args(params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "add_edges": [tuple(e) for e in params.get("add_edges", [])],
        "remove_edges": [tuple(e) for e in params.get("remove_edges", [])],
        "attributes": {
            int(u): tuple(value[1])
            for u, value in params.get("attributes", {}).items()
        },
    }


def _answer(session, op: str, params: Dict[str, Any]):
    """A read answered by a plain in-process session, response-shaped."""
    k, r = params["k"], params["r"]
    if op == "statistics":
        return session.statistics(k, r)
    if op == "maximum":
        core = session.maximum(k, r)
        return sorted(core.vertices) if core is not None else None
    return session.top_cores(k, r).to_dict()["cores"]


def _observed(op: str, response: Dict[str, Any]):
    if op == "statistics":
        return {key: response[key] for key in ("count", "max_size", "avg_size")}
    if op == "maximum":
        return response["core"]
    return response["cores"]


class Replica:
    """A direct in-process session fed the daemon's operations.

    Every read is answered again and compared with the daemon's response.
    With ``spans``, the timed operations are traced, an edit split into
    ``session.edit`` → ``graph_fingerprint`` → ``GraphStore.record_edit``
    (against ``store``), the steps the service runs for it.
    """

    def __init__(self, csr, out: Outcome, spans: Optional[Spans] = None,
                 store: Optional[GraphStore] = None):
        self.session = KRCoreSession(csr, metric=METRIC)
        self.out = out
        self.spans = spans
        self.store = store

    def apply(self, entry: Op) -> None:
        session, spans = self.session, self.spans
        traced = spans is not None and entry.timed
        if entry.op == "edit":
            args = _edit_args(entry.params)
            if not traced:
                session.edit(**args)
                return
            with spans.span("core.maintenance.edit_s"):
                session.edit(**args)
            with spans.span("graph.io.fingerprint_s"):
                fp = graph_fingerprint(session.graph)
            with spans.span("store.record_edit_s"):
                self.store.record_edit(NAME, codec.encode_edit(**args), fp, **args)
            return
        if traced:
            with spans.span("core.session.read_s"):
                expected = _answer(session, entry.op, entry.params)
        else:
            expected = _answer(session, entry.op, entry.params)
        ok = json.loads(json.dumps(expected)) == _observed(entry.op, entry.response)
        self.out.check(ok, f"{entry.op}{entry.params} differs from a direct session")
        if entry.timed and not ok:
            self.out.failed += 1


def run(seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    out = Outcome()
    with workdir("service-churn") as wd, open(wd / "daemon.log", "w") as log:
        geo_files_fresh_process(SIZES[size], GRAPH_SEED, wd)
        db = wd / "store.db"
        setup: List[float] = []
        ops: List[Op] = []
        daemon = None
        try:
            for _ in range(SETUP_REPS):
                if daemon is not None:
                    daemon.stop()
                    daemon = None
                gc.collect()
                for suffix in ("", "-wal", "-shm"):
                    db.with_name(db.name + suffix).unlink(missing_ok=True)
                t0 = time.perf_counter()
                csr = ingest_attributed_graph(wd / EDGES, wd / POINTS, "point")
                with GraphStore(str(db)) as store:
                    store.save_csr_graph(NAME, csr)
                daemon = Daemon(db, log)
                daemon.call("GET", f"/graphs/{NAME}/stats")  # loads the session
                setup.append(time.perf_counter() - t0)

            if trace:
                # A traced run feeds every operation, right after the
                # daemon answers it, to an in-process KRCoreService (its
                # handle time, without HTTP) and to a traced Replica, each
                # over its own copy of the store, set up untimed.
                stores = []
                for copy in ("service.db", "trace.db"):
                    stores.append(GraphStore(str(wd / copy)))
                    stores[-1].save_csr_graph(NAME, csr)
                service = KRCoreService(stores[0], metric=METRIC)
                service.handle(NAME, "stats", {})
                spans = Spans()
                replica = Replica(csr, out, spans, stores[1])

            def send(entry: Op) -> None:
                t0 = time.perf_counter()
                entry.response = daemon.call(
                    "POST", f"/graphs/{NAME}/{entry.op}", entry.params
                )
                entry.latency = time.perf_counter() - t0
                ops.append(entry)
                if trace:
                    t0 = time.perf_counter()
                    service.handle(NAME, entry.op, entry.params)
                    entry.handled = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    replica.apply(entry)
                    entry.traced = time.perf_counter() - t0

            # Warm-up: every read once (fills the result cache), untimed.
            for op in READ_OPS:
                for k in KS:
                    for r in RS:
                        send(Op(op, {"k": k, "r": r}, timed=False))
            cores = [e.response["core"] for e in ops
                     if e.op == "maximum" and e.response["core"]]
            if not cores:
                raise BenchError("no read of the mix has a core to edit")
            reads, group = _plan(seed, cores, csr)

            before = daemon.call("GET", f"/graphs/{NAME}/stats")
            passes: List[float] = []
            start = time.perf_counter()
            # Whole cycles only: the kinds of edit differ in cost, and a
            # read whose result an edit evicted recomputes (seconds for
            # some), so every run times each edit kind and each read
            # equally often.
            cycle = math.lcm(GROUP, len(reads) // READS_PER_PASS)
            while (not passes or len(passes) % cycle
                   or time.perf_counter() - start < seconds):
                p = len(passes)
                batch = [Op("edit", group(p // GROUP)[p % GROUP], timed=True)] + [
                    Op(*reads[(READS_PER_PASS * p + i) % len(reads)], timed=True)
                    for i in range(READS_PER_PASS)
                ]
                for entry in batch:
                    send(entry)
                passes.append(sum(entry.latency for entry in batch))
            after = daemon.call("GET", f"/graphs/{NAME}/stats")
            peak = process_peak_rss_mb(daemon.proc.pid)
        finally:
            if daemon is not None:
                daemon.stop()

        timed = [e for e in ops if e.timed]
        read_lat = [e.latency for e in timed if e.op != "edit"]
        edit_lat = [e.latency for e in timed if e.op == "edit"]
        out.attempted = len(timed)
        maint = after["cache"]["maintenance"]
        out.check(maint["maintained"] > 0 and maint["fallbacks"] == 0,
                  f"edits were not all maintained: {maint}")
        out.check(maint["results_evicted"] > 0, "no edit evicted a result")
        # A pass's cost depends on where it falls in the cycle (a read
        # right after an edit may recompute), so the median of a few
        # dozen passes jumps between those costs from run to run; the
        # mean over whole cycles weighs each position equally.
        out.end_to_end = {
            "setup_s": median(setup),
            "total_s": sum(passes) / len(passes),
            "read_p50_ms": median(read_lat) * 1e3,
            "ops_per_s": len(timed) / sum(passes),
            "peak_rss_mb": peak,
        }
        if not trace:
            replica = Replica(csr, out)
            for entry in ops:
                replica.apply(entry)
            return out

        t0 = time.perf_counter()
        service.flush(NAME)
        flush_s = time.perf_counter() - t0
        for store in stores:
            store.close()
        untraced = sum(passes)
        layers = traced_layers(
            out, spans, len(passes), untraced, sum(e.traced for e in timed)
        )
        # The HTTP layer, for the table only (the replica has no HTTP, so
        # it is no part of coverage), measured by differencing: client
        # latency minus in-process handle time of the same operation.
        spans.add("serve.http_s", sum(e.latency - e.handled for e in timed))
        per_edit = {
            name: spans.self_s.get(name, 0.0) / len(edit_lat)
            for name in EDIT_LAYERS
        }
        largest = max(per_edit, key=per_edit.get)
        if size == "full":
            out.check(largest == "graph.io.fingerprint_s",
                      f"{largest} outweighs fingerprinting in edit latency")
        layers.update({
            f"core.maintenance.{key}": (
                after["cache"]["maintenance"][key]
                - before["cache"]["maintenance"][key]
            ) / len(passes)
            for key in MAINTENANCE
        })
        hits, misses = (
            after["cache"]["results"][key] - before["cache"]["results"][key]
            for key in ("hits", "misses")
        )
        handle_read = [e.handled for e in timed if e.op != "edit"]
        layers.update({
            "core.session.cache_hits": hits / len(passes),
            "core.session.cache_misses": misses / len(passes),
            "core.session.hit_ratio": hits / max(1, hits + misses),
            "serve.handle_s": sum(e.handled for e in timed) / len(passes),
            "serve.http_overhead_ms": (median(read_lat) - median(handle_read)) * 1e3,
            "store.flush_s": flush_s,
            "edit_p50_ms": median(edit_lat) * 1e3,
            "edit_samples": len(edit_lat),
            "read_samples": len(read_lat),
        })
        out.per_layer = layers
        edit_p50 = median(edit_lat)
        out.report = layer_table(spans, len(passes), untraced) + [
            f"client edit latency p50 {edit_p50 * 1e3:.1f} ms "
            f"({len(edit_lat)} edits); per edit: "
            + ", ".join(
                f"{name} {secs * 1e3:.1f} ms ({secs / edit_p50:.0%})"
                for name, secs in per_edit.items()
            ),
            f"client read latency p50 {median(read_lat) * 1e3:.2f} ms "
            f"({len(read_lat)} reads); in-process handle p50 "
            f"{median(handle_read) * 1e3:.2f} ms",
        ]
    return out
