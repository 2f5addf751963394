"""Stdlib JSON/HTTP front end for :class:`~repro.serve.service.KRCoreService`.

A :class:`ThreadingHTTPServer` daemon — one thread per connection, all
threads sharing the service's per-graph sessions behind their locks.
Pure stdlib (``http.server`` + ``json``): no framework dependency.

Routes
------
* GET ``/health`` — liveness + counters
* GET ``/graphs`` — stored graph list
* GET ``/graphs/<name>/stats`` — cache + store stats
* GET ``/graphs/<name>/edits`` — persisted edit log
* POST ``/graphs/<name>/enumerate`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/maximum`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/statistics`` — ``{"k": 3, "r": 0.5, ...}``
* POST ``/graphs/<name>/sweep`` — ``{"ks": [...], "rs": [...], ...}``
* POST ``/graphs/<name>/edit`` — add/remove edges, tagged attributes
* POST ``/graphs/<name>/flush`` — persist one session
* POST ``/flush`` — persist all sessions
* POST ``/shutdown`` — flush dirty state + stop serving

Every response is a JSON object; errors come back as
``{"error": message}`` with a 4xx/5xx status.  Each reply leaves in one
socket write with Nagle off, so a kept-alive connection pays no
delayed-ACK stall.  Every request body is read before the reply; when
its end cannot be trusted (a malformed, negative or oversized
``Content-Length``, or a chunked body) the error reply closes the
connection, so no later request is parsed out of a leftover body.

Shutdown — whether via ``POST /shutdown``, :meth:`KRCoreHTTPServer.stop`,
or the CLI's signal handler — flushes dirty session state before the
store closes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ServiceError
from repro.serve.service import KRCoreService

#: Request body size cap (16 MiB) — an edit batch or sweep grid fits
#: comfortably; anything larger is a client error.
_MAX_BODY = 16 * 1024 * 1024

_POST_OPS = (
    "enumerate", "maximum", "top", "statistics", "sweep", "edit", "flush",
)


class KRCoreRequestHandler(BaseHTTPRequestHandler):
    """One JSON request per call; routing is a straight path match."""

    server_version = "krcore-serve"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket: a reply is one write, and
    # Nagle would hold any write after the first for the client's ACK.
    disable_nagle_algorithm = True

    # The server object carries the service; typing helper:
    server: "KRCoreHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionResetError:
            # the client reset a kept-alive connection between requests
            # (a reply to a gone client is caught in _reply): nothing to
            # answer, and not a daemon error worth a traceback
            pass

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        service = self.server.service
        try:
            self._admit()
            if self.path in ("/", "/health"):
                self._reply(200, service.health())
                return
            if self.path == "/graphs":
                self._reply(200, {"graphs": service.store.list_graphs()})
                return
            name, op = self._parse_graph_path()
            if op in ("stats", "edits"):
                self._reply(200, service.handle(name, op, {}))
                return
            raise ServiceError(f"no such route GET {self.path}", status=404)
        except ServiceError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:  # defensive: a handler crash must answer
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        try:
            raw = self._admit()
            if self.path == "/shutdown":
                self.close_connection = True
                self._reply(200, {"ok": True, "shutting_down": True})
                self.server.stop(from_request=True)
                return
            if self.path == "/flush":
                self._reply(200, {"flushed": service.flush()})
                return
            name, op = self._parse_graph_path()
            if op not in _POST_OPS:
                raise ServiceError(
                    f"no such route POST {self.path}", status=404
                )
            self._reply(200, service.handle(name, op, _json_object(raw)))
        except ServiceError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _parse_graph_path(self) -> Tuple[str, str]:
        parts = [p for p in self.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "graphs":
            raise ServiceError(f"no such route {self.path}", status=404)
        return parts[1], parts[2]

    def _admit(self) -> bytes:
        """The whole request body, read before any reply is written.

        A reply sent with the body still unread would leave it in the
        stream, where a kept-alive connection parses it as the next
        request.  When the body's end cannot be found (or is not worth
        reading), the error reply closes the connection instead.  So
        does a request that a kept-alive connection carries in after
        shutdown began, since the store it would use is closing.
        """
        if self.server.stopped:
            self.close_connection = True
            raise ServiceError("server is shutting down", status=503)
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise ServiceError(
                "chunked request bodies are not supported; "
                "send a Content-Length", status=411,
            )
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            raise ServiceError(f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > _MAX_BODY:
            self.close_connection = True
            raise ServiceError("request body too large", status=413)
        return self.rfile.read(length) if length else b""

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        """Send status line, headers and JSON body in one socket write."""
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would write the head on its own; join it to the
        # body instead.  An HTTP/0.9 reply is the bare body.
        if self.request_version == "HTTP/0.9":
            reply = data
        else:
            reply = b"".join(self._headers_buffer) + b"\r\n" + data
            self._headers_buffer = []
        try:
            self.wfile.write(reply)
        except (BrokenPipeError, ConnectionResetError):
            # the client hung up before its answer: nothing to tell it
            self.close_connection = True


def _json_object(raw: bytes) -> Dict[str, Any]:
    """Parse a request body that must be empty or one JSON object."""
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise ServiceError(f"malformed JSON body: {exc}") from None
    if not isinstance(body, dict):
        raise ServiceError("JSON body must be an object")
    return body


class KRCoreHTTPServer(ThreadingHTTPServer):
    """Threaded JSON daemon owning a :class:`KRCoreService`.

    ``daemon_threads`` keeps per-connection threads from blocking
    shutdown; :meth:`stop` flushes dirty session state exactly once no
    matter how many shutdown paths race.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: KRCoreService,
        verbose: bool = False,
    ):
        super().__init__(address, KRCoreRequestHandler)
        self.service = service
        self.verbose = verbose
        self._stop_lock = threading.Lock()
        self._stopped = False

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has begun; no request is served after."""
        return self._stopped

    def stop(self, from_request: bool = False) -> None:
        """Stop serving and flush dirty state (idempotent, thread-safe)."""
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        if from_request:
            # Flush first, so serve_forever (and with it run_server)
            # returns only once the store holds the dirty state.  Then
            # hand shutdown() to a helper thread — it deadlocks when
            # called from a handler thread.
            self.service.close()
            threading.Thread(target=self.shutdown, daemon=True).start()
        else:
            self.shutdown()
            self.service.close()


def make_server(
    service: KRCoreService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> KRCoreHTTPServer:
    """Bind a daemon (``port=0`` picks a free port; see ``server_address``)."""
    return KRCoreHTTPServer((host, port), service, verbose=verbose)


def run_server(
    server: KRCoreHTTPServer,
    ready: Optional[threading.Event] = None,
) -> None:
    """Serve until :meth:`KRCoreHTTPServer.stop` (blocking call)."""
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.stop()
        server.server_close()


__all__ = [
    "KRCoreHTTPServer",
    "KRCoreRequestHandler",
    "make_server",
    "run_server",
]
