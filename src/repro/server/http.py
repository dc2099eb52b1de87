"""Stdlib JSON-over-HTTP front-end of the query service.

Endpoints (see ``docs/service.md`` for the full protocol reference):

* ``POST /query``    -- one request object in, one response object out.
* ``POST /batch``    -- JSONL (or a JSON array) in, JSONL out; the whole
  batch is validated before any query runs, mirroring ``execute_many``.
* ``POST /datasets`` -- hot-swap the served dataset: quiesces in-flight
  batches, swaps (and, when sharded, repartitions) atomically, and
  invalidates result caches by dataset version.  Body: ``{"path": ...}``
  (a dataset file the server loads) or inline ``{"data_objects": [...],
  "feature_objects": [...]}`` object lists.
* ``POST /objects``  -- incremental append/delete of data and feature
  objects, absorbed by the delta overlay without rebuilding or swapping
  the base snapshot (``docs/ingest.md``).  Body: ``{"append":
  {"data_objects": [...], "feature_objects": [...]}, "delete":
  {"data_oids": [...], "feature_oids": [...]}}``; both sections optional,
  deletes are applied before appends.
* ``GET /healthz``   -- liveness: ``{"status": "ok"}`` plus uptime.
* ``GET /stats``     -- the service's full counter tree (requests, latency
  histograms, batching, result/index caches, planner decisions and --
  when sharded -- the router + per-shard subtrees).
* ``GET /heartbeat`` -- cluster-node identity probe (node id, shard index,
  dataset epoch/version); only served when the bound service exposes a
  ``heartbeat()`` method (shard nodes do), ``404`` otherwise.
* ``POST /rebalance`` -- re-derive the shard layout from the live data
  distribution (``docs/sharding.md``); only served when the bound service
  exposes a ``rebalance()`` method (the shard router does), ``404``
  otherwise.  Body: empty or ``{"layout": "skew"|"uniform"}``.

The bound service is a :class:`~repro.server.service.QueryService`, a
:class:`~repro.sharding.router.ShardRouter` (``repro serve --shards N``),
a :class:`~repro.cluster.router.ClusterRouter` (``--cluster N``) or a
:class:`~repro.cluster.node.ShardNodeService` (``repro shard-node``); all
expose the same serving surface (``submit``, ``submit_many``, ``stats``,
``uptime_seconds``, ``swap_datasets``, ``apply_objects``), so the handler
never branches on which it is.  Every endpoint is one row of the route
table (:data:`_ROUTES`: verb, body parser, service method, response
envelope) served by one dispatch; the body shapes themselves live in
:mod:`repro.server.protocol`.  Mode-specific capabilities are duck-typed,
in that one dispatch: a route whose method the service lacks
(``heartbeat``, ``rebalance``) answers ``404``, and a service declaring
``accepts_dataset_epoch`` may receive the optional ``"epoch"`` field on
``POST /datasets`` and ``POST /objects`` (the cluster router tags
fleet-wide swaps and write batches with it).

Built on :class:`http.server.ThreadingHTTPServer` -- one thread per
connection, no third-party dependencies -- which is exactly what the
micro-batcher wants: concurrent handler threads all feed the shared request
queue, and the dispatcher pool turns their simultaneous requests into
``execute_many`` batches.

Error mapping: invalid requests (bad JSON, unknown fields, invalid
parameters or combinations) are ``400`` with ``{"error": ...}``; shed
requests (admission queue full, deadline blown -- ``docs/traffic.md``) are
``429`` with ``{"error": ..., "shed": true, "retry_after_ms": ...}`` and a
``Retry-After`` header; unknown paths are ``404``; unsupported methods are
``405``; execution failures are ``500``.  The server never dies on a bad
request.  Every error response (429 included) is sent with ``Connection:
close``: error paths may leave the request body unread, and closing is
what keeps those unread bytes from desyncing keep-alive framing.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import OverloadError, ReproError
from repro.server.admission import shed_payload
from repro.server.protocol import (
    batch_lines,
    error_payload,
    load_json,
    parse_dataset_spec,
    parse_rebalance_body,
    split_batch_body,
    split_epoch,
)
# Called through this module's own global: the e2e tracer patches the name.
from repro.server.protocol import parse_objects_spec as _parse_objects_spec
from repro.server.service import QueryService

#: Largest accepted request body (16 MiB); protects the JSON parser.
MAX_BODY_BYTES = 16 * 1024 * 1024


class QueryHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`QueryService`."""

    #: Handler threads die with the process; a stuck connection cannot
    #: block interpreter exit.
    daemon_threads = True

    #: socketserver's default listen backlog is 5.  Overload traffic
    #: reconnects constantly (every shed closes its connection), and a
    #: 5-deep SYN backlog answers the excess with kernel resets -- the
    #: exact silent-drop failure admission control exists to prevent.
    #: A deeper backlog keeps every connection alive long enough to be
    #: *told* it is shed.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        service: QueryService,
        quiet: bool = True,
    ) -> None:
        """Bind to ``address`` (port 0 picks an ephemeral port).

        The service must be started by the caller; the server only routes
        requests to it.  ``quiet`` suppresses per-request access logging.
        """
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet

    @property
    def port(self) -> int:
        """The bound TCP port (useful with an ephemeral bind)."""
        return self.server_address[1]

    # ------------------------------------------------------------------ #
    # connection tracking: clients hold HTTP/1.1 keep-alive connections
    # open between requests, so a handler thread can outlive serve_forever
    # blocked on the next request line.  shutdown() therefore also shuts
    # down every live connection -- a stopped server must stop answering,
    # not keep serving whoever already had a warm connection.

    def process_request(self, request, client_address) -> None:
        """Track the accepted connection before handing it to a handler."""
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Stop tracking a connection its handler has finished with."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every live (possibly idle keep-alive) connection."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def shutdown(self) -> None:
        """Stop serve_forever, then cut every live keep-alive connection."""
        super().shutdown()
        self.close_connections()


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the bound :class:`QueryService`."""

    server: QueryHTTPServer
    protocol_version = "HTTP/1.1"
    #: Idle keep-alive connections are dropped after this many seconds so a
    #: silent client cannot pin a handler thread forever; active request
    #: processing does not read the socket and is unaffected.
    timeout = 120.0
    #: Responses go out as two small writes (header flush, then body); with
    #: Nagle on, the second write stalls behind the peer's delayed ACK once
    #: a keep-alive connection ages out of quick-ACK mode (~40ms per
    #: response).  TCP_NODELAY sends both immediately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # routing

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz``, ``/stats`` and (on shard nodes) ``/heartbeat``."""
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/query``, ``/batch``, ``/datasets``, ``/objects``, ``/rebalance``."""
        self._serve("POST")

    def _serve(self, verb: str) -> None:
        """Serve one :data:`_ROUTES` entry: read, parse, call, answer.

        The one place a request body becomes a service call and a service
        outcome becomes a status code, whatever the route.
        """
        route = _ROUTES.get(self.path)
        if route is None:
            self._send_json(404, error_payload(f"unknown path {self.path!r}"))
            return
        if route.verb != verb:
            self._send_json(405, error_payload(f"use {route.verb} for {self.path}"))
            return
        service = self.server.service
        method = getattr(service, route.method, None)
        if not callable(method):
            # Capabilities are duck-typed: a service without the route's
            # method (``heartbeat`` on anything but a shard node,
            # ``rebalance`` on anything but the shard router) does not
            # serve the route.
            self._send_json(404, error_payload(route.not_served))
            return
        if route.fast_shed and self._fast_shed(service):
            return
        args: Sequence[object] = ()
        kwargs: Mapping[str, object] = {}
        if route.parse is not None:
            body = self._read_body()
            if body is None:
                return
            try:
                args, kwargs = route.parse(
                    body, getattr(service, "accepts_dataset_epoch", False)
                )
            except ValueError as exc:
                self._send_json(400, error_payload(str(exc)))
                return
        try:
            result = method(*args, **kwargs)
        except OverloadError as exc:
            # Before the generic ReproError -> 400 rule: a shed request is
            # not a bad request, and the body must carry the shed contract.
            self._send_shed(shed_payload(str(exc), exc.retry_after_ms))
            return
        except route.client_errors as exc:
            self._send_json(400, error_payload(str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500
            self._send_json(500, error_payload(f"{type(exc).__name__}: {exc}"))
            return
        if route.envelope is not None:
            self._send_json(200, {"status": "ok", route.envelope: result})
        elif isinstance(result, list):
            self._send_text(200, batch_lines(result), "application/x-ndjson")
        else:
            self._send_json(200, result)

    def _fast_shed(self, service: object) -> bool:
        """Shed before reading the body when the admission queue is full."""
        admission = getattr(service, "admission", None)
        retry_after = admission.overloaded() if admission is not None else None
        if retry_after is None:
            return False
        # Fast shed: when the admission queue is already full the request
        # cannot be served whatever its body says, so the 429 goes out
        # without reading (or even size-checking) the body.  _send_shed
        # closes the connection, which is what keeps the unread bytes from
        # desyncing keep-alive framing.
        admission.record_fast_shed()
        self._send_shed(shed_payload("admission queue full", retry_after))
        self._drain_unread_body()
        return True

    # ------------------------------------------------------------------ #
    # plumbing

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, error_payload(
                f"Content-Length must be between 0 and {MAX_BODY_BYTES}"
            ))
            return None
        return self.rfile.read(length)

    def _send_json(self, status: int, payload: Mapping[str, object]) -> None:
        self._send_text(status, json.dumps(payload), "application/json")

    def _send_shed(self, payload: Mapping[str, object]) -> None:
        """Answer a shed request: 429, shed body, ``Retry-After`` header.

        The ``Connection: close`` rule of :meth:`_send_text` (every status
        >= 400) is load-bearing here, not just tidy: the fast-shed path
        answers *without reading the request body*, and only closing the
        connection keeps those unread bytes from being parsed as the next
        request on a keep-alive connection.
        """
        retry_after_ms = payload.get("retry_after_ms", 0.0)
        seconds = max(1, int(round(float(retry_after_ms) / 1000.0)))
        self._extra_headers = [("Retry-After", str(seconds))]
        try:
            self._send_text(429, json.dumps(payload), "application/json")
        finally:
            self._extra_headers = []

    #: Extra response headers for the next ``_send_text`` call (the shed
    #: path's ``Retry-After``); reset after every send.
    _extra_headers: List[Tuple[str, str]] = []

    #: How long the fast-shed path lingers for a mid-write client's
    #: remaining body bytes before closing anyway.
    _drain_timeout_seconds = 2.0

    def _drain_unread_body(self) -> None:
        """Lingering close: absorb the body a fast-shed never waited for.

        The fast-shed 429 is sent before the request body is read.
        Closing the socket immediately would answer the client's still-
        arriving body bytes with a TCP RST -- and an RST can destroy the
        unread 429 sitting in the client's receive buffer, turning an
        explicit shed into a connection error.  Reading and discarding
        the declared body first -- bounded in size by the body cap and in
        time by a short socket deadline -- lets a mid-write client finish
        its send, read its 429, and observe a clean FIN.
        """
        try:
            remaining = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return
        remaining = min(remaining, MAX_BODY_BYTES)
        if remaining <= 0:
            return
        try:
            self.connection.settimeout(self._drain_timeout_seconds)
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            pass

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in self._extra_headers:
            self.send_header(name, value)
        if status >= 400:
            # Error paths may not have drained the request body (wrong
            # method, unknown path, oversized Content-Length, and -- since
            # admission control landed -- a fast-shed 429 that deliberately
            # skips the read).  On a keep-alive connection the leftover
            # bytes would be parsed as the next request; closing keeps the
            # protocol in sync.  429 is covered by this same >= 400 rule.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Access logging, silenced by default (``quiet=False`` restores it)."""
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)


# --------------------------------------------------------------------- #
# the route table
#
# A body parser turns the raw body into the ``(args, kwargs)`` of the
# route's service method, raising ValueError (-> 400) for a body it cannot
# read.  ``epoch_ok`` says the bound service declares
# ``accepts_dataset_epoch``: shard nodes may receive the cluster router's
# ``"epoch"`` tag on both state-changing routes, plain services reject it
# as an unknown field.

_Call = Tuple[Sequence[object], Mapping[str, object]]


def _query_call(body: bytes, epoch_ok: bool) -> _Call:
    return (load_json(body),), {}


def _batch_call(body: bytes, epoch_ok: bool) -> _Call:
    return ([spec for _, spec in split_batch_body(body)],), {}


def _datasets_call(body: bytes, epoch_ok: bool) -> _Call:
    spec, epoch = split_epoch(load_json(body), epoch_ok)
    return parse_dataset_spec(spec), epoch


def _objects_call(body: bytes, epoch_ok: bool) -> _Call:
    spec, epoch = split_epoch(load_json(body), epoch_ok)
    # An epoch-tagged empty body is a legal epoch bump: the cluster router
    # pushes every write batch to every live node, including nodes the
    # batch routed nothing to.  Looked up through this module's namespace
    # on every call (the e2e tracer patches the name here).
    update = _parse_objects_spec(spec, allow_empty=bool(epoch))
    return (), {**update, **epoch}


def _rebalance_call(body: bytes, epoch_ok: bool) -> _Call:
    return (), parse_rebalance_body(body)


class _Route(NamedTuple):
    """One endpoint.

    Attributes:
        verb: The HTTP method that serves it (the other one answers 405).
        parse: Body parser (see above); None for a route without a body.
        method: Name of the service method the route calls.
        envelope: Key the result is wrapped under, beside ``"status":
            "ok"``; None sends the result itself (a list as JSONL).
        not_served: The 404 text of a service lacking ``method``.
        fast_shed: Probe admission before reading the body.
        client_errors: Exceptions of the call answered with a 400.
    """

    verb: str
    parse: Optional[Callable[[bytes, bool], _Call]]
    method: str
    envelope: Optional[str] = None
    not_served: str = "this server does not serve this endpoint"
    fast_shed: bool = False
    client_errors: Tuple[type, ...] = (ReproError,)


_ROUTES: Dict[str, _Route] = {
    "/healthz": _Route("GET", None, "uptime_seconds", "uptime_seconds"),
    "/stats": _Route("GET", None, "stats"),
    "/heartbeat": _Route(
        "GET", None, "heartbeat",
        not_served="this server is not a cluster shard node",
    ),
    "/query": _Route("POST", _query_call, "submit", fast_shed=True),
    "/batch": _Route("POST", _batch_call, "submit_many"),
    "/datasets": _Route("POST", _datasets_call, "swap_datasets", "dataset"),
    "/objects": _Route("POST", _objects_call, "apply_objects", "applied"),
    "/rebalance": _Route(
        "POST", _rebalance_call, "rebalance", "rebalance",
        not_served="this server is not a sharded router; nothing to rebalance",
        client_errors=(ReproError, ValueError),
    ),
}


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> QueryHTTPServer:
    """Bind (but do not start) an HTTP server for ``service``.

    The caller owns both lifecycles: start the service, then
    ``serve_forever()`` (or drive ``handle_request()`` in tests), and shut
    both down afterwards.  ``port=0`` binds an ephemeral port, available as
    :attr:`QueryHTTPServer.port`.
    """
    return QueryHTTPServer((host, port), service, quiet=quiet)


__all__ = [
    "MAX_BODY_BYTES",
    "QueryHTTPServer",
    "make_server",
]
