"""Minimal JSON-over-HTTP client the cluster router speaks to its nodes.

Stdlib only, like the server side: the cluster adds no dependencies the
container does not already have.  The client speaks just the HTTP/1.1 its
nodes answer with (:mod:`repro.server.http`): a request goes out in one
``sendall`` -- request line, ``Host``, ``Content-Type``,
``Content-Length`` and body together -- and the reader takes the status
line and the headers up to the blank line, honours only
``Content-Length`` and ``Connection: close`` (an HTTP/1.0 answer means
close too), then reads exactly the body.  A missing ``Content-Length``, a
short body or a bad status line is a :class:`NodeTransportError`.

Two pieces of policy live here.  The first is **connection reuse**: instead
of paying a TCP handshake per router->node round-trip, the client keeps
persistent HTTP/1.1 connections in one process-wide pool of idle
connections per ``host:port``.  A request checks the most recently used
one out and puts it back when the exchange is done, so the connections a
node sees track how many requests are in flight to it at once, not how
many threads ever talked to it: the scatter pool, the heartbeat thread,
the front door's request threads (a scatter queries its first shard on
the calling thread) and a ``/batch`` call's short-lived workers all ride
the same warm connections, however often clients reconnect.  A router
closes the idle connections to its nodes on shutdown
(:func:`close_connections`).  A reused connection can always have gone
stale (the node restarted, an idle timeout fired).  Only the stale
signature -- the send fails, or the node closes or resets the connection
before any status byte -- is retried, once, on a fresh
connection.  A timeout is reported at once: the node has the request and
is slow, and a retry would send it twice and wait two deadlines before
failover.  A failure on a brand-new connection is reported immediately
too -- that one was a real connect/request failure.
:func:`pool_stats` exposes reuse counters for benchmarks and tests.

The second is the error taxonomy -- every failure a node request can
produce is folded into exactly two kinds:

* :class:`~repro.exceptions.InvalidQueryError` for an application-level
  4xx: the *request* is bad, every replica would reject it identically, so
  failing over would only repeat the rejection.  The node's own error
  message is surfaced unchanged.
* :class:`NodeTransportError` for everything else -- connection refused or
  reset, DNS failure, socket deadline, a 5xx, a malformed response or an
  unparseable body: the *node* is bad (or unreachable), the request may
  well succeed on a replica, and the membership registry should hear about
  it.

This split is what makes the router's failover loop correct: it retries on
:class:`NodeTransportError` and propagates :class:`InvalidQueryError`.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple
from urllib.parse import SplitResult, urlsplit

from repro.exceptions import InvalidQueryError, OverloadError


class NodeTransportError(Exception):
    """A node request failed in a way a replica retry might fix."""


#: Longest status or header line, and most header lines, accepted from a
#: node (the limits :mod:`http.client` applies).
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Connection:
    """One keep-alive connection: the socket and its buffered reader."""

    def __init__(self, parts: SplitResult, timeout: float) -> None:
        self.sock = socket.create_connection((parts.hostname, parts.port or 80), timeout)
        # A request is one write, but a large one spans segments, and with
        # Nagle on its last segment can stall behind the node's delayed ACK.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(self, request: bytes) -> Optional[Tuple[int, bytes, bool]]:
        """Send ``request``; read ``(status, body, keep_alive)``.

        None when the connection was stale: the send failed, or the node
        closed or reset it before any status byte.  A timeout, or a
        failure once the status line is in, raises (``OSError`` /
        ``ValueError``).
        """
        try:
            self.sock.sendall(request)
            line = self.reader.readline(_MAX_LINE)
        except TimeoutError:
            raise
        except OSError:
            return None
        if not line:
            return None
        fields = line.split(None, 2)
        if (
            len(fields) < 2
            or not fields[0].startswith(b"HTTP/")
            or len(fields[1]) != 3
            or not fields[1].isdigit()
        ):
            raise ValueError(f"bad status line {line[:80]!r}")
        keep = fields[0] != b"HTTP/1.0"
        length = None
        for _ in range(_MAX_HEADERS + 1):
            line = self.reader.readline(_MAX_LINE)
            if not line.endswith(b"\n"):
                raise ValueError("response headers cut short or too long")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                keep = False
        else:
            raise ValueError(f"more than {_MAX_HEADERS} response headers")
        if length is None or length < 0:
            raise ValueError("response without a valid Content-Length")
        body = self.reader.read(length)
        if len(body) < length:
            raise ValueError(f"response body cut short at {len(body)} of {length} bytes")
        return int(fields[1]), body, keep


# --------------------------------------------------------------------- #
# shared connection pool

#: Most idle connections kept per node; one checked in past it is closed.
#: The scatter pool's ceiling, so a burst's connections are not churned.
_MAX_IDLE_PER_NODE = 64

#: ``netloc -> idle connections``, most recently used last.  A connection
#: sits here only between requests, each of which checks it out, so one
#: never serves two threads at once.
_idle_lock = threading.Lock()
_idle: Dict[str, List[_Connection]] = {}

_stats_lock = threading.Lock()
_stats = {
    "requests": 0,       # requests sent through the pooled path
    "reused": 0,         # requests that rode an already-used connection
    "opened": 0,         # fresh TCP connections established
    "stale_retries": 0,  # stale pooled connections retried on a fresh one
}


def pool_stats() -> Dict[str, int]:
    """Process-wide keep-alive counters."""
    with _stats_lock:
        return dict(_stats)


def reset_pool_stats() -> None:
    """Zero the counters (benchmark/test isolation)."""
    with _stats_lock:
        for key in _stats:
            _stats[key] = 0


def _bump(key: str) -> None:
    with _stats_lock:
        _stats[key] += 1


def _checkout(
    parts: SplitResult, timeout: float, fresh: bool
) -> Tuple[_Connection, bool]:
    """A connection to ``parts.netloc``: ``(connection, previously_used)``.

    The most recently used idle one unless ``fresh``; the per-request
    timeout is applied to its live socket (the construction-time timeout
    only covers the connect).
    """
    if not fresh:
        with _idle_lock:
            idle = _idle.get(parts.netloc)
            connection = idle.pop() if idle else None
        if connection is not None:
            connection.sock.settimeout(timeout)
            return connection, True
    connection = _Connection(parts, timeout)
    _bump("opened")
    return connection, False


def _checkin(netloc: str, connection: _Connection) -> None:
    with _idle_lock:
        idle = _idle.setdefault(netloc, [])
        if len(idle) < _MAX_IDLE_PER_NODE:
            idle.append(connection)
            return
    connection.close()


def _close_idle(netlocs: Optional[Set[str]]) -> None:
    with _idle_lock:
        closing = [
            connection
            for netloc in list(_idle)
            if netlocs is None or netloc in netlocs
            for connection in _idle.pop(netloc)
        ]
    for connection in closing:
        connection.close()


def close_pooled_connections() -> None:
    """Close every idle pooled connection, to every node."""
    _close_idle(None)


def close_connections(urls: Iterable[str]) -> None:
    """Close every idle pooled connection to the hosts of ``urls``.

    Only idle connections sit in the pool (a request checks its connection
    out), so none is closed under a request; the next request to a closed
    host opens a fresh connection.
    """
    _close_idle({urlsplit(url).netloc for url in urls})


# --------------------------------------------------------------------- #
# public entry points


def get_json(url: str, timeout: float) -> Dict[str, object]:
    """GET ``url`` and decode the JSON body.

    Raises:
        NodeTransportError: on any connection, deadline, 5xx, framing or
            decode failure.
        InvalidQueryError: on an application-level 4xx.
    """
    return _request_json(url, None, timeout)


def post_json(
    url: str, payload: Mapping[str, object], timeout: float
) -> Dict[str, object]:
    """POST ``payload`` as JSON to ``url`` and decode the JSON body.

    Raises:
        NodeTransportError: on any connection, deadline, 5xx, framing or
            decode failure.
        InvalidQueryError: on an application-level 4xx.
    """
    return _request_json(url, payload, timeout)


def _request_json(
    url: str, payload: Optional[Mapping[str, object]], timeout: float
) -> Dict[str, object]:
    parts = urlsplit(url)
    if parts.scheme != "http":
        raise NodeTransportError(
            f"unsupported node URL scheme {parts.scheme!r} in {url} "
            "(nodes speak plain http)"
        )
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    if payload is None:
        request = f"GET {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n\r\n".encode("latin-1")
    else:
        data = json.dumps(payload).encode("utf-8")
        request = (
            f"POST {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        ).encode("latin-1") + data
    fresh = False
    while True:
        try:
            connection, reused = _checkout(parts, timeout, fresh)
        except OSError as exc:
            # A fresh connection failed to even connect: the node is down.
            raise NodeTransportError(f"node request to {url} failed: {exc}") from exc
        _bump("requests")
        if reused:
            _bump("reused")
        try:
            response = connection.exchange(request)
        except (OSError, ValueError) as exc:
            connection.close()
            raise NodeTransportError(f"node request to {url} failed: {exc}") from exc
        if response is None:
            connection.close()
            if reused:
                # A pooled connection can always have gone stale between
                # requests; one fresh-connection retry separates "node is
                # down" from "idle socket died".  The retry's connection
                # is fresh, so it is never retried again.
                _bump("stale_retries")
                fresh = True
                continue
            raise NodeTransportError(
                f"node request to {url} failed: connection closed before a response"
            )
        status, body, keep = response
        if keep:
            _checkin(parts.netloc, connection)
        else:
            connection.close()
        if status >= 400:
            if status == 429:
                raise _overload_error(body)
            if status < 500:
                raise InvalidQueryError(_error_message(body, status))
            raise NodeTransportError(
                f"node returned HTTP {status} for {url}: "
                f"{_error_message(body, status)}"
            )
        return _decode_json(body, url)


def _decode_json(body: bytes, url: str) -> Dict[str, object]:
    try:
        decoded = json.loads(body)
    except ValueError as exc:
        raise NodeTransportError(
            f"node returned a non-JSON body for {url}"
        ) from exc
    if not isinstance(decoded, dict):
        raise NodeTransportError(
            f"node returned a non-object JSON body for {url}"
        )
    return decoded


def _overload_error(body: bytes) -> OverloadError:
    """Rebuild a shed node's :class:`OverloadError` from its 429 body.

    A 429 is not a bad request: folding it into the generic 4xx ->
    ``InvalidQueryError`` rule would make a shed look like a client bug.
    It is not retried on a replica either -- overload is a fleet
    condition, and hammering the other replica of a hot shard makes it
    worse -- so it propagates to the caller with the shed contract
    intact.
    """
    retry_after_ms = 50.0
    try:
        decoded = json.loads(body)
    except ValueError:
        decoded = None
    if isinstance(decoded, dict):
        value = decoded.get("retry_after_ms")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            retry_after_ms = float(value)
    return OverloadError(
        _error_message(body, 429),
        reason="queue_full",
        retry_after_ms=retry_after_ms,
    )


def _error_message(body: bytes, code: int) -> str:
    """The node's ``{"error": ...}`` message, or a fallback per status."""
    try:
        decoded = json.loads(body)
    except ValueError:
        return f"HTTP {code}"
    if isinstance(decoded, dict) and isinstance(decoded.get("error"), str):
        return decoded["error"]
    return f"HTTP {code}"


__all__ = [
    "NodeTransportError",
    "close_connections",
    "close_pooled_connections",
    "get_json",
    "pool_stats",
    "post_json",
    "reset_pool_stats",
]
