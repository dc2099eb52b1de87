"""Minimal JSON-over-HTTP client the cluster router speaks to its nodes.

Stdlib only (:mod:`http.client`), like the server side: the cluster adds
no dependencies the container does not already have.

Two pieces of policy live here.  The first is **connection reuse**: instead
of paying a TCP handshake per router->node round-trip, the client keeps one
persistent HTTP/1.1 connection per ``(thread, host:port)`` pair and reuses
it across requests -- the router's scatter pool has stable threads, so the
pool needs no cross-thread locking, and heartbeats, queries and swaps all
ride warm connections.  A thread registers its pool once, so a router can
close every idle connection to its nodes on shutdown
(:func:`close_connections`), and a thread's connections are closed, not
left to the collector, once it has exited.  A reused connection can always
have gone stale (the node restarted, an idle timeout fired); the first
failure on a *previously used* connection is retried exactly once on a
fresh connection before it is reported, while a failure on a brand-new
connection is reported immediately -- that one was a real connect/request
failure, and retrying it would double the router's failover latency for
nothing.
:func:`pool_stats` exposes reuse counters for benchmarks and tests.

The second is the error taxonomy -- every failure a node request can
produce is folded into exactly two kinds:

* :class:`~repro.exceptions.InvalidQueryError` for an application-level
  4xx: the *request* is bad, every replica would reject it identically, so
  failing over would only repeat the rejection.  The node's own error
  message is surfaced unchanged.
* :class:`NodeTransportError` for everything else -- connection refused or
  reset, DNS failure, socket deadline, a 5xx, or an unparseable body: the
  *node* is bad (or unreachable), the request may well succeed on a
  replica, and the membership registry should hear about it.

This split is what makes the router's failover loop correct: it retries on
:class:`NodeTransportError` and propagates :class:`InvalidQueryError`.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, Iterable, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from repro.exceptions import InvalidQueryError, OverloadError


class NodeTransportError(Exception):
    """A node request failed in a way a replica retry might fix."""


# --------------------------------------------------------------------- #
# per-thread connection pool

#: Thread-local ``netloc -> (connection, completed_requests)`` pool.
_local = threading.local()

#: Every thread's pool, by thread, registered when the thread first needs
#: one (the per-request checkout takes no lock).  A pool outlives its
#: thread here until the next registration or :func:`close_connections`
#: closes it.
_pools_lock = threading.Lock()
_pools: Dict[threading.Thread, Dict[str, Tuple[http.client.HTTPConnection, int]]] = {}

_stats_lock = threading.Lock()
_stats = {
    "requests": 0,       # requests sent through the pooled path
    "reused": 0,         # requests that rode an already-used connection
    "opened": 0,         # fresh TCP connections established
    "stale_retries": 0,  # stale pooled connections retried on a fresh one
}


def pool_stats() -> Dict[str, int]:
    """Process-wide keep-alive counters (all threads' pools combined)."""
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


def _pool() -> Dict[str, Tuple[http.client.HTTPConnection, int]]:
    pool = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = {}
        with _pools_lock:
            _close_exited_pools()
            _pools[threading.current_thread()] = pool
    return pool


def _close_exited_pools() -> None:
    """Close and drop the pools of threads that have exited (lock held)."""
    for thread in [thread for thread in _pools if not thread.is_alive()]:
        for connection, _ in _pools.pop(thread).values():
            connection.close()


def _checkout(netloc: str, timeout: float) -> Tuple[http.client.HTTPConnection, bool]:
    """A connection to ``netloc``: ``(connection, previously_used)``.

    The per-request timeout is applied to the live socket of a reused
    connection (the construction-time timeout only covers the connect).
    """
    pool = _pool()
    entry = pool.pop(netloc, None)
    if entry is not None:
        connection, used = entry
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
            return connection, used > 0
        connection.close()
    connection = http.client.HTTPConnection(netloc, timeout=timeout)
    connection.connect()
    # Requests also go out as small writes; without TCP_NODELAY they can
    # stall behind the server's delayed ACK on an aged connection.
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    _bump("opened")
    return connection, False


def _checkin(netloc: str, connection: http.client.HTTPConnection, used: int) -> None:
    pool = _pool()
    previous = pool.pop(netloc, None)
    if previous is not None:
        previous[0].close()
    pool[netloc] = (connection, used)


def close_pooled_connections() -> None:
    """Close every pooled connection of the *calling* thread."""
    pool = getattr(_local, "pool", None)
    if pool:
        for connection, _ in pool.values():
            connection.close()
        pool.clear()


def close_connections(urls: Iterable[str]) -> None:
    """Close every idle pooled connection to the hosts of ``urls``, on every
    thread, and the pools of exited threads.

    Only idle connections sit in a pool (a request checks its connection
    out), so none is closed under a request; a thread that asks for a
    closed host again opens a fresh connection.
    """
    netlocs = {urlsplit(url).netloc for url in urls}
    with _pools_lock:
        _close_exited_pools()
        pools = list(_pools.values())
    for pool in pools:
        for netloc in netlocs:
            entry = pool.pop(netloc, None)
            if entry is not None:
                entry[0].close()


# --------------------------------------------------------------------- #
# public entry points


def get_json(url: str, timeout: float) -> Dict[str, object]:
    """GET ``url`` and decode the JSON body.

    Raises:
        NodeTransportError: on any connection, deadline, 5xx or decode
            failure.
        InvalidQueryError: on an application-level 4xx.
    """
    return _request_json(url, None, timeout)


def post_json(
    url: str, payload: Mapping[str, object], timeout: float
) -> Dict[str, object]:
    """POST ``payload`` as JSON to ``url`` and decode the JSON body.

    Raises:
        NodeTransportError: on any connection, deadline, 5xx or decode
            failure.
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
    data = None
    headers: Dict[str, str] = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    method = "GET" if data is None else "POST"
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    attempts = 0
    while True:
        try:
            connection, reused = _checkout(parts.netloc, timeout)
        except OSError as exc:
            # A fresh connection failed to even connect: the node is down.
            raise NodeTransportError(f"node request to {url} failed: {exc}") from exc
        attempts += 1
        _bump("requests")
        if reused:
            _bump("reused")
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            body = response.read()
            status = response.status
            keep = not response.will_close
        except (http.client.HTTPException, OSError) as exc:
            connection.close()
            if reused and attempts == 1:
                # A pooled connection can always have gone stale between
                # requests; one fresh-connection retry separates "node is
                # down" from "idle socket died".
                _bump("stale_retries")
                continue
            raise NodeTransportError(f"node request to {url} failed: {exc}") from exc
        if keep:
            _checkin(parts.netloc, connection, 1)
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
