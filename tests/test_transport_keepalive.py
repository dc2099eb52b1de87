"""Keep-alive node transport: reuse, stale retry, taxonomy, response framing."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster import transport
from repro.cluster.transport import (
    NodeTransportError,
    close_pooled_connections,
    get_json,
    pool_stats,
    post_json,
    reset_pool_stats,
)
from repro.exceptions import InvalidQueryError, OverloadError

TIMEOUT = 5.0

#: How long ``POST /slow`` takes, against a deadline a third of it.
SLOW_SECONDS = 1.5
SLOW_DEADLINE = 0.5


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        # Requests served on *this* connection (one handler per connection).
        self.served = 0

    def _send(self, code: int, payload, content_type="application/json"):
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8")
        )
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.served += 1

    def do_GET(self):
        if self.path == "/bad":
            self._send(400, {"error": "bad query"})
        elif self.path == "/boom":
            self._send(500, {"error": "kaput"})
        elif self.path == "/notjson":
            self._send(200, b"<html>nope</html>", content_type="text/html")
        elif self.path == "/flaky":
            if self.served:
                # Drop the connection without a response: to the client the
                # pooled socket just went stale mid-reuse.
                self.close_connection = True
                return
            self._send(200, {"ok": True})
        else:
            self._send(200, {"ok": True, "served": self.served})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/slow":
            self.server.slow_posts += 1
            time.sleep(SLOW_SECONDS)
        elif self.path == "/hold":
            # Answer only once every request of the burst is in flight.
            self.server.barrier.wait(TIMEOUT)
        self._send(200, {"echo": payload})

    def log_message(self, *args):  # noqa: D102 - keep test output quiet
        pass


@pytest.fixture()
def server():
    instance = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    instance.slow_posts = 0
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture(autouse=True)
def clean_pool():
    close_pooled_connections()
    reset_pool_stats()
    yield
    close_pooled_connections()
    reset_pool_stats()


def url_of(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def burst(server, size: int) -> None:
    """``size`` concurrent ``POST /hold``, all in flight at once."""
    server.barrier = threading.Barrier(size)
    callers = [
        threading.Thread(target=post_json, args=(url_of(server, "/hold"), {}, TIMEOUT))
        for _ in range(size)
    ]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()


class TestConnectionReuse:
    def test_requests_ride_one_connection(self, server):
        for index in range(5):
            body = get_json(url_of(server, "/healthz"), timeout=TIMEOUT)
            assert body["ok"] is True
            assert body["served"] == index  # same handler, same connection
        stats = pool_stats()
        assert stats["requests"] == 5
        assert stats["opened"] == 1
        assert stats["reused"] == 4
        assert stats["stale_retries"] == 0

    def test_post_rides_the_same_pool(self, server):
        get_json(url_of(server, "/healthz"), timeout=TIMEOUT)
        echoed = post_json(url_of(server, "/query"), {"k": 3}, timeout=TIMEOUT)
        assert echoed == {"echo": {"k": 3}}
        assert pool_stats()["opened"] == 1

    def test_close_pooled_connections_forces_reopen(self, server):
        get_json(url_of(server, "/healthz"), timeout=TIMEOUT)
        close_pooled_connections()
        get_json(url_of(server, "/healthz"), timeout=TIMEOUT)
        assert pool_stats()["opened"] == 2

    def test_short_lived_threads_share_the_pool(self, server):
        for _ in range(5):
            caller = threading.Thread(
                target=get_json, args=(url_of(server, "/healthz"), TIMEOUT)
            )
            caller.start()
            caller.join()
        stats = pool_stats()
        assert (stats["requests"], stats["opened"], stats["reused"]) == (5, 1, 4)

    def test_concurrent_requests_open_one_connection_each(self, server, monkeypatch):
        """A burst opens a connection per request in flight; past the idle
        cap a checked-in connection is closed, not kept."""
        monkeypatch.setattr(transport, "_MAX_IDLE_PER_NODE", 1)
        burst(server, 3)
        assert pool_stats()["opened"] == 3
        burst(server, 2)  # one idle connection was kept: one more is opened
        stats = pool_stats()
        assert (stats["requests"], stats["opened"], stats["reused"]) == (5, 4, 1)

    def test_stale_retry_opens_a_fresh_connection(self, server):
        """The retry does not take the next idle connection, which may be
        just as stale: it is one retry, on a new connection."""
        burst(server, 2)  # two idle connections, each has served a request
        assert get_json(url_of(server, "/flaky"), timeout=TIMEOUT) == {"ok": True}
        stats = pool_stats()
        assert (stats["opened"], stats["stale_retries"]) == (3, 1)

    def test_stale_connection_retried_once(self, server):
        assert get_json(url_of(server, "/flaky"), timeout=TIMEOUT) == {"ok": True}
        # The second /flaky on the pooled connection is dropped server-side;
        # the client must retry it once on a fresh connection and succeed.
        assert get_json(url_of(server, "/flaky"), timeout=TIMEOUT) == {"ok": True}
        stats = pool_stats()
        assert stats["stale_retries"] == 1
        assert stats["opened"] == 2

    def test_timeout_on_a_reused_connection_is_not_retried(self, server):
        """A slow node is a timeout, not a stale connection: reported after
        one deadline, and the POST is not sent a second time."""
        get_json(url_of(server, "/healthz"), timeout=TIMEOUT)  # warm the pool
        started = time.perf_counter()
        with pytest.raises(NodeTransportError, match="timed out"):
            post_json(url_of(server, "/slow"), {"k": 1}, timeout=SLOW_DEADLINE)
        elapsed = time.perf_counter() - started
        assert SLOW_DEADLINE <= elapsed < 1.6 * SLOW_DEADLINE
        assert server.slow_posts == 1
        stats = pool_stats()
        assert stats["stale_retries"] == 0
        assert stats["reused"] == 1

    def test_fresh_connection_failure_is_not_retried(self):
        # Grab an ephemeral port with nothing listening on it.
        probe = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        host, port = probe.server_address[:2]
        probe.server_close()
        with pytest.raises(NodeTransportError):
            get_json(f"http://{host}:{port}/healthz", timeout=1.0)
        assert pool_stats()["stale_retries"] == 0


class TestErrorTaxonomy:
    def test_4xx_raises_invalid_query_with_node_message(self, server):
        with pytest.raises(InvalidQueryError, match="bad query"):
            get_json(url_of(server, "/bad"), timeout=TIMEOUT)

    def test_5xx_raises_transport_error(self, server):
        with pytest.raises(NodeTransportError, match="kaput"):
            get_json(url_of(server, "/boom"), timeout=TIMEOUT)

    def test_non_json_body_raises_transport_error(self, server):
        with pytest.raises(NodeTransportError, match="non-JSON"):
            get_json(url_of(server, "/notjson"), timeout=TIMEOUT)

    def test_non_http_scheme_raises_transport_error(self):
        with pytest.raises(NodeTransportError, match="'https'"):
            get_json("https://127.0.0.1:1/healthz", timeout=TIMEOUT)
        assert pool_stats()["requests"] == 0

    def test_errors_do_not_poison_the_pool(self, server):
        with pytest.raises(InvalidQueryError):
            get_json(url_of(server, "/bad"), timeout=TIMEOUT)
        assert get_json(url_of(server, "/healthz"), timeout=TIMEOUT)["ok"]
        # The 4xx response completed normally, so its connection was reused.
        assert pool_stats()["opened"] == 1


# --------------------------------------------------------------------- #
# the response reader, against a node that writes raw bytes


def _response(status: str, body: bytes, *headers: str, version="HTTP/1.1") -> bytes:
    head = [f"{version} {status}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _json_response(status: str, payload, *headers: str, version="HTTP/1.1") -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _response(
        status, body, "Content-Type: application/json",
        f"Content-Length: {len(body)}", *headers, version=version,
    )


class _RawNode:
    """A fake node on a raw listening socket.

    Every request it reads (request line, headers, ``Content-Length``
    body) is answered by ``respond(index)``, ``index`` counting the
    requests of the whole node: a ``(bytes, close)`` pair, written with
    ``dribble`` one byte per write, after which the connection is closed
    when ``close`` is true.
    """

    def __init__(self, respond, dribble: bool = False) -> None:
        self.respond = respond
        self.dribble = dribble
        self.requests = 0
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection: socket.socket) -> None:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with connection, connection.makefile("rb") as reader:
            while reader.readline():
                length = 0
                while True:
                    header = reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                index, self.requests = self.requests, self.requests + 1
                raw, close = self.respond(index)
                chunks = [raw[i:i + 1] for i in range(len(raw))] if self.dribble else [raw]
                for chunk in chunks:
                    connection.sendall(chunk)
                if close:
                    return

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()


@pytest.fixture()
def raw_node():
    nodes = []

    def start(respond, dribble=False):
        nodes.append(_RawNode(respond, dribble))
        return nodes[-1]

    yield start
    close_pooled_connections()
    for node in nodes:
        node.close()


class TestResponseReader:
    def test_dribbled_response_is_read_whole_and_pooled(self, raw_node):
        node = raw_node(
            lambda i: (_json_response("200 OK", {"ok": True, "n": i}), False),
            dribble=True,
        )
        assert get_json(node.url + "/healthz", timeout=TIMEOUT) == {"ok": True, "n": 0}
        assert post_json(node.url + "/query", {"k": 1}, timeout=TIMEOUT) == {"ok": True, "n": 1}
        assert node.connections == 1
        stats = pool_stats()
        assert (stats["opened"], stats["reused"]) == (1, 1)

    @pytest.mark.parametrize("close_header", ["Connection: close", "Connection: Close"])
    def test_connection_close_is_honoured(self, raw_node, close_header):
        node = raw_node(
            lambda i: (_json_response("200 OK", {"n": i}, close_header), True)
        )
        assert get_json(node.url + "/healthz", timeout=TIMEOUT) == {"n": 0}
        assert get_json(node.url + "/healthz", timeout=TIMEOUT) == {"n": 1}
        stats = pool_stats()
        assert (stats["opened"], stats["reused"], stats["stale_retries"]) == (2, 0, 0)
        assert node.connections == 2

    def test_http_1_0_answer_means_close(self, raw_node):
        node = raw_node(
            lambda i: (_json_response("200 OK", {"n": i}, version="HTTP/1.0"), True)
        )
        get_json(node.url + "/healthz", timeout=TIMEOUT)
        get_json(node.url + "/healthz", timeout=TIMEOUT)
        assert pool_stats()["opened"] == 2

    def test_missing_content_length_is_a_transport_error(self, raw_node):
        node = raw_node(lambda i: (_response("200 OK", b'{"ok": true}'), True))
        with pytest.raises(NodeTransportError, match="Content-Length"):
            get_json(node.url + "/healthz", timeout=TIMEOUT)

    def test_short_body_is_a_transport_error_and_not_pooled(self, raw_node):
        def respond(index):
            if index == 0:
                return _response("200 OK", b'{"ok": ', "Content-Length: 12"), True
            return _json_response("200 OK", {"ok": True}), False

        node = raw_node(respond)
        with pytest.raises(NodeTransportError, match="cut short"):
            post_json(node.url + "/query", {"k": 1}, timeout=TIMEOUT)
        assert get_json(node.url + "/healthz", timeout=TIMEOUT) == {"ok": True}
        stats = pool_stats()
        assert (stats["opened"], stats["reused"], stats["stale_retries"]) == (2, 0, 0)

    @pytest.mark.parametrize("headers, fails", [(100, False), (101, True)])
    def test_header_count_is_capped(self, raw_node, headers, fails):
        extra = [f"X-Filler-{i}: {i}" for i in range(headers - 1)]
        node = raw_node(lambda i: (_response("200 OK", b"{}", "Content-Length: 2", *extra), False))
        if fails:
            with pytest.raises(NodeTransportError, match="more than 100 response headers"):
                get_json(node.url + "/healthz", timeout=TIMEOUT)
        else:
            assert get_json(node.url + "/healthz", timeout=TIMEOUT) == {}

    @pytest.mark.parametrize("status_line", [b"garbage\r\n", b"HTTP/1.1 OK\r\n", b"ICY 200 OK\r\n"])
    def test_bad_status_line_is_a_transport_error(self, raw_node, status_line):
        node = raw_node(lambda i: (status_line + b"Content-Length: 2\r\n\r\n{}", True))
        with pytest.raises(NodeTransportError, match="bad status line"):
            get_json(node.url + "/healthz", timeout=TIMEOUT)

    def test_close_before_any_status_byte_on_a_fresh_connection(self, raw_node):
        node = raw_node(lambda i: (b"", True))
        with pytest.raises(NodeTransportError, match="closed before a response"):
            post_json(node.url + "/query", {"k": 1}, timeout=TIMEOUT)
        assert node.requests == 1
        assert pool_stats()["stale_retries"] == 0

    def test_429_rebuilds_the_overload_error(self, raw_node):
        shed = {"error": "admission queue full", "shed": True, "retry_after_ms": 1234.5}
        shed_response = _json_response(
            "429 Too Many Requests", shed, "Retry-After: 2", "Connection: close"
        )
        node = raw_node(lambda i: (shed_response, True))
        with pytest.raises(OverloadError, match="admission queue full") as excinfo:
            post_json(node.url + "/query", {"k": 1}, timeout=TIMEOUT)
        assert excinfo.value.retry_after_ms == 1234.5
        assert excinfo.value.reason == "queue_full"
