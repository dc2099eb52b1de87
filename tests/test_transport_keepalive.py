"""Keep-alive node transport: reuse, stale retry, taxonomy."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster.transport import (
    NodeTransportError,
    close_pooled_connections,
    get_json,
    pool_stats,
    post_json,
    reset_pool_stats,
)
from repro.exceptions import InvalidQueryError

TIMEOUT = 5.0


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
        self._send(200, {"echo": payload})

    def log_message(self, *args):  # noqa: D102 - keep test output quiet
        pass


@pytest.fixture()
def server():
    instance = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
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

    def test_stale_connection_retried_once(self, server):
        assert get_json(url_of(server, "/flaky"), timeout=TIMEOUT) == {"ok": True}
        # The second /flaky on the pooled connection is dropped server-side;
        # the client must retry it once on a fresh connection and succeed.
        assert get_json(url_of(server, "/flaky"), timeout=TIMEOUT) == {"ok": True}
        stats = pool_stats()
        assert stats["stale_retries"] == 1
        assert stats["opened"] == 2

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
