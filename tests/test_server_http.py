"""Tests for the stdlib HTTP front-end of the query service."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import OverloadError
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig, make_server
from repro.server.http import _ServiceRequestHandler

GRID = 10


@pytest.fixture()
def live_server(small_uniform_dataset):
    """A started service behind a real HTTP server on an ephemeral port."""
    data, features = small_uniform_dataset
    service = QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=GRID),
        config=ServiceConfig(engines=1, default_grid_size=GRID),
    )
    with service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield service, f"http://127.0.0.1:{server.port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


def get(url: str):
    with urllib.request.urlopen(url) as reply:
        return reply.status, json.loads(reply.read())


def post(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request) as reply:
        return reply.status, reply.read()


def post_json(url: str, spec: dict):
    status, raw = post(url, json.dumps(spec).encode("utf-8"))
    return status, json.loads(raw)


def http_error(callable_, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args)
    error = excinfo.value
    return error.code, json.loads(error.read())


class TestQueryEndpoint:
    def test_matches_offline_execute(self, live_server, small_uniform_dataset):
        _, url = live_server
        data, features = small_uniform_dataset
        status, payload = post_json(
            f"{url}/query", {"keywords": ["w0001"], "k": 5, "radius": 2.0}
        )
        assert status == 200
        with SPQEngine(data, features) as engine:
            offline = raw_execute(
                engine,
                SpatialPreferenceQuery.create(k=5, radius=2.0, keywords={"w0001"}),
                algorithm="espq-sco",
                grid_size=GRID,
            )
        assert [(e["oid"], e["score"]) for e in payload["results"]] == [
            (e.obj.oid, e.score) for e in offline
        ]

    def test_repeat_is_cache_hit(self, live_server):
        _, url = live_server
        spec = {"keywords": ["w0002"], "k": 3, "radius": 2.0}
        _, first = post_json(f"{url}/query", spec)
        _, second = post_json(f"{url}/query", spec)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["results"] == first["results"]

    def test_auto_with_stats(self, live_server):
        _, url = live_server
        status, payload = post_json(f"{url}/query", {
            "keywords": ["w0003"], "k": 3, "radius": 2.0,
            "algorithm": "auto", "stats": True,
        })
        assert status == 200
        assert payload["planned_algorithm"] == "global-scan"
        assert payload["stats"]["algorithm"] == "global-scan"
        assert "simulated_seconds" not in payload["stats"]

    def test_invalid_json_is_400(self, live_server):
        _, url = live_server
        code, payload = http_error(post, f"{url}/query", b"{not json")
        assert code == 400
        assert "invalid JSON" in payload["error"]

    def test_unknown_field_is_400(self, live_server):
        _, url = live_server
        code, payload = http_error(
            post, f"{url}/query", json.dumps({"keyword": ["x"]}).encode()
        )
        assert code == 400
        assert "unknown request field" in payload["error"]

    def test_invalid_combination_is_400(self, live_server):
        _, url = live_server
        code, payload = http_error(post, f"{url}/query", json.dumps({
            "keywords": ["w0001"], "algorithm": "espq-len",
            "score_mode": "influence",
        }).encode())
        assert code == 400
        assert "score mode" in payload["error"]

    def test_oversized_body_is_400(self, live_server):
        from repro.server.http import MAX_BODY_BYTES

        _, url = live_server
        request = urllib.request.Request(
            f"{url}/query", data=b"{}", method="POST",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_survives_bad_requests(self, live_server):
        _, url = live_server
        for _ in range(3):
            http_error(post, f"{url}/query", b"garbage")
        status, payload = post_json(
            f"{url}/query", {"keywords": ["w0001"], "k": 2, "radius": 2.0}
        )
        assert status == 200
        assert payload["results"] is not None


class TestBatchEndpoint:
    def test_jsonl_in_jsonl_out(self, live_server):
        _, url = live_server
        body = (
            b'{"keywords": ["w0001"], "k": 2, "radius": 2.0}\n'
            b"# a comment line\n"
            b'{"keywords": ["w0002"], "k": 2, "radius": 2.0, "algorithm": "auto"}\n'
        )
        status, raw = post(f"{url}/batch", body)
        assert status == 200
        lines = [json.loads(line) for line in raw.decode().strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["keywords"] == ["w0001"]
        assert "planned_algorithm" in lines[1]

    def test_json_array_accepted(self, live_server):
        _, url = live_server
        body = json.dumps([
            {"keywords": ["w0001"], "k": 2, "radius": 2.0},
            {"keywords": ["w0003"], "k": 2, "radius": 2.0},
        ]).encode()
        status, raw = post(f"{url}/batch", body)
        assert status == 200
        assert len(raw.decode().strip().splitlines()) == 2

    def test_batch_validated_up_front(self, live_server):
        _, url = live_server
        body = (
            b'{"keywords": ["w0001"], "k": 2, "radius": 2.0}\n'
            b'{"keywords": [], "k": 2}\n'
        )
        code, payload = http_error(post, f"{url}/batch", body)
        assert code == 400
        assert "keywords" in payload["error"]

    def test_empty_body_is_400(self, live_server):
        _, url = live_server
        code, payload = http_error(post, f"{url}/batch", b"")
        assert code == 400
        assert "empty batch body" in payload["error"]

    def test_bad_line_is_400(self, live_server):
        _, url = live_server
        code, payload = http_error(post, f"{url}/batch", b"{oops\n")
        assert code == 400
        assert "line 1" in payload["error"]


class TestOperationalEndpoints:
    def test_healthz(self, live_server):
        _, url = live_server
        status, payload = get(f"{url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_stats_counters(self, live_server):
        service, url = live_server
        spec = {"keywords": ["w0004"], "k": 2, "radius": 2.0}
        post_json(f"{url}/query", spec)
        post_json(f"{url}/query", spec)
        status, stats = get(f"{url}/stats")
        assert status == 200
        assert stats["requests"]["submitted"] == 2
        assert stats["requests"]["result_cache_hits"] == 1
        assert stats["result_cache"]["hits"] == 1
        assert stats["index_cache"]["misses"] == 1
        assert stats["planner"] == {"mode": "on", "decisions": 0}
        assert stats["batching"]["batches"] == 1
        assert stats["engines"]["count"] == 1
        assert stats["dataset"]["version"] == 0

    def test_unknown_path_is_404(self, live_server):
        _, url = live_server
        code, payload = http_error(get, f"{url}/nope")
        assert code == 404
        assert "unknown path" in payload["error"]

    def test_wrong_methods_are_405(self, live_server):
        _, url = live_server
        code, _ = http_error(get, f"{url}/query")
        assert code == 405
        code, _ = http_error(post, f"{url}/stats", b"{}")
        assert code == 405

    def test_error_responses_close_the_connection(self, live_server):
        """Keep-alive clients must not desync after an undrained error."""
        import http.client

        _, url = live_server
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            # 405 without the body being read by the server...
            connection.request("POST", "/stats", body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Connection") == "close"
            response.read()
            # ...so the follow-up must transparently reconnect and succeed.
            connection.request(
                "POST", "/query",
                body=json.dumps(
                    {"keywords": ["w0001"], "k": 2, "radius": 2.0}
                ).encode(),
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["results"] is not None
        finally:
            connection.close()

    def test_concurrent_clients(self, live_server):
        _, url = live_server
        errors = []

        def hit(index: int) -> None:
            try:
                status, payload = post_json(f"{url}/query", {
                    "keywords": [f"w00{30 + index}"], "k": 2, "radius": 2.0,
                })
                assert status == 200
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class _SendallSpy:
    """A handler's socket, recording every ``sendall`` it is given."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def response_writes(monkeypatch):
    """Every ``sendall`` of every handler connection accepted from now on."""
    writes = []
    setup = _ServiceRequestHandler.setup

    def spying_setup(handler):
        handler.request = _SendallSpy(handler.request, writes)
        setup(handler)

    monkeypatch.setattr(_ServiceRequestHandler, "setup", spying_setup)
    return writes


class TestSingleWriteResponses:
    """A response leaves in one write: status line, headers and body."""

    def _exchange(self, connection, writes, method, path, body=None):
        before = len(writes)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        payload = response.read()
        assert len(writes) == before + 1, writes[before:]
        assert writes[-1].startswith(b"HTTP/1.1 %d " % response.status)
        assert writes[-1].endswith(b"\r\n\r\n" + payload)
        return response, json.loads(payload)

    def test_200_400_and_429_are_one_write_each(self, live_server, response_writes):
        import http.client

        service, url = live_server
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            response, payload = self._exchange(
                connection, response_writes, "GET", "/healthz"
            )
            assert response.status == 200 and payload["status"] == "ok"
            assert response.getheader("Connection") is None

            response, payload = self._exchange(
                connection, response_writes, "POST", "/query", b"{not json"
            )
            assert response.status == 400 and "error" in payload
            assert response.getheader("Connection") == "close"

            def shed(spec):
                raise OverloadError("admission queue full", retry_after_ms=2400.0)

            service.submit = shed
            response, payload = self._exchange(
                connection, response_writes, "POST", "/query",
                json.dumps({"keywords": ["w0001"], "k": 2}).encode(),
            )
            assert response.status == 429
            assert payload["shed"] is True and payload["retry_after_ms"] == 2400.0
            assert response.getheader("Retry-After") == "2"
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_keep_alive_client_reads_back_to_back_responses(
        self, live_server, response_writes
    ):
        import http.client

        _, url = live_server
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            connection.connect()
            sock = connection.sock
            for index in range(6):
                spec = {"keywords": [f"w00{10 + index}"], "k": 3, "radius": 2.0}
                _, payload = self._exchange(
                    connection, response_writes, "POST", "/query",
                    json.dumps(spec).encode(),
                )
                assert len(payload["results"]) <= 3
                _, health = self._exchange(
                    connection, response_writes, "GET", "/healthz"
                )
                assert health["status"] == "ok"
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()


class TestDatasetsEndpoint:
    """POST /datasets: online hot swap of the served dataset."""

    def test_swap_via_path(self, live_server, tmp_path, small_clustered_dataset):
        from repro.datagen.io import save_dataset

        service, url = live_server
        data_b, features_b = small_clustered_dataset
        dataset_path = tmp_path / "next.tsv"
        save_dataset(dataset_path, data_b, features_b)
        status, payload = post_json(
            f"{url}/datasets", {"path": str(dataset_path)}
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["dataset"]["version"] == 1
        assert payload["dataset"]["data_objects"] == len(data_b)
        _, stats = get(f"{url}/stats")
        assert stats["dataset"]["version"] == 1
        assert stats["dataset"]["swaps"] == 1

    def test_swap_via_inline_objects_and_cache_invalidation(self, live_server):
        _, url = live_server
        spec = {"keywords": ["swapword"], "k": 2, "radius": 2.0}
        post_json(f"{url}/query", spec)
        body = {
            "data_objects": [
                {"oid": "d1", "x": 1.0, "y": 1.0},
                {"oid": "d2", "x": 9.0, "y": 9.0},
            ],
            "feature_objects": [
                {"oid": "f1", "x": 1.5, "y": 1.0, "keywords": ["swapword"]},
            ],
        }
        status, payload = post_json(f"{url}/datasets", body)
        assert status == 200
        status, response = post_json(f"{url}/query", spec)
        assert status == 200
        assert response["cached"] is False  # version-keyed invalidation
        assert [entry["oid"] for entry in response["results"]] == ["d1"]

    def test_requests_during_swap_are_not_lost(self, live_server):
        service, url = live_server
        stop = threading.Event()
        errors = []

        def client():
            while not stop.is_set():
                try:
                    status, _ = post_json(f"{url}/query", {
                        "keywords": ["w0001"], "k": 2, "radius": 2.0,
                    })
                    assert status == 200
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        body = {
            "data_objects": [{"oid": "d1", "x": 1.0, "y": 1.0}],
            "feature_objects": [
                {"oid": "f1", "x": 1.5, "y": 1.0, "keywords": ["w0001"]},
            ],
        }
        status, _ = post_json(f"{url}/datasets", body)
        assert status == 200
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        _, stats = get(f"{url}/stats")
        assert stats["requests"]["failed"] == 0

    @pytest.mark.parametrize("body, fragment", [
        ({"path": "/no/such/file.tsv"}, "cannot read"),
        ({"path": ""}, "non-empty"),
        ({"bogus": 1}, "unknown field"),
        ({"path": "x.tsv", "data_objects": []}, "mutually exclusive"),
        ({"data_objects": [], "feature_objects": []}, "no data objects"),
        ({"data_objects": [{"oid": "d1"}]}, "malformed inline object"),
        ({"data_objects": "nope"}, "must be lists"),
    ])
    def test_invalid_swap_bodies_are_400(self, live_server, body, fragment):
        _, url = live_server
        code, payload = http_error(
            post, f"{url}/datasets", json.dumps(body).encode()
        )
        assert code == 400
        assert fragment in payload["error"]

    def test_get_datasets_is_405(self, live_server):
        _, url = live_server
        code, _ = http_error(get, f"{url}/datasets")
        assert code == 405

    def test_rebalance_on_sharded_router_is_404(self, small_uniform_dataset):
        """There is one shard layout and nothing re-derives it: ``/rebalance``
        is an unknown path on a sharded server too."""
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = small_uniform_dataset
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            server = make_server(router)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.port}"
            try:
                for body in (b"{}", json.dumps({"layout": "skew"}).encode()):
                    code, payload = http_error(post, f"{url}/rebalance", body)
                    assert code == 404
                    assert "unknown path" in payload["error"]
                code, _ = http_error(get, f"{url}/rebalance")
                assert code == 404
                _, stats = get(f"{url}/stats")
            finally:
                server.shutdown()
                server.server_close()
                thread.join()
        assert "rebalances" not in stats["sharding"]["balance"]
        assert stats["dataset"]["version"] == 0

    def test_rebalance_on_unsharded_service_is_404(self, live_server):
        _, url = live_server
        code, payload = http_error(post, f"{url}/rebalance", b"{}")
        assert code == 404
        assert "unknown path" in payload["error"]

    def test_sharded_server_serves_same_surface(self, small_uniform_dataset):
        """make_server over a ShardRouter: query, stats and swap all work."""
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = small_uniform_dataset
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            server = make_server(router)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{server.port}"
            try:
                status, payload = post_json(f"{url}/query", {
                    "keywords": ["w0001"], "k": 3, "radius": 2.0,
                })
                assert status == 200
                with SPQEngine(data, features, config=EngineConfig(grid_size=GRID)) as engine:
                    offline = raw_execute(
                        engine,
                        SpatialPreferenceQuery.create(
                            k=3, radius=2.0, keywords={"w0001"}
                        ),
                        algorithm="espq-sco", grid_size=GRID,
                    )
                assert [(e["oid"], e["score"]) for e in payload["results"]] == [
                    (e.obj.oid, e.score) for e in offline
                ]
                status, stats = get(f"{url}/stats")
                assert stats["sharding"]["shards"] == 2
                status, swap = post_json(f"{url}/datasets", {
                    "data_objects": [{"oid": "d1", "x": 0.0, "y": 0.0},
                                     {"oid": "d2", "x": 5.0, "y": 5.0}],
                    "feature_objects": [],
                })
                assert status == 200
                assert swap["dataset"]["version"] == 1
            finally:
                server.shutdown()
                server.server_close()
                thread.join()
