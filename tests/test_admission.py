"""Admission control: bounded queue, deadlines, the 429 shed contract.

Overload is made deterministic by gating the engines: ``execute_many``
blocks on an event until the test releases it, so "the queue is full"
is a constructed fact, not a race won by a fast machine.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.exceptions import OverloadError
from repro.server import QueryService, ServiceConfig, make_server
from repro.server.admission import (
    AdmissionController,
    COLD_RETRY_AFTER_MS,
    MAX_RETRY_AFTER_MS,
    MIN_RETRY_AFTER_MS,
    shed_payload,
)

KEYWORDS = None  # filled by _spec from the dataset


def _spec(features, index=0, **extra):
    """A valid query spec using a real keyword of the dataset."""
    words = sorted({w for f in features[:50] for w in f.keywords})
    spec = {"keywords": [words[index % len(words)]], "k": 5}
    spec.update(extra)
    return spec


def _gate_engines(service):
    """Make every engine block until released; returns (started, release).

    ``started`` fires when the first gated call begins executing --
    after that, every admitted slot the test fills stays filled until
    ``release`` fires.  A router's engines are its shard services'.
    """
    started = threading.Event()
    release = threading.Event()
    services = getattr(service, "services", [service])
    for engine in [e for shard in services for e in shard._engines]:
        original = engine.execute_many

        def gated(items, _original=original, **kwargs):
            started.set()
            assert release.wait(20), "test gate never released"
            return _original(items, **kwargs)

        engine.execute_many = gated
    return started, release


def _submit_async(service, spec):
    """Fire submit() on a thread; returns a dict the thread fills in."""
    outcome = {}

    def run():
        try:
            outcome["response"] = service.submit(spec)
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    outcome["thread"] = thread
    return outcome


def _reconciled(snapshot):
    """The admission counter invariants (see docs/traffic.md)."""
    assert snapshot["offered"] >= (
        snapshot["shed_queue_full"] + snapshot["shed_deadline"]
    )
    assert snapshot["admitted"] == (
        snapshot["completed"]
        + snapshot["failed"]
        + snapshot["deadline_miss"]
        + snapshot["inflight"]
    )
    assert snapshot["shed"] == (
        snapshot["shed_queue_full"]
        + snapshot["shed_deadline"]
        + snapshot["deadline_miss"]
    )


# --------------------------------------------------------------------- #
# controller unit tests


class TestAdmissionController:
    def test_disabled_by_default(self):
        controller = AdmissionController()
        assert not controller.enabled
        assert controller.resolve_deadline(50.0) is None
        assert controller.overloaded() is None
        controller.on_arrival(None)
        controller.acquire()
        controller.release("completed", 0.01)
        snapshot = controller.snapshot()
        assert not snapshot["enabled"]
        # A disabled controller counts nothing: every hook is a no-op.
        assert snapshot["offered"] == 0
        assert snapshot["inflight"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_depth": -1},
            {"queue_depth": 1, "default_deadline_ms": 0.0},
            {"queue_depth": 1, "default_deadline_ms": -5.0},
        ],
    )
    def test_bad_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)

    def test_queue_full_sheds_with_reason(self):
        controller = AdmissionController(queue_depth=1)
        controller.on_arrival(None)
        controller.acquire()
        controller.on_arrival(None)
        with pytest.raises(OverloadError) as excinfo:
            controller.acquire()
        assert excinfo.value.reason == "queue_full"
        assert MIN_RETRY_AFTER_MS <= excinfo.value.retry_after_ms <= (
            MAX_RETRY_AFTER_MS
        )
        controller.release("completed", 0.01)
        _reconciled(controller.snapshot())

    def test_deadline_resolution_and_expiry(self):
        controller = AdmissionController(queue_depth=4)
        deadline = controller.resolve_deadline(10_000.0)
        assert deadline is not None and deadline > time.monotonic()
        assert not controller.expired_in_queue(deadline)
        assert controller.expired_in_queue(time.monotonic() - 0.001)
        assert controller.expired_in_queue(None) is False
        error = controller.queue_expiry_error()
        assert error.reason == "deadline"

    def test_default_deadline_applies_when_spec_has_none(self):
        controller = AdmissionController(
            queue_depth=4, default_deadline_ms=5.0
        )
        deadline = controller.resolve_deadline(None)
        assert deadline is not None
        time.sleep(0.02)
        assert controller.expired_in_queue(deadline)

    def test_retry_after_tracks_admitted_latency(self):
        controller = AdmissionController(queue_depth=8)
        assert controller.retry_after_ms() == COLD_RETRY_AFTER_MS
        for _ in range(4):
            controller.on_arrival(None)
            controller.acquire()
        for _ in range(2):
            controller.release("completed", 0.010)
        # Two still in flight at ~10ms each: the estimate is latency x
        # inflight, clamped into the configured band.
        estimate = controller.retry_after_ms()
        assert estimate == pytest.approx(20.0, rel=0.01)
        controller.release("completed", 0.010)
        controller.release("completed", 0.010)
        _reconciled(controller.snapshot())

    def test_release_rejects_unknown_outcome(self):
        controller = AdmissionController(queue_depth=1)
        controller.on_arrival(None)
        controller.acquire()
        with pytest.raises(ValueError):
            controller.release("finished")

    def test_shed_payload_shape(self):
        payload = shed_payload("queue full", 12.5)
        assert payload == {
            "error": "queue full",
            "shed": True,
            "retry_after_ms": 12.5,
        }


# --------------------------------------------------------------------- #
# service-level behavior


class TestServiceAdmission:
    @pytest.fixture()
    def service(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        service = QueryService(
            data,
            features,
            config=ServiceConfig(
                engines=1,
                admission_queue_depth=2,
                result_cache_capacity=64,
            ),
        )
        with service:
            yield service, features

    def test_queue_full_is_explicit_429_material(self, service):
        service, features = service
        started, release = _gate_engines(service)
        first = _submit_async(service, _spec(features, 0))
        assert started.wait(10)
        second = _submit_async(service, _spec(features, 1))
        time.sleep(0.1)  # let it take the last slot
        with pytest.raises(OverloadError) as excinfo:
            service.submit(_spec(features, 2))
        assert excinfo.value.reason == "queue_full"
        release.set()
        first["thread"].join(10)
        second["thread"].join(10)
        assert "response" in first and "response" in second
        snapshot = service.stats()["admission"]
        assert snapshot["shed_queue_full"] == 1
        assert snapshot["completed"] == 2
        _reconciled(snapshot)

    def test_deadline_expired_in_queue_never_reaches_engine(self, service):
        service, features = service
        started, release = _gate_engines(service)
        calls_before = []
        blocker = _submit_async(service, _spec(features, 0))
        assert started.wait(10)
        doomed_spec = _spec(features, 1, deadline_ms=30.0, algorithm="auto")
        doomed = _submit_async(service, doomed_spec)
        time.sleep(0.15)  # let its budget expire while queued
        decisions_before = self._planner_decisions(service)
        release.set()
        blocker["thread"].join(10)
        doomed["thread"].join(10)
        assert isinstance(doomed.get("error"), OverloadError)
        assert doomed["error"].reason == "deadline"
        assert "never executed" in str(doomed["error"])
        # The expired ``auto`` request reached neither the result cache nor
        # the planner: no decision was counted for it, and re-submitting
        # the same query is a cache miss that the planner does count.
        assert self._planner_decisions(service) == decisions_before
        fresh_spec = dict(doomed_spec)
        fresh_spec.pop("deadline_ms")
        response = service.submit(fresh_spec)
        assert response.get("cached", False) is False
        assert self._planner_decisions(service) == decisions_before + 1
        snapshot = service.stats()["admission"]
        assert snapshot["deadline_miss"] == 1
        _reconciled(snapshot)
        del calls_before

    def test_deadline_expired_at_a_paused_gate_is_shed_inline(self, service):
        """The inline path sheds as the queued one does: a request that
        found an engine idle, then waited at a swap's paused gate past its
        budget, fails with the queue-expiry error and never runs."""
        service, features = service
        started, release = _gate_engines(service)
        release.set()
        with service._gate.paused():
            doomed = _submit_async(
                service, _spec(features, 1, deadline_ms=30.0)
            )
            time.sleep(0.15)  # its budget expires at the gate
            # Held at the gate on an engine of its own, not queued.
            assert service.stats()["batching"]["queue_depth"] == 0
            assert doomed["thread"].is_alive()
        doomed["thread"].join(10)
        assert isinstance(doomed.get("error"), OverloadError)
        assert doomed["error"].reason == "deadline"
        assert "never executed" in str(doomed["error"])
        assert not started.is_set()
        snapshot = service.stats()["admission"]
        assert snapshot["deadline_miss"] == 1
        _reconciled(snapshot)

    @staticmethod
    def _planner_decisions(service):
        return service.stats()["planner"]["decisions"]

    def test_cache_hits_bypass_the_queue(self, service):
        service, features = service
        spec = _spec(features, 3)
        service.submit(spec)
        started, release = _gate_engines(service)
        blocker = _submit_async(service, _spec(features, 4))
        assert started.wait(10)
        second = _submit_async(service, _spec(features, 5))
        time.sleep(0.1)
        # Queue is full (depth 2) -- but a cached answer needs no slot.
        response = service.submit(spec)
        assert response["cached"] is True
        release.set()
        blocker["thread"].join(10)
        second["thread"].join(10)
        snapshot = service.stats()["admission"]
        assert snapshot["shed"] == 0
        _reconciled(snapshot)

    def test_batch_surface_bypasses_admission(self, service):
        service, features = service
        before = service.stats()["admission"]["offered"]
        responses = service.submit_many(
            [_spec(features, i) for i in range(3)]
        )
        assert len(responses) == 3
        assert service.stats()["admission"]["offered"] == before

    def test_swap_during_overload_loses_nothing(
        self, service, small_uniform_dataset
    ):
        service, features = service
        data, _ = small_uniform_dataset
        started, release = _gate_engines(service)
        outcomes = [_submit_async(service, _spec(features, i)) for i in range(2)]
        assert started.wait(10)
        swap = threading.Thread(
            target=service.swap_datasets, args=(data, features), daemon=True
        )
        swap.start()
        time.sleep(0.1)
        release.set()
        swap.join(20)
        assert not swap.is_alive()
        for outcome in outcomes:
            outcome["thread"].join(10)
            assert "response" in outcome or isinstance(
                outcome.get("error"), OverloadError
            )
        snapshot = service.stats()["admission"]
        assert snapshot["inflight"] == 0
        _reconciled(snapshot)


# --------------------------------------------------------------------- #
# sharded / routed admission


class TestShardRouterAdmission:
    """The cache-bypass and batch-bypass rules hold in every deployment
    mode: the same two tests, over a 2-shard router instead of a service."""

    @pytest.fixture()
    def service(self, small_uniform_dataset):
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = small_uniform_dataset
        router = ShardRouter(
            data,
            features,
            service_config=ServiceConfig(
                engines=1,
                admission_queue_depth=2,
                result_cache_capacity=64,
            ),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            yield router, features

    test_cache_hits_bypass_the_queue = (
        TestServiceAdmission.test_cache_hits_bypass_the_queue
    )
    test_batch_surface_bypasses_admission = (
        TestServiceAdmission.test_batch_surface_bypasses_admission
    )


class TestRoutedAdmission:
    def test_shard_router_admission_gates_at_the_front(
        self, small_uniform_dataset
    ):
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = small_uniform_dataset
        router = ShardRouter(
            data,
            features,
            service_config=ServiceConfig(
                engines=1, admission_queue_depth=1
            ),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            # Admission is enforced once, at the router: per-shard
            # services run with it disabled (a shard shedding one
            # scatter leg would tear the merged answer apart).
            assert all(
                not shard.admission.enabled for shard in router.services
            )
            gates = [_gate_engines(shard) for shard in router.services]
            blocker = _submit_async(router, _spec(features, 0))
            assert any(started.wait(10) for started, _ in gates)
            with pytest.raises(OverloadError) as excinfo:
                router.submit(_spec(features, 1))
            assert excinfo.value.reason == "queue_full"
            for _, release in gates:
                release.set()
            blocker["thread"].join(10)
            assert "response" in blocker
            snapshot = router.stats()["admission"]
            assert snapshot["shed_queue_full"] == 1
            _reconciled(snapshot)


# --------------------------------------------------------------------- #
# the HTTP shed contract


class TestHttpShedContract:
    @pytest.fixture()
    def overloaded_server(self, small_uniform_dataset):
        """A live server with depth 1 whose only slot the test occupies."""
        data, features = small_uniform_dataset
        service = QueryService(
            data,
            features,
            config=ServiceConfig(engines=1, admission_queue_depth=1),
        )
        with service:
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            started, release = _gate_engines(service)
            blocker = _submit_async(service, _spec(features, 0))
            assert started.wait(10)
            try:
                yield service, features, server.port
            finally:
                release.set()
                blocker["thread"].join(10)
                server.shutdown()
                server.server_close()
                thread.join()

    def test_shed_is_a_well_formed_429_that_closes(self, overloaded_server):
        _, features, port = overloaded_server
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request(
                "POST",
                "/query",
                body=json.dumps(_spec(features, 1)).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 429
            assert body["shed"] is True
            assert isinstance(body["retry_after_ms"], (int, float))
            assert body["retry_after_ms"] >= 1.0
            assert isinstance(body["error"], str)
            assert response.getheader("Connection") == "close"
            assert int(response.getheader("Retry-After")) >= 1
        finally:
            connection.close()

    def test_fast_shed_answers_before_reading_the_body(
        self, overloaded_server
    ):
        """Regression: a shed with an unread body must not desync keep-alive.

        The fast-shed path answers 429 *before* reading the request body.
        If the server then kept the connection open, the unread body bytes
        would be parsed as the start of the next request -- so the 429
        must close the connection, and the client must observe EOF.
        """
        _, features, port = overloaded_server
        body = json.dumps(_spec(features, 1)).encode()
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            # Declare the full body but send only half of it: a correct
            # fast-shed answers anyway (it never waits for the body).
            head = (
                f"POST /query HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"\r\n"
            ).encode()
            sock.sendall(head + body[: len(body) // 2])
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            status_line = response.split(b"\r\n", 1)[0]
            assert b"429" in status_line
            assert b"connection: close" in response.lower()
            # Drain to EOF: the server must actually close, otherwise the
            # half-sent body would poison the next request on this socket.
            sock.settimeout(10)
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
        finally:
            sock.close()

    def test_counters_reconcile_over_http(self, overloaded_server):
        service, features, port = overloaded_server
        for index in range(3):
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=10
            )
            try:
                connection.request(
                    "POST",
                    "/query",
                    body=json.dumps(_spec(features, index + 1)).encode(),
                    headers={"Content-Type": "application/json"},
                )
                assert connection.getresponse().status == 429
            finally:
                connection.close()
        snapshot = service.stats()["admission"]
        assert snapshot["shed_queue_full"] == 3
        _reconciled(snapshot)
