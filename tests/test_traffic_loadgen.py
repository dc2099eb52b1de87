"""The open-loop load generator of ``benchmarks/traffic_lab.py``: invariants,
ledger, reconciliation."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys
import threading
import time

import pytest

from repro.core.centralized import dataset_extent
from repro.server import QueryService, ServiceConfig, make_server

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "traffic_lab", ROOT / "benchmarks" / "traffic_lab.py"
)
traffic_lab = importlib.util.module_from_spec(_SPEC)
# Registered first: dataclasses look their module up while they are built.
sys.modules[_SPEC.name] = traffic_lab
_SPEC.loader.exec_module(traffic_lab)

HttpTarget = traffic_lab.HttpTarget
LoadGenerator = traffic_lab.LoadGenerator
OUTCOMES = traffic_lab.OUTCOMES
RequestRecord = traffic_lab.RequestRecord
ResultsLedger = traffic_lab.ResultsLedger
ScheduledRequest = traffic_lab.ScheduledRequest
SendResult = traffic_lab.SendResult
TrafficModel = traffic_lab.TrafficModel
WorkloadConfig = traffic_lab.WorkloadConfig


def _schedule(count, gap, spec=None, profile="steady"):
    spec = spec or {"keywords": ["w"], "k": 1}
    return [
        ScheduledRequest(
            index=i, send_at=i * gap, spec=spec, client=i % 4, profile=profile
        )
        for i in range(count)
    ]


class StubTarget:
    """A target with scripted latency and outcomes, for invariant tests."""

    def __init__(self, latency_seconds=0.0, outcome_for=None):
        self.latency_seconds = latency_seconds
        self.outcome_for = outcome_for or (lambda spec, client: SendResult("ok"))
        self.calls = []
        self._lock = threading.Lock()

    def send(self, spec, client, profile):
        with self._lock:
            self.calls.append((client, profile))
        if self.latency_seconds:
            time.sleep(self.latency_seconds)
        return self.outcome_for(spec, client)


class TestOpenLoopInvariant:
    def test_slow_server_does_not_delay_later_sends(self):
        """The defining property: send times never close the loop.

        10 requests 20ms apart against a 250ms-latency target: a
        closed-loop (serial) client would need ~2.5s; an open-loop one
        finishes in roughly schedule-span + one latency.
        """
        schedule = _schedule(10, 0.02)
        target = StubTarget(latency_seconds=0.25)
        generator = LoadGenerator(schedule, target)
        started = time.monotonic()
        ledger = generator.run()
        elapsed = time.monotonic() - started
        assert elapsed < 1.5  # closed loop would be >= 2.5s
        records = ledger.records
        assert len(records) == 10
        for record in records:
            # Scheduler lag stays bounded regardless of server latency.
            assert record.sent_at - record.scheduled_at < 0.15
        assert generator.lost == 0

    def test_send_spacing_is_independent_of_latency(self):
        schedule = _schedule(6, 0.05)
        target = StubTarget(latency_seconds=0.3)
        generator = LoadGenerator(schedule, target)
        ledger = generator.run()
        sent = sorted(r.sent_at for r in ledger.records)
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        # Every gap tracks the scheduled 50ms, not the 300ms latency.
        assert all(gap < 0.2 for gap in gaps)


class TestLedger:
    def test_every_scheduled_request_is_recorded_once(self):
        def outcome_for(spec, client):
            if client == 0:
                return SendResult("shed", status=429, retry_after_ms=5.0)
            if client == 1:
                return SendResult("error", error="boom")
            return SendResult("ok", status=200)

        schedule = _schedule(40, 0.001)
        generator = LoadGenerator(
            schedule, StubTarget(outcome_for=outcome_for)
        )
        ledger = generator.run()
        records = ledger.records
        assert [r.index for r in records] == list(range(40))
        summary = ledger.summary()
        assert summary["offered"] == 40
        assert summary["reconciled"] is True
        assert sum(summary["counts"].values()) == 40
        assert set(summary["counts"]) == set(OUTCOMES)
        assert summary["counts"]["shed"] == sum(
            1 for r in schedule if r.client == 0
        )

    def test_target_exception_becomes_error_outcome(self):
        class ExplodingTarget:
            def send(self, spec, client, profile):
                raise RuntimeError("target bug")

        generator = LoadGenerator(_schedule(3, 0.001), ExplodingTarget())
        ledger = generator.run()
        counts = ledger.counts()
        assert counts["error"] == 3
        assert all("target bug" in r.error for r in ledger.records)

    def test_summary_percentiles_and_goodput(self):
        ledger = ResultsLedger()
        for i in range(10):
            ledger.add(
                RequestRecord(
                    index=i,
                    client=0,
                    profile="steady",
                    scheduled_at=i * 0.01,
                    sent_at=i * 0.01,
                    latency_seconds=0.001 * (i + 1),
                    outcome="ok",
                    status=200,
                )
            )
        summary = ledger.summary()
        assert summary["counts"]["ok"] == 10
        assert summary["ok_latency_ms"]["p50"] == pytest.approx(6.0)
        assert summary["ok_latency_ms"]["max"] == pytest.approx(10.0)
        assert summary["goodput_rps"] > 0

    def test_jsonl_roundtrip(self, tmp_path):
        generator = LoadGenerator(_schedule(5, 0.001), StubTarget())
        ledger = generator.run()
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        decoded = [json.loads(line) for line in lines]
        assert [d["index"] for d in decoded] == list(range(5))
        assert all(d["outcome"] == "ok" for d in decoded)


class TestAgainstRealServer:
    @pytest.fixture()
    def live(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        service = QueryService(
            data,
            features,
            config=ServiceConfig(
                engines=2,
                admission_queue_depth=32,
                result_cache_capacity=128,
            ),
        )
        with service:
            server = make_server(service)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                yield service, features, data, f"http://127.0.0.1:{server.port}"
            finally:
                server.shutdown()
                server.server_close()
                thread.join()

    def test_ledger_reconciles_with_service_admission_counters(self, live):
        service, features, data, url = live
        model = TrafficModel(
            features,
            dataset_extent(data, features),
            WorkloadConfig(
                seed=17,
                duration_seconds=1.0,
                rate=60.0,
                slow_client_fraction=0.2,
                deadline_ms=5_000.0,
            ),
        )
        schedule = model.schedule()
        target = HttpTarget(url)
        generator = LoadGenerator(schedule, target)
        try:
            ledger = generator.run()
        finally:
            target.close()
        summary = ledger.summary()
        counts = summary["counts"]
        assert generator.lost == 0
        assert summary["reconciled"] is True
        assert summary["offered"] == len(schedule)
        # Under this mild load nothing may fail silently or noisily.
        assert counts["error"] == 0
        assert counts["timeout"] == 0
        # Server-side admission agrees with the client-side ledger:
        # every offered request is a completion or an explicit shed.
        snapshot = service.stats()["admission"]
        assert snapshot["offered"] == counts["ok"] + counts["shed"]
        assert snapshot["completed"] == counts["ok"]
        assert snapshot["shed"] == counts["shed"]
        assert snapshot["inflight"] == 0

    def test_keepalive_connections_are_reused(self, live):
        _, features, data, url = live
        model = TrafficModel(
            features,
            dataset_extent(data, features),
            WorkloadConfig(seed=19, duration_seconds=1.0, rate=40.0, clients=2),
        )
        target = HttpTarget(url)
        generator = LoadGenerator(model.schedule(), target)
        try:
            generator.run()
        finally:
            target.close()
        stats = target.reuse_stats()
        assert stats["requests"] >= 20
        # Persistent connections must actually persist: far fewer opens
        # than requests (the exact ratio depends on concurrency).
        assert stats["reuse_ratio"] > 1.5
