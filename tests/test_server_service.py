"""Tests for the query service: identity, batching, caching, stats."""

from __future__ import annotations

import json
import threading
import time

import pytest

from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import InvalidQueryError
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig, batching
from repro.server.cache import ResultCache

GRID = 10


def make_service(dataset, **service_kwargs) -> QueryService:
    data, features = dataset
    service_kwargs.setdefault("engines", 1)
    service_kwargs.setdefault("default_grid_size", GRID)
    return QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=GRID),
        config=ServiceConfig(**service_kwargs),
    )


@pytest.fixture()
def service(small_uniform_dataset):
    with make_service(small_uniform_dataset) as svc:
        yield svc


class TestSubmitIdentity:
    def test_submit_matches_offline_execute(self, service, small_uniform_dataset):
        data, features = small_uniform_dataset
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0}
        response = service.submit(spec)
        with SPQEngine(data, features) as engine:
            offline = raw_execute(
                engine,
                SpatialPreferenceQuery.create(k=5, radius=2.0, keywords={"w0001"}),
                algorithm="espq-sco",
                grid_size=GRID,
            )
        assert [(e["oid"], e["score"]) for e in response["results"]] == [
            (e.obj.oid, e.score) for e in offline
        ]
        assert response["cached"] is False
        assert response["algorithm"] == "espq-sco"

    def test_submit_many_returns_input_order(self, service):
        specs = [
            {"keywords": [f"w000{i}"], "k": 3, "radius": 2.0} for i in (1, 2, 3)
        ]
        responses = service.submit_many(specs)
        assert [r["keywords"] for r in responses] == [s["keywords"] for s in specs]

    def test_auto_reports_planned_algorithm(self, service):
        response = service.submit(
            {"keywords": ["w0002"], "k": 3, "radius": 2.0, "algorithm": "auto"}
        )
        assert response["planned_algorithm"] == "global-scan"

    def test_stats_flag_attaches_stats(self, service):
        response = service.submit(
            {"keywords": ["w0002"], "k": 3, "radius": 2.0, "stats": True}
        )
        assert "simulated_seconds" in response["stats"]
        bare = service.submit({"keywords": ["w0002"], "k": 3, "radius": 2.0})
        assert "stats" not in bare

    def test_response_is_json_serializable(self, service):
        response = service.submit(
            {"keywords": ["w0001"], "k": 2, "radius": 2.0, "stats": True}
        )
        json.dumps(response)


class TestResultCache:
    def test_repeat_hits_cache(self, service):
        spec = {"keywords": ["w0003"], "k": 4, "radius": 2.0}
        first = service.submit(spec)
        batches_after_first = service.stats()["batching"]["batches"]
        second = service.submit(spec)
        assert first["cached"] is False
        assert second["cached"] is True
        # The hit never reached an engine: no new micro-batch ran.
        assert service.stats()["batching"]["batches"] == batches_after_first
        assert second["results"] == first["results"]

    def test_cached_hit_can_still_attach_stats(self, service):
        spec = {"keywords": ["w0003"], "k": 4, "radius": 2.0}
        service.submit(spec)
        with_stats = service.submit({**spec, "stats": True})
        assert with_stats["cached"] is True
        assert "simulated_seconds" in with_stats["stats"]

    def test_equivalent_spellings_share_an_entry(self, service):
        first = service.submit(
            {"keywords": ["w0004", "w0005"], "k": 4, "radius": 2.0}
        )
        second = service.submit(
            {"keywords": "w0005,w0004", "k": 4, "radius": 2.0}
        )
        third = service.submit(
            {"keywords": [" w0005", "w0004 "], "k": 4, "radius": 2.0}
        )
        assert first["cached"] is False
        assert second["cached"] is True
        assert third["cached"] is True

    def test_cached_entries_are_isolated_from_caller_mutation(self, service):
        spec = {"keywords": ["w0008"], "k": 3, "radius": 2.0, "stats": True}
        first = service.submit(spec)
        first["stats"]["index"]["candidate_features"] = "clobbered"
        first["results"].clear()
        second = service.submit(spec)
        assert second["cached"] is True
        assert second["results"] != []
        # The clobbered key never reached the cached copy.
        assert second["stats"]["index"]["candidate_features"] != "clobbered"

    def test_dataset_swap_invalidates(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        with make_service(small_uniform_dataset) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            service.submit(spec)
            service.swap_datasets(data[: len(data) // 2], features)
            response = service.submit(spec)
            assert response["cached"] is False

    def test_dataset_swap_rederives_default_radius(self, small_uniform_dataset):
        from repro.model.objects import DataObject, FeatureObject

        with make_service(small_uniform_dataset) as service:
            old_radius = service.submit({"keywords": ["w0001"], "k": 1})["radius"]
            # A much larger extent must re-derive a proportionally larger
            # default radius: 10% of the new grid's cell side.
            service.swap_datasets(
                [DataObject("d1", 0.0, 0.0), DataObject("d2", 10_000.0, 10_000.0)],
                [FeatureObject("f1", 5_000.0, 5_000.0, frozenset({"w0001"}))],
            )
            new_radius = service.submit({"keywords": ["w0001"], "k": 1})["radius"]
            assert new_radius == pytest.approx(10_000.0 / GRID * 0.10)
            assert new_radius > old_radius * 50

    def test_capacity_zero_disables(self, small_uniform_dataset):
        with make_service(
            small_uniform_dataset, result_cache_capacity=0
        ) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            assert service.submit(spec)["cached"] is False
            assert service.submit(spec)["cached"] is False
            assert service.stats()["result_cache"]["hits"] == 0

    def test_cache_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_submit_many_mixes_hits_and_misses(self, service):
        spec = {"keywords": ["w0006"], "k": 3, "radius": 2.0}
        other = {"keywords": ["w0007"], "k": 3, "radius": 2.0}
        service.submit(spec)
        responses = service.submit_many([spec, other, spec])
        assert [r["cached"] for r in responses] == [True, False, True]
        assert responses[0]["keywords"] == ["w0006"]
        assert responses[1]["keywords"] == ["w0007"]


class TestValidation:
    @pytest.mark.parametrize("spec", [
        {"keywords": []},
        {"keywords": "   "},
        {"keywords": ["w0001"], "k": 0},
        {"keywords": ["w0001"], "k": True},
        {"keywords": ["w0001"], "radius": "big"},
        {"keywords": ["w0001"], "radius": float("nan")},
        {"keywords": ["w0001"], "radius": float("inf")},
        {"keywords": ["w0001"], "grid_size": 0},
        {"keywords": ["w0001"], "algorithm": "bogus"},
        {"keywords": ["w0001"], "score_mode": "bogus"},
        {"keywords": ["w0001"], "algorithm": "auto", "score_mode": "influence"},
        {"keywords": ["w0001"], "stats": "yes"},
        {"keywords": ["w0001"], "keyword": ["typo"]},
        "not an object",
    ])
    def test_invalid_requests_rejected(self, service, spec):
        with pytest.raises(InvalidQueryError):
            service.submit(spec)

    def test_invalid_request_does_not_fail_others(self, service):
        with pytest.raises(InvalidQueryError):
            service.submit({"keywords": ["w0001"], "k": -1})
        response = service.submit({"keywords": ["w0001"], "k": 3, "radius": 2.0})
        assert response["results"] is not None

    def test_not_started_rejected(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit({"keywords": ["w0001"]})
        service.shutdown()

    def test_submit_after_shutdown_rejected(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        service.start()
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit({"keywords": ["w0001"]})

    def test_cached_spec_after_shutdown_rejected(self, small_uniform_dataset):
        """Regression: the result cache must not outlive the service."""
        service = make_service(small_uniform_dataset)
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        with service:
            service.submit(spec)
            assert service.submit(spec)["cached"] is True
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(spec)


class TestMicroBatching:
    def test_concurrent_requests_share_batches(
        self, small_uniform_dataset, monkeypatch
    ):
        """Natural batching: while the one dispatcher is held on a batch,
        more than ``MAX_BATCH`` requests queue up; released, it takes them
        together, at most ``MAX_BATCH`` to a batch."""
        held, release = threading.Event(), threading.Event()
        real_execute_many = SPQEngine.execute_many

        def hold_first_batch(engine, *args, **kwargs):
            if not held.is_set():
                held.set()
                release.wait(timeout=30)
            return real_execute_many(engine, *args, **kwargs)

        monkeypatch.setattr(SPQEngine, "execute_many", hold_first_batch)
        queued = batching.MAX_BATCH + 2
        specs = [
            {"keywords": [f"w00{10 + i}"], "k": 3, "radius": 2.0}
            for i in range(1 + queued)
        ]
        with make_service(
            small_uniform_dataset, engines=1, result_cache_capacity=0
        ) as service:
            threads = [
                threading.Thread(target=service.submit, args=(spec,))
                for spec in specs
            ]
            threads[0].start()
            assert held.wait(timeout=30)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 30
            while service.stats()["batching"]["queue_depth"] < queued:
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join()
            stats = service.stats()["batching"]
        assert stats["batched_requests"] == 1 + queued
        assert 2 <= stats["max_batch_observed"] <= batching.MAX_BATCH
        assert stats["max_batch"] == batching.MAX_BATCH

    def test_execution_error_fails_request_not_service(
        self, service, monkeypatch
    ):
        def boom(self, *args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(SPQEngine, "execute_many", boom)
        with pytest.raises(RuntimeError, match="engine exploded"):
            service.submit({"keywords": ["w0021"], "k": 3, "radius": 2.0})
        monkeypatch.undo()
        response = service.submit({"keywords": ["w0021"], "k": 3, "radius": 2.0})
        assert response["cached"] is False
        stats = service.stats()["requests"]
        assert stats["failed"] == 1
        assert stats["completed"] >= 1


class TestLifecycle:
    def test_shutdown_idempotent_and_engines_reclosable(
        self, small_uniform_dataset
    ):
        service = make_service(small_uniform_dataset, engines=2)
        service.start()
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        service.shutdown()
        service.shutdown()  # restart-path double shutdown
        for engine in service.engines:
            engine.close()  # close-while-pooled: already closed by shutdown
            engine.close()
        assert service.closed

    def test_start_idempotent(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        service.start()
        service.start()
        service.shutdown()

    def test_engine_pool_shares_index_cache(self, small_uniform_dataset):
        with make_service(
            small_uniform_dataset,
            engines=2,
            result_cache_capacity=0,
        ) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            for _ in range(4):
                service.submit(spec)
            cache = service.stats()["index_cache"]
            # One build ever, however many engines served the requests.
            assert cache["misses"] == 1
            assert cache["hits"] >= 3

    def test_rejects_nonpositive_engine_pool(self, small_uniform_dataset):
        with pytest.raises(ValueError, match="engines"):
            make_service(small_uniform_dataset, engines=0)


class TestServiceStats:
    @staticmethod
    def fail_executor(service, monkeypatch):
        def execute_many(parsed_list):
            raise RuntimeError("executor down")

        monkeypatch.setattr(service, "_execute_many", execute_many)

    def test_failed_batch_counts_every_request(self, service, monkeypatch):
        self.fail_executor(service, monkeypatch)
        specs = [{"keywords": [f"w000{i}"], "k": 2, "radius": 2.0} for i in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="executor down"):
            service.submit_many(specs)
        requests = service.stats()["requests"]
        assert (requests["submitted"], requests["completed"], requests["failed"]) == (3, 0, 3)

    def test_failed_batch_does_not_fail_its_cache_hits(self, service, monkeypatch):
        hit = {"keywords": ["w0001"], "k": 2, "radius": 2.0}
        service.submit(hit)
        self.fail_executor(service, monkeypatch)
        misses = [{"keywords": [f"w000{i}"], "k": 2, "radius": 2.0} for i in (2, 3)]
        with pytest.raises(RuntimeError, match="executor down"):
            service.submit_many([hit, *misses])
        requests = service.stats()["requests"]
        assert (requests["submitted"], requests["completed"], requests["failed"]) == (4, 2, 2)

    def test_stats_shape(self, service):
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        stats = service.stats()
        assert stats["requests"]["submitted"] == 1
        assert stats["requests"]["completed"] == 1
        assert stats["dataset"]["data_objects"] == 500
        assert stats["planner"] == {"mode": "on", "decisions": 0}
        assert stats["batching"]["batches"] == 1
        assert stats["engines"]["count"] == 1
        assert json.dumps(stats)
