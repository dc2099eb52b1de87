"""Tests for the query service: identity, batching, caching, durability."""

from __future__ import annotations

import json
import threading

import pytest

from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import InvalidQueryError
from repro.model.query import SpatialPreferenceQuery
from repro.planner import load_calibration
from repro.server import QueryService, ServiceConfig
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
        assert response["planned_algorithm"] in ("pspq", "espq-len", "espq-sco")

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
        first["stats"]["planner_estimates"] = "clobbered"
        first["results"].clear()
        second = service.submit(spec)
        assert second["cached"] is True
        assert second["results"] != []
        # The clobbered key never reached the cached copy.
        assert second["stats"].get("planner_estimates") != "clobbered"

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
    def test_concurrent_requests_share_batches(self, small_uniform_dataset):
        with make_service(
            small_uniform_dataset,
            engines=1,
            max_batch=8,
            batch_window_seconds=0.05,
            result_cache_capacity=0,
        ) as service:
            specs = [
                {"keywords": [f"w00{10 + i}"], "k": 3, "radius": 2.0}
                for i in range(6)
            ]
            threads = [
                threading.Thread(target=service.submit, args=(spec,))
                for spec in specs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batching = service.stats()["batching"]
            assert batching["batched_requests"] == 6
            # Six requests in well under the 50ms window: they cannot all
            # have run alone.
            assert batching["batches"] < 6
            assert batching["max_batch_observed"] >= 2

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


class TestCalibrationDurability:
    def test_saved_on_shutdown_and_restored_on_start(
        self, small_uniform_dataset, tmp_path
    ):
        path = tmp_path / "calibration.json"
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0, "algorithm": "auto"}
        with make_service(
            small_uniform_dataset, calibration_path=str(path),
            result_cache_capacity=0,
        ) as first:
            first.submit(spec)
            first.submit(spec)
            observations = first.planner.calibrator.observations
        assert path.exists()
        assert load_calibration(str(path))["observations"] == observations

        with make_service(
            small_uniform_dataset, calibration_path=str(path)
        ) as second:
            persistence = second.stats()["planner"]["persistence"]
            assert persistence["restored"] is True
            assert persistence["rejected"] is None
            assert second.planner.calibrator.observations == observations
            assert second.submit(spec)["planned_algorithm"]

    def test_corrupt_snapshot_starts_cold_and_still_serves(
        self, small_uniform_dataset, tmp_path
    ):
        path = tmp_path / "calibration.json"
        path.write_text('{"format": "repro-calibration", "version": 1, "cal')
        with make_service(
            small_uniform_dataset, calibration_path=str(path)
        ) as service:
            persistence = service.stats()["planner"]["persistence"]
            assert persistence["restored"] is False
            assert "JSON" in persistence["rejected"]
            response = service.submit(
                {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            )
            assert response["results"] is not None
        # The shutdown checkpoint replaced the corrupt file with a valid one.
        assert load_calibration(str(path)) is not None

    def test_version_mismatch_starts_cold(
        self, small_uniform_dataset, tmp_path
    ):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({
            "format": "repro-calibration", "version": 999, "calibration": {},
        }))
        with make_service(
            small_uniform_dataset, calibration_path=str(path)
        ) as service:
            persistence = service.stats()["planner"]["persistence"]
            assert persistence["restored"] is False
            assert "version" in persistence["rejected"]

    def test_manual_checkpoint_counts(self, small_uniform_dataset, tmp_path):
        path = tmp_path / "calibration.json"
        with make_service(
            small_uniform_dataset, calibration_path=str(path)
        ) as service:
            assert service.checkpoint() == str(path)
            persistence = service.stats()["planner"]["persistence"]
            assert persistence["checkpoints"] == 1
            assert persistence["last_checkpoint_unix"] is not None

    def test_periodic_checkpoints_write(self, small_uniform_dataset, tmp_path):
        path = tmp_path / "calibration.json"
        with make_service(
            small_uniform_dataset,
            calibration_path=str(path),
            checkpoint_interval_seconds=0.05,
        ) as service:
            service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
            deadline = threading.Event()
            for _ in range(100):
                if path.exists():
                    break
                deadline.wait(0.05)
            assert path.exists()

    def test_no_calibration_path_never_writes(self, small_uniform_dataset):
        with make_service(small_uniform_dataset) as service:
            assert service.checkpoint() is None

    def test_unwritable_path_does_not_abort_shutdown(
        self, small_uniform_dataset, tmp_path
    ):
        """A failed final checkpoint must still close every engine."""
        path = tmp_path / "gone" / "calibration.json"  # directory missing
        service = make_service(
            small_uniform_dataset, calibration_path=str(path)
        )
        service.start()
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        assert service.checkpoint() is None
        error = service.stats()["planner"]["persistence"]["last_error"]
        assert error is not None
        service.shutdown()  # must not raise
        assert service.closed
        assert not path.exists()


class TestServiceStats:
    def test_stats_shape(self, service):
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        stats = service.stats()
        assert stats["requests"]["submitted"] == 1
        assert stats["requests"]["completed"] == 1
        assert stats["dataset"]["data_objects"] == 500
        assert stats["planner"]["mode"] == "on"
        assert "calibration" in stats["planner"]
        assert stats["batching"]["batches"] == 1
        assert stats["engines"]["count"] == 1
        assert json.dumps(stats)


class TestCalibrationSeeding:
    SPEC = {"keywords": ["w0001"], "k": 3, "radius": 2.0, "algorithm": "auto"}

    def trained_snapshot(self, dataset, path):
        """A global snapshot written by a donor service; its observations."""
        with make_service(
            dataset, calibration_path=str(path), result_cache_capacity=0
        ) as donor:
            donor.submit(self.SPEC)
            donor.submit(self.SPEC)
            return donor.planner.calibrator.observations

    def test_cold_scope_seeds_from_global_snapshot(
        self, small_uniform_dataset, tmp_path
    ):
        global_path = tmp_path / "global.json"
        observations = self.trained_snapshot(small_uniform_dataset, global_path)
        before = global_path.read_bytes()
        shard_path = tmp_path / "shard.json"
        with make_service(
            small_uniform_dataset,
            calibration_path=str(shard_path),
            calibration_seed_path=str(global_path),
        ) as seeded:
            persistence = seeded.stats()["planner"]["persistence"]
            assert persistence["seeded"] is True
            assert persistence["restored"] is True
            assert persistence["seed_path"] == str(global_path)
            assert seeded.planner.calibrator.observations == observations
        # Checkpoints go to the scope's own path; the seed is read-only.
        assert shard_path.exists()
        assert global_path.read_bytes() == before

    def test_existing_scope_ignores_seed(self, small_uniform_dataset, tmp_path):
        global_path = tmp_path / "global.json"
        self.trained_snapshot(small_uniform_dataset, global_path)
        shard_path = tmp_path / "shard.json"
        with make_service(
            small_uniform_dataset,
            calibration_path=str(shard_path),
            calibration_seed_path=str(global_path),
        ):
            pass  # first start seeds, shutdown checkpoints shard_path
        with make_service(
            small_uniform_dataset,
            calibration_path=str(shard_path),
            calibration_seed_path=str(global_path),
        ) as second:
            persistence = second.stats()["planner"]["persistence"]
            assert persistence["restored"] is True
            assert persistence["seeded"] is False

    def test_seed_without_primary_path_still_warms(
        self, small_uniform_dataset, tmp_path
    ):
        global_path = tmp_path / "global.json"
        observations = self.trained_snapshot(small_uniform_dataset, global_path)
        with make_service(
            small_uniform_dataset, calibration_seed_path=str(global_path)
        ) as seeded:
            assert seeded.planner.calibrator.observations == observations
            assert seeded.stats()["planner"]["persistence"]["seeded"] is True
