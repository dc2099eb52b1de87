"""Durable planner calibration: state export, snapshot files, restore."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.engine import SPQEngine
from repro.exceptions import CalibrationStateError
from repro.model.query import SpatialPreferenceQuery
from repro.planner import (
    CALIBRATION_FORMAT,
    CALIBRATION_VERSION,
    Calibrator,
    load_calibration,
    restore_calibration,
    save_calibration,
    try_restore_calibration,
)
from repro.planner.estimator import DEFAULT_WORK_FACTORS, WorkFactors

ALGORITHMS = ("pspq", "espq-len", "espq-sco")


def trained_calibrator(memory: int = 16, smoothing: float = 0.3) -> Calibrator:
    """A calibrator with several work, global and duplication entries."""
    calibrator = Calibrator(memory=memory, smoothing=smoothing)
    for offset, algorithm in enumerate(ALGORITHMS):
        for bucket in range(3):
            signature = (10, bucket, 1, 2)
            calibrator.observe_work(
                algorithm, signature,
                raw_copies=100.0 + offset, raw_pairs=400.0,
                actual_copies=80 + bucket, actual_examined=40 + offset,
                actual_pairs=120 + bucket,
            )
            calibrator.observe_reduce(
                algorithm, signature,
                predicted_seconds=5.0 + bucket, actual_seconds=4.0 + offset,
            )
    for rbucket in range(4):
        calibrator.observe_duplication(
            grid_size=10, rbucket=rbucket,
            estimated_copies=90.0, actual_copies=100 + rbucket,
        )
    return calibrator


def all_lookups(calibrator: Calibrator):
    """Every observable output of a calibrator, for equality comparison."""
    defaults = WorkFactors(examined=0.77, pairs=0.33)
    lookups = {}
    for algorithm in ALGORITHMS + ("never-seen",):
        for bucket in range(4):
            signature = (10, bucket, 1, 2)
            factors = calibrator.factors_for(algorithm, signature, defaults)
            lookups[(algorithm, signature)] = (
                factors.examined,
                factors.pairs,
                calibrator.reduce_scale_for(algorithm, signature),
            )
    for rbucket in range(5):
        lookups[("dup", rbucket)] = calibrator.duplication_scale(10, rbucket)
    return lookups


class TestStateRoundTrip:
    def test_lookups_identical_after_roundtrip(self):
        original = trained_calibrator()
        restored = Calibrator(memory=original.memory, smoothing=original.smoothing)
        restored.restore_state(original.state_dict())
        assert all_lookups(restored) == all_lookups(original)
        assert restored.observations == original.observations
        assert len(restored) == len(original)
        assert restored.snapshot() == original.snapshot()

    def test_state_is_json_serializable(self):
        state = trained_calibrator().state_dict()
        assert json.loads(json.dumps(state)) == state

    def test_restore_trims_to_own_memory(self):
        original = trained_calibrator(memory=16)
        small = Calibrator(memory=2, smoothing=0.3)
        small.restore_state(original.state_dict())
        assert len(small) == 2
        # Evicted signatures fall back to the (restored) global average,
        # which differs from cold defaults.
        defaults = DEFAULT_WORK_FACTORS["pspq"]
        factors = small.factors_for("pspq", (99, 0, 0, 0), defaults)
        assert factors != defaults

    def test_restore_preserves_lru_order(self):
        original = Calibrator(memory=8)
        for bucket in range(4):
            original.observe_duplication(10, bucket, 100.0, 150)
        # Touch bucket 0 so it becomes most recently used.
        original.duplication_scale(10, 0)
        restored = Calibrator(memory=8)
        restored.restore_state(original.state_dict())
        assert (
            list(restored.state_dict()["duplication"])
            == list(original.state_dict()["duplication"])
        )

    @pytest.mark.parametrize("garbage", [
        "not a mapping",
        {"work": "nope"},
        {"work": [{"algorithm": "pspq", "signature": [1, 2]}]},
        {"work": [{"algorithm": "pspq", "signature": [1, 2, 3, "x"]}]},
        {"duplication": [{"grid_size": "ten"}]},
        {"global_work": [{"no_algorithm": True}]},
        {"observations": "many"},
    ])
    def test_restore_rejects_garbage(self, garbage):
        calibrator = trained_calibrator()
        before = all_lookups(calibrator)
        with pytest.raises(CalibrationStateError):
            calibrator.restore_state(garbage)
        # Failed restore must leave the calibrator untouched.
        assert all_lookups(calibrator) == before


class TestSnapshotFiles:
    def test_save_load_roundtrip(self, tmp_path):
        calibrator = trained_calibrator()
        path = tmp_path / "calibration.json"
        payload = save_calibration(str(path), calibrator)
        assert payload["format"] == CALIBRATION_FORMAT
        assert payload["version"] == CALIBRATION_VERSION
        on_disk = json.loads(path.read_text())
        assert on_disk["calibration"] == calibrator.state_dict()
        assert load_calibration(str(path)) == calibrator.state_dict()

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(str(path), trained_calibrator())
        save_calibration(str(path), trained_calibrator())
        assert os.listdir(tmp_path) == ["calibration.json"]

    def test_restore_calibration_applies_state(self, tmp_path):
        original = trained_calibrator()
        path = tmp_path / "calibration.json"
        save_calibration(str(path), original)
        restored = Calibrator(memory=original.memory)
        restore_calibration(str(path), restored)
        assert all_lookups(restored) == all_lookups(original)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CalibrationStateError, match="cannot read"):
            load_calibration(str(tmp_path / "nope.json"))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(str(path), trained_calibrator())
        payload = json.loads(path.read_text())
        payload["version"] = CALIBRATION_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationStateError, match="version"):
            load_calibration(str(path))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(CalibrationStateError, match="format"):
            load_calibration(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(str(path), trained_calibrator())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CalibrationStateError, match="JSON"):
            load_calibration(str(path))

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CalibrationStateError, match="JSON object"):
            load_calibration(str(path))

    def test_missing_calibration_key_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({
            "format": CALIBRATION_FORMAT, "version": CALIBRATION_VERSION,
        }))
        with pytest.raises(CalibrationStateError, match="calibration"):
            load_calibration(str(path))

    def test_try_restore_reports_rejection_and_stays_cold(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{truncated")
        calibrator = Calibrator()
        reason = try_restore_calibration(str(path), calibrator)
        assert reason is not None and "JSON" in reason
        assert calibrator.observations == 0

    def test_try_restore_missing_path_is_silent(self, tmp_path):
        calibrator = Calibrator()
        assert try_restore_calibration(None, calibrator) is None
        assert (
            try_restore_calibration(str(tmp_path / "absent.json"), calibrator)
            is None
        )


class TestEngineSnapshotRestore:
    @pytest.fixture()
    def engines(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        first = SPQEngine(data, features)
        second = SPQEngine(data, features)
        yield first, second
        first.close()
        second.close()

    def test_restored_engine_decides_like_the_original(self, engines):
        first, second = engines
        query = SpatialPreferenceQuery.create(k=5, radius=2.0, keywords={"w0001"})
        for _ in range(3):
            first.execute(query, algorithm="auto", grid_size=10)
        second.restore_planner(first.planner_snapshot())

        statistics_first = first.planner.collect(first.get_index(10), query, 10)
        statistics_second = second.planner.collect(second.get_index(10), query, 10)
        decision_first = first.planner.decide(statistics_first)
        decision_second = second.planner.decide(statistics_second)
        assert decision_second.algorithm == decision_first.algorithm
        assert decision_second.calibrated is True

    def test_post_restore_execution_matches(self, engines):
        """Same workload, pre-restart vs restored engine: same decisions.

        Decision equality needs equal *calibration* state (the snapshot)
        and equal *index* state (cached Lemma-1 lists feed the duplication
        estimate), so the restored engine's index is pre-warmed with
        exactly the duplication lists the warm-up pass cached on the
        original.  From there both engines run the workload in lockstep
        and must stay identical: same decisions, same estimate vectors.
        """
        first, second = engines
        queries = [
            SpatialPreferenceQuery.create(k=k, radius=radius, keywords={word})
            for k, radius, word in [
                (1, 1.0, "w0002"), (5, 2.0, "w0003"), (10, 3.0, "w0002"),
            ]
        ]
        for query in queries:  # warm-up pass on the original only
            first.execute(query, algorithm="auto", grid_size=10)
        second.restore_planner(first.planner_snapshot())
        index_second = second.get_index(10)
        for query in queries:
            candidates = index_second.candidate_positions(query.keywords)
            index_second.feature_cells(query.radius, candidates)

        for query in queries:
            stats_first = first.execute(query, algorithm="auto", grid_size=10).stats
            stats_second = second.execute(query, algorithm="auto", grid_size=10).stats
            assert (
                stats_second["planned_algorithm"]
                == stats_first["planned_algorithm"]
            )
            assert (
                stats_second["planner_estimates"]
                == stats_first["planner_estimates"]
            )
            assert stats_second["planner_calibrated"] is True


class TestCalibrationSeeding:
    """``seed_path``: shard calibrators warm-started from a global snapshot."""

    def test_seed_used_when_primary_absent(self, tmp_path):
        seed = tmp_path / "global.json"
        save_calibration(str(seed), trained_calibrator())
        calibrator = Calibrator()
        reason = try_restore_calibration(
            str(tmp_path / "shard.json"), calibrator, seed_path=str(seed)
        )
        assert reason is None
        assert all_lookups(calibrator) == all_lookups(trained_calibrator())

    def test_primary_wins_over_seed(self, tmp_path):
        primary_calibrator = trained_calibrator(smoothing=0.3)
        seed_calibrator = trained_calibrator(smoothing=0.7)
        assert all_lookups(primary_calibrator) != all_lookups(seed_calibrator)
        primary = tmp_path / "shard.json"
        seed = tmp_path / "global.json"
        save_calibration(str(primary), primary_calibrator)
        save_calibration(str(seed), seed_calibrator)
        calibrator = Calibrator()
        assert try_restore_calibration(
            str(primary), calibrator, seed_path=str(seed)
        ) is None
        assert all_lookups(calibrator) == all_lookups(primary_calibrator)

    def test_rejected_seed_reports_and_stays_cold(self, tmp_path):
        seed = tmp_path / "global.json"
        seed.write_text("{truncated")
        calibrator = Calibrator()
        reason = try_restore_calibration(
            str(tmp_path / "shard.json"), calibrator, seed_path=str(seed)
        )
        assert reason is not None and "seed rejected" in reason
        assert calibrator.observations == 0

    def test_rejected_primary_never_falls_back_to_seed(self, tmp_path):
        # A corrupt primary is a real problem to surface, not a cue to
        # silently serve from fleet-wide estimates instead.
        primary = tmp_path / "shard.json"
        primary.write_text("{truncated")
        seed = tmp_path / "global.json"
        save_calibration(str(seed), trained_calibrator())
        calibrator = Calibrator()
        reason = try_restore_calibration(
            str(primary), calibrator, seed_path=str(seed)
        )
        assert reason is not None and "seed" not in reason
        assert calibrator.observations == 0

    def test_seed_file_never_written(self, tmp_path):
        seed = tmp_path / "global.json"
        save_calibration(str(seed), trained_calibrator())
        before = seed.read_bytes()
        calibrator = Calibrator()
        try_restore_calibration(
            str(tmp_path / "shard.json"), calibrator, seed_path=str(seed)
        )
        assert seed.read_bytes() == before

    def test_missing_both_is_silent(self, tmp_path):
        calibrator = Calibrator()
        assert try_restore_calibration(
            str(tmp_path / "shard.json"),
            calibrator,
            seed_path=str(tmp_path / "global.json"),
        ) is None
        assert calibrator.observations == 0
