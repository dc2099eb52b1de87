"""Tests for the cost-based adaptive query planner (``algorithm="auto"``)."""

from __future__ import annotations

import pytest

from raw_oracle import raw_execute
from repro.core.engine import ALGORITHM_CHOICES, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.exceptions import InvalidQueryError
from repro.index.dataset_index import DatasetIndex
from repro.index.planner import BatchQuery
from repro.model.query import SpatialPreferenceQuery
from repro.planner import (
    AUTO_ALGORITHM,
    DEFAULT_WORK_FACTORS,
    PLANNED_ALGORITHMS,
    Calibrator,
    CostEstimator,
    PlannerConfig,
    QueryPlanner,
    WorkFactors,
    collect_statistics,
)
from repro.planner.calibration import count_bucket, radius_bucket, signature_of
from repro.spatial.grid import UniformGrid


@pytest.fixture(scope="module")
def planner_dataset():
    return generate_uniform(SyntheticDatasetConfig(num_objects=1_200, seed=71))


@pytest.fixture(scope="module")
def planner_index(planner_dataset):
    data, features = planner_dataset
    engine = SPQEngine(data, features)
    return engine.get_index(grid_size=12)


def make_query(k=10, radius=4.0, keywords=("w0001", "w0002")):
    return SpatialPreferenceQuery.create(k=k, radius=radius, keywords=set(keywords))


# --------------------------------------------------------------------- #
# statistics collection


class TestStatisticsCollection:
    def test_candidates_match_inverted_index(self, planner_index):
        query = make_query()
        stats = collect_statistics(planner_index, query, 12)
        assert stats.candidate_positions == planner_index.candidate_positions(
            query.keywords
        )
        assert stats.num_candidates == len(stats.candidate_positions)
        assert sum(stats.candidate_cells.values()) == stats.num_candidates

    def test_data_histogram_covers_every_object(self, planner_index):
        stats = collect_statistics(planner_index, make_query(), 12)
        assert sum(stats.data_cell_counts.values()) == stats.num_data

    def test_keyword_document_frequencies(self, planner_index):
        assert planner_index.keyword_document_frequency("nope") == 0
        assert planner_index.keyword_document_frequency("w0001") > 0

    def test_zero_candidate_query(self, planner_index):
        stats = collect_statistics(
            planner_index, make_query(keywords=("zz-unknown",)), 12
        )
        assert stats.num_candidates == 0
        assert stats.candidate_cells == {}


# --------------------------------------------------------------------- #
# estimator properties


class TestEstimatorMonotonicity:
    def test_larger_radius_never_lowers_duplication_estimate(self, planner_index):
        estimates = [
            planner_index.duplication_estimate(radius)
            for radius in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
        ]
        assert estimates == sorted(estimates)
        assert estimates[0] >= 1.0
        assert estimates[-1] <= planner_index.grid.num_cells

    def test_cached_radius_uses_observed_duplication(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        index = engine.get_index(grid_size=12)
        analytic = index.duplication_estimate(3.0)
        # Materialise the Lemma-1 lists for this radius, then re-ask.
        index.feature_cells(3.0)
        observed = index.duplication_estimate(3.0)
        copies = sum(len(cells) for cells in index.feature_cells(3.0).values())
        assert observed == pytest.approx(copies / index.num_features)
        # Both estimates describe the same quantity, so they should agree
        # within the geometric approximation's slack (boundary clipping).
        assert observed <= analytic * 1.5 + 1.0

    def test_superset_keywords_never_lower_shuffle_estimate(self, planner_index):
        estimator = CostEstimator()
        keywords = []
        previous_shuffle = -1.0
        for word in ("w0001", "w0002", "w0003", "w0004"):
            keywords.append(word)
            stats = collect_statistics(
                planner_index, make_query(keywords=tuple(keywords)), 12
            )
            breakdowns = estimator.estimate(stats, DEFAULT_WORK_FACTORS)
            shuffle = breakdowns["espq-sco"].shuffle
            assert shuffle >= previous_shuffle
            previous_shuffle = shuffle

    def test_stop_word_only_addition_keeps_estimates(self, planner_index):
        """A keyword no feature contains adds no candidates, so an
        uncalibrated estimate vector is unchanged."""
        estimator = CostEstimator()
        base = collect_statistics(planner_index, make_query(), 12)
        extended = collect_statistics(
            planner_index, make_query(keywords=("w0001", "w0002", "zz-stop")), 12
        )
        assert extended.num_candidates == base.num_candidates
        left = estimator.estimate(base, DEFAULT_WORK_FACTORS)
        right = estimator.estimate(extended, DEFAULT_WORK_FACTORS)
        for algorithm in PLANNED_ALGORITHMS:
            assert left[algorithm].total == pytest.approx(right[algorithm].total)

    def test_espqsco_charged_for_map_side_scores(self, planner_index):
        estimator = CostEstimator()
        stats = collect_statistics(planner_index, make_query(), 12)
        flat = {name: WorkFactors(1.0, 1.0) for name in PLANNED_ALGORITHMS}
        breakdowns = estimator.estimate(stats, flat)
        # With identical reduce factors only the map-side score cost differs.
        assert breakdowns["espq-sco"].map > breakdowns["pspq"].map
        assert breakdowns["pspq"].map == pytest.approx(breakdowns["espq-len"].map)
        assert breakdowns["pspq"].total == pytest.approx(breakdowns["espq-len"].total)

    def test_raw_work_scales_with_candidates(self, planner_index):
        estimator = CostEstimator()
        small = collect_statistics(planner_index, make_query(keywords=("w0001",)), 12)
        large = collect_statistics(
            planner_index, make_query(keywords=("w0001", "w0002", "w0003")), 12
        )
        copies_small, pairs_small = estimator.raw_work(small)
        copies_large, pairs_large = estimator.raw_work(large)
        assert copies_large >= copies_small
        assert pairs_large >= pairs_small


# --------------------------------------------------------------------- #
# calibration


class TestCalibration:
    def test_signature_buckets_are_stable(self):
        sig = signature_of(20, 2.0, 3.0, 4, 10)
        assert sig == signature_of(20, 2.0, 3.4, 4, 10)  # same log2 bucket
        assert sig != signature_of(20, 2.0, 30.0, 4, 10)

    def test_bucket_helpers_clamp(self):
        assert radius_bucket(0.0, 1.0) == -8
        assert radius_bucket(1e9, 1.0) == 8
        assert count_bucket(0) == 0
        assert count_bucket(1 << 30) == 12

    def test_denormal_radius_does_not_underflow_the_bucket(self):
        """``5e-324 / 3.0`` is ``0.0``: ``log2`` raised a domain error out of
        every planned query (hypothesis found it the day fixed-algorithm
        ``execute`` started collecting planner statistics)."""
        assert radius_bucket(5e-324, 3.0) == -8

    def test_memory_is_bounded(self):
        calibrator = Calibrator(memory=4, smoothing=0.5)
        for grid in range(20):
            sig = signature_of(grid + 1, 1.0, 1.0, 2, 10)
            calibrator.observe_work("pspq", sig, 100.0, 1000.0, 90, 90, 500)
            calibrator.observe_duplication(grid + 1, 0, 100.0, 90)
        assert len(calibrator) <= 4
        assert calibrator.snapshot()["duplication_entries"] <= 4
        assert calibrator.observations == 20

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Calibrator(memory=0)
        with pytest.raises(ValueError):
            Calibrator(smoothing=0.0)
        with pytest.raises(ValueError):
            Calibrator(smoothing=1.5)

    def test_factors_fall_back_to_defaults_then_learn(self):
        calibrator = Calibrator(memory=8, smoothing=1.0)
        sig = signature_of(10, 1.0, 1.0, 2, 10)
        defaults = WorkFactors(examined=0.5, pairs=0.5)
        assert calibrator.factors_for("pspq", sig, defaults) == defaults
        calibrator.observe_work("pspq", sig, 100.0, 1000.0, 100, 80, 200)
        learned = calibrator.factors_for("pspq", sig, defaults)
        assert learned.examined == pytest.approx(0.8)
        assert learned.pairs == pytest.approx(0.2)
        # An unseen signature now uses the global fallback, not the default.
        other = signature_of(99, 1.0, 1.0, 2, 10)
        assert calibrator.factors_for("pspq", other, defaults).examined == pytest.approx(0.8)

    def test_zero_information_observations_ignored(self):
        calibrator = Calibrator()
        sig = signature_of(10, 1.0, 1.0, 2, 10)
        calibrator.observe_work("pspq", sig, 0.0, 0.0, 0, 0, 0)
        calibrator.observe_duplication(10, 0, 0.0, 0)
        assert calibrator.observations == 0
        assert calibrator.duplication_scale(10, 0) == 1.0

    def test_calibration_converges_on_repeated_workload(self, planner_dataset):
        """Repeating one query drives the predicted cost of the executed
        algorithm towards its actual simulated cost."""
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        query = make_query(k=5, radius=3.0, keywords=("w0005", "w0006", "w0007"))
        planner = engine.planner

        errors = []
        for _ in range(6):
            index = engine.get_index(grid_size=12)
            stats = collect_statistics(index, query, 12)
            decision = planner.decide(stats)
            result = engine.execute_many([query], algorithm="pspq", grid_size=12)[0]
            actual = result.stats["simulated_seconds"]
            errors.append(abs(decision.estimates["pspq"] - actual) / actual)
        assert errors[-1] < 0.02
        assert errors[-1] <= errors[0]


# --------------------------------------------------------------------- #
# planning through the engine


class TestAutoAlgorithm:
    def test_auto_matches_explicit_run_of_chosen_algorithm(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        queries = [
            make_query(k=1, radius=8.0, keywords=("w0001",)),
            make_query(k=10, radius=2.0, keywords=("w0010", "w0020")),
            make_query(k=50, radius=5.0, keywords=("w0100", "w0200", "w0300")),
        ]
        for query in queries:
            auto = engine.execute(query, algorithm="auto", grid_size=10)
            chosen = auto.stats["planned_algorithm"]
            assert chosen in PLANNED_ALGORITHMS
            explicit = engine.execute_many([query], algorithm=chosen, grid_size=10)[0]
            assert auto.object_ids() == explicit.object_ids()
            assert auto.scores() == explicit.scores()
            assert auto.stats["simulated_seconds"] == explicit.stats["simulated_seconds"]
            raw = raw_execute(engine, query, algorithm=chosen, grid_size=10)
            assert auto.object_ids() == raw.object_ids()
            assert auto.scores() == raw.scores()

    def test_auto_records_estimate_vector(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        result = engine.execute(make_query(), algorithm="auto", grid_size=10)
        estimates = result.stats["planner_estimates"]
        assert set(estimates) == set(PLANNED_ALGORITHMS)
        assert all(value > 0 for value in estimates.values())
        assert result.stats["algorithm"] in ("pSPQ", "eSPQlen", "eSPQsco")
        assert result.stats["planned_algorithm"] == min(
            estimates, key=lambda name: (estimates[name], PLANNED_ALGORITHMS.index(name))
        )

    def test_auto_in_batch_with_per_item_overrides(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        items = [
            BatchQuery(query=make_query(keywords=("w0003",)), algorithm="auto"),
            BatchQuery(query=make_query(keywords=("w0004",)), algorithm="pspq"),
            make_query(keywords=("w0005",)),
        ]
        results = engine.execute_many(items, algorithm="espq-len", grid_size=10)
        assert "planned_algorithm" in results[0].stats
        assert "planned_algorithm" not in results[1].stats
        assert results[1].stats["algorithm"] == "pSPQ"
        assert results[2].stats["algorithm"] == "eSPQlen"

    def test_auto_equivalent_between_execute_and_execute_many(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        query = make_query(k=3, radius=6.0, keywords=("w0008", "w0009"))
        single = engine.execute(query, algorithm="auto", grid_size=10)
        # A fresh engine so the calibration state matches the first call's.
        other = SPQEngine(data, features)
        batched = other.execute_many([query], algorithm="auto", grid_size=10)[0]
        assert single.object_ids() == batched.object_ids()
        assert single.scores() == batched.scores()
        assert single.stats["planned_algorithm"] == batched.stats["planned_algorithm"]

    def test_auto_with_zero_candidates_returns_empty(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        result = engine.execute(
            make_query(keywords=("zz-missing",)), algorithm="auto", grid_size=10
        )
        assert result.object_ids() == []
        assert result.stats["planned_algorithm"] in PLANNED_ALGORITHMS

    def test_auto_rejects_non_range_score_mode(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        with pytest.raises(InvalidQueryError, match="auto"):
            engine.execute(make_query(), algorithm="auto", score_mode="influence")

    def test_unknown_algorithm_message_lists_auto(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        with pytest.raises(InvalidQueryError, match="auto"):
            engine.execute(make_query(), algorithm="bogus")

    def test_planner_decisions_counted(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        engine.execute(make_query(), algorithm="auto", grid_size=10)
        engine.execute(make_query(), algorithm="auto", grid_size=10)
        assert engine.planner.decisions == 2

    def test_fixed_algorithm_runs_feed_calibration(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        engine.execute_many([make_query()], algorithm="espq-len", grid_size=10)
        assert engine.planner.calibrator.observations == 1

    def test_fixed_algorithm_execute_feeds_calibration_too(self, planner_dataset):
        """``execute`` with a named algorithm used to stream the raw records
        past the planner; it is the same path as ``execute_many`` now."""
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        result = engine.execute(make_query(), algorithm="espq-len", grid_size=10)
        assert engine.planner.calibrator.observations == 1
        assert engine.planner.decisions == 0
        assert "planned_algorithm" not in result.stats


class TestPlannerConfiguration:
    def test_memory_knob_reaches_calibrator(self):
        planner = QueryPlanner(config=PlannerConfig(memory=7))
        assert planner.calibrator.memory == 7

    def test_auto_is_an_algorithm_choice(self):
        assert AUTO_ALGORITHM in ALGORITHM_CHOICES


# --------------------------------------------------------------------- #
# a planner over a raw index (no engine involved)


class TestStandalonePlanner:
    def test_decide_over_fresh_index(self, planner_dataset):
        data, features = planner_dataset
        grid = UniformGrid.square(
            SPQEngine(data, features).extent, 8
        )
        index = DatasetIndex(data, features, grid)
        planner = QueryPlanner()
        stats = planner.collect(index, make_query(), 8)
        decision = planner.decide(stats)
        assert decision.algorithm in PLANNED_ALGORITHMS
        assert decision.calibrated is False
        assert set(decision.estimates) == set(PLANNED_ALGORITHMS)
        for breakdown in decision.breakdowns.values():
            assert breakdown.total == pytest.approx(
                breakdown.startup + breakdown.map + breakdown.shuffle + breakdown.reduce
            )
