"""Unit tests for the Section 6 theoretical analysis helpers."""

from __future__ import annotations

import math

import pytest

from repro.paper.analysis import (
    duplication_factor,
    expected_shuffled_features,
    max_duplication_factor,
    optimal_relative_cell_size,
    reducer_cost_model,
)
from repro.exceptions import AnalysisError


class TestDuplicationFactor:
    def test_closed_form(self):
        a, r = 10.0, 2.0
        expected = math.pi * (r / a) ** 2 + 4 * r / a + 1
        assert duplication_factor(a, r) == pytest.approx(expected)

    def test_zero_radius_gives_factor_one(self):
        assert duplication_factor(5.0, 0.0) == pytest.approx(1.0)

    def test_worst_case_at_a_equals_2r(self):
        assert duplication_factor(2.0, 1.0) == pytest.approx(max_duplication_factor())

    def test_max_value_is_3_plus_pi_over_4(self):
        assert max_duplication_factor() == pytest.approx(3.0 + math.pi / 4.0)

    def test_factor_bounded_between_1_and_max(self):
        for ratio in [2.0, 2.5, 4.0, 10.0, 100.0]:
            factor = duplication_factor(ratio, 1.0)
            assert 1.0 <= factor <= max_duplication_factor()

    def test_factor_decreases_with_larger_cells(self):
        radius = 1.0
        factors = [duplication_factor(a, radius) for a in [2.0, 4.0, 8.0, 16.0, 32.0]]
        assert all(earlier > later for earlier, later in zip(factors, factors[1:]))

    def test_depends_only_on_ratio(self):
        assert duplication_factor(10.0, 2.0) == pytest.approx(duplication_factor(5.0, 1.0))

    def test_rejects_radius_above_half_cell(self):
        with pytest.raises(AnalysisError):
            duplication_factor(2.0, 1.01)

    def test_rejects_non_positive_cell(self):
        with pytest.raises(AnalysisError):
            duplication_factor(0.0, 0.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(AnalysisError):
            duplication_factor(1.0, -0.1)


class TestReducerCostModel:
    def test_expansion_matches_paper_expression(self):
        a, r = 0.1, 0.02
        expected = math.pi * r * r * a * a + 4 * r * a ** 3 + a ** 4
        assert reducer_cost_model(a, r) == pytest.approx(expected)

    def test_cost_increases_with_cell_size(self):
        r = 0.01
        costs = [reducer_cost_model(a, r) for a in [0.02, 0.05, 0.1, 0.2, 0.5]]
        assert all(earlier < later for earlier, later in zip(costs, costs[1:]))

    def test_optimal_cell_size_is_smallest_allowed(self):
        # Section 6.3: the cost is monotone, so the optimum is a = 2r.
        radius = 0.01
        assert optimal_relative_cell_size(radius) == pytest.approx(2 * radius)

    def test_optimal_cell_size_rejects_bad_radius(self):
        with pytest.raises(AnalysisError):
            optimal_relative_cell_size(0.0)

    def test_optimal_cell_size_rejects_small_min_ratio(self):
        with pytest.raises(AnalysisError):
            optimal_relative_cell_size(1.0, min_ratio=1.0)


class TestExpectedShuffledFeatures:
    def test_scales_with_dataset_size(self):
        assert expected_shuffled_features(1000, 10.0, 1.0) == pytest.approx(
            1000 * duplication_factor(10.0, 1.0)
        )

    def test_rejects_negative_count(self):
        with pytest.raises(AnalysisError):
            expected_shuffled_features(-1, 10.0, 1.0)

    def test_matches_measured_duplication_on_uniform_data(self, small_uniform_dataset):
        """The closed-form df predicts the measured duplication within sampling error."""
        from repro.spatial.geometry import BoundingBox
        from repro.spatial.grid import UniformGrid
        from repro.spatial.partitioning import GridPartitioner

        _, features = small_uniform_dataset  # uniform in [0, 100]^2
        grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), 10)  # a = 10
        radius = 2.5
        partitioner = GridPartitioner(grid, radius)
        _, stats = partitioner.partition([], features)
        predicted = duplication_factor(10.0, radius)
        # Boundary cells have fewer neighbours, so the measured factor is
        # slightly below the interior-cell prediction; 10% tolerance.
        assert stats.duplication_factor == pytest.approx(predicted, rel=0.10)
