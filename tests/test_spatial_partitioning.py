"""Unit tests for the grid partitioner (Lemma 1) and the A1..A4 region analysis."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import InvalidGridError
from repro.model.objects import DataObject, FeatureObject
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import (
    GridPartitioner,
    classify_position,
    duplication_regions,
    expected_duplicates_per_feature,
)


@pytest.fixture()
def grid():
    return UniformGrid.square(BoundingBox(0, 0, 10, 10), 4)


class TestGridPartitioner:
    def test_rejects_negative_radius(self, grid):
        with pytest.raises(InvalidGridError):
            GridPartitioner(grid, -1.0)

    def test_data_object_assigned_to_single_enclosing_cell(self, grid):
        partitioner = GridPartitioner(grid, 1.5)
        assert partitioner.assign_data_object(DataObject("p", 4.6, 4.8)) == 6

    def test_feature_primary_cell_first(self, grid):
        partitioner = GridPartitioner(grid, 1.5)
        cells = partitioner.assign_feature_object(FeatureObject("f", 3.0, 8.1, {"x"}))
        assert cells[0] == 14

    def test_feature_in_cell_centre_not_duplicated(self, grid):
        partitioner = GridPartitioner(grid, 1.0)
        cells = partitioner.assign_feature_object(FeatureObject("f", 6.25, 6.25, {"x"}))
        assert len(cells) == 1

    def test_partition_collects_objects_per_cell(self, grid):
        partitioner = GridPartitioner(grid, 1.5)
        data = [DataObject("p1", 1.0, 1.0), DataObject("p2", 9.0, 9.0)]
        features = [FeatureObject("f1", 1.2, 1.2, {"a"})]
        cells, stats = partitioner.partition(data, features)
        assert cells[1].num_data == 1
        assert cells[16].num_data == 1
        assert stats.num_data == 2
        assert stats.num_features == 1
        assert stats.num_feature_copies >= 1

    def test_duplication_factor_at_least_one(self, grid, small_uniform_dataset):
        data, features = small_uniform_dataset
        partitioner = GridPartitioner(grid, 1.0)
        _, stats = partitioner.partition(data, features)
        assert stats.duplication_factor >= 1.0

    def test_duplication_factor_of_empty_feature_set_is_one(self, grid):
        partitioner = GridPartitioner(grid, 1.0)
        _, stats = partitioner.partition([DataObject("p", 1, 1)], [])
        assert stats.duplication_factor == 1.0

    def test_every_feature_copy_satisfies_lemma1(self, grid, small_uniform_dataset):
        """Every duplicated copy goes to a cell with MINDIST <= r, and no
        qualifying cell is missed (Lemma 1 exactness)."""
        _, features = small_uniform_dataset
        # The synthetic dataset lives in [0, 100]^2; build a matching grid so
        # no object needs boundary clamping.
        data_grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), 8)
        radius = 5.5
        partitioner = GridPartitioner(data_grid, radius)
        for feature in features[:200]:
            assigned = set(partitioner.assign_feature_object(feature))
            for cell_id in range(1, data_grid.num_cells + 1):
                mindist = data_grid.min_distance(cell_id, feature.x, feature.y)
                if mindist <= radius:
                    assert cell_id in assigned
                else:
                    assert cell_id not in assigned

    def test_zero_radius_never_duplicates_interior_features(self, grid):
        partitioner = GridPartitioner(grid, 0.0)
        rng = random.Random(5)
        for _ in range(100):
            # Strictly interior points (off the shared cell boundaries).
            x = rng.uniform(0.01, 9.99)
            y = rng.uniform(0.01, 9.99)
            if x % 2.5 < 1e-6 or y % 2.5 < 1e-6:
                continue
            cells = partitioner.assign_feature_object(FeatureObject("f", x, y, {"w"}))
            assert len(cells) == 1


class TestDuplicationRegions:
    def test_region_areas_sum_to_cell_area(self):
        regions = duplication_regions(cell_side=4.0, radius=1.0)
        total = regions["A1"] + regions["A2"] + regions["A3"] + regions["A4"]
        assert total == pytest.approx(regions["total"])

    def test_region_formulas(self):
        a, r = 10.0, 2.0
        regions = duplication_regions(a, r)
        assert regions["A1"] == pytest.approx(math.pi * r * r)
        assert regions["A2"] == pytest.approx((4 - math.pi) * r * r)
        assert regions["A3"] == pytest.approx(4 * (a - 2 * r) * r)
        assert regions["A4"] == pytest.approx((a - 2 * r) ** 2)

    def test_zero_radius_means_no_duplication_area(self):
        regions = duplication_regions(cell_side=5.0, radius=0.0)
        assert regions["A1"] == 0.0
        assert regions["A2"] == 0.0
        assert regions["A3"] == 0.0
        assert regions["A4"] == pytest.approx(25.0)

    def test_max_radius_leaves_no_interior(self):
        regions = duplication_regions(cell_side=2.0, radius=1.0)
        assert regions["A4"] == pytest.approx(0.0)
        assert regions["A3"] == pytest.approx(0.0)

    def test_rejects_radius_beyond_half_cell(self):
        with pytest.raises(ValueError):
            duplication_regions(cell_side=2.0, radius=1.1)

    def test_rejects_non_positive_cell(self):
        with pytest.raises(ValueError):
            duplication_regions(cell_side=0.0, radius=0.0)

    def test_expected_duplicates_matches_df_minus_one(self):
        from repro.paper.analysis import duplication_factor

        a, r = 8.0, 1.5
        assert expected_duplicates_per_feature(a, r) == pytest.approx(
            duplication_factor(a, r) - 1.0
        )


class TestClassifyPosition:
    def test_corner_region(self):
        assert classify_position(10.0, 1.0, 0.5, 0.5) == "A1"

    def test_two_border_region(self):
        # Near two borders but outside the quarter-circle at the corner.
        assert classify_position(10.0, 1.0, 0.95, 0.95) == "A2"

    def test_single_border_region(self):
        assert classify_position(10.0, 1.0, 5.0, 0.5) == "A3"

    def test_interior_region(self):
        assert classify_position(10.0, 1.0, 5.0, 5.0) == "A4"

    def test_rejects_positions_outside_cell(self):
        with pytest.raises(ValueError):
            classify_position(10.0, 1.0, 11.0, 5.0)

    def test_classification_matches_observed_duplicates(self):
        """The region class predicts exactly how many copies the partitioner makes
        (for an interior cell of a 4x4 grid)."""
        grid = UniformGrid.square(BoundingBox(0, 0, 40, 40), 4)
        radius = 2.0
        partitioner = GridPartitioner(grid, radius)
        cell = grid.cell_box(6)  # interior cell: neighbours on all sides
        rng = random.Random(11)
        duplicates_by_region = {"A1": 3, "A2": 2, "A3": 1, "A4": 0}
        for _ in range(300):
            ox = rng.uniform(0.0, grid.cell_width)
            oy = rng.uniform(0.0, grid.cell_height)
            region = classify_position(grid.cell_width, radius, ox, oy)
            feature = FeatureObject("f", cell.min_x + ox, cell.min_y + oy, {"w"})
            copies = len(partitioner.assign_feature_object(feature)) - 1
            assert copies == duplicates_by_region[region]
