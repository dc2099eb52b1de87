"""Unit and property tests for the STR-packed R-tree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.geometry import BoundingBox
from repro.paper.rtree import RTree


def _brute_range(points, x, y, radius):
    return {
        item for px, py, item in points
        if (px - x) ** 2 + (py - y) ** 2 <= radius * radius
    }


@pytest.fixture(scope="module")
def random_points():
    rng = random.Random(41)
    return [(rng.uniform(0, 100), rng.uniform(0, 100), f"item-{i}") for i in range(2_000)]


class TestConstruction:
    def test_empty_tree(self):
        tree = RTree([])
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.query_range(0, 0, 10) == []
        assert tree.query_box(BoundingBox(0, 0, 1, 1)) == []
        assert tree.all_items() == []

    def test_single_point(self):
        tree = RTree([(1.0, 2.0, "a")])
        assert len(tree) == 1
        assert tree.height == 1
        assert tree.query_range(1.0, 2.0, 0.0) == ["a"]

    def test_rejects_tiny_fanout(self):
        with pytest.raises(ValueError):
            RTree([], max_entries=1)

    def test_height_grows_logarithmically(self, random_points):
        tree = RTree(random_points, max_entries=16)
        # 2000 points with fan-out 16: 125 leaves -> 8 internals -> 1 root.
        assert tree.height == 3

    def test_all_items_preserved(self, random_points):
        tree = RTree(random_points)
        assert sorted(tree.all_items()) == sorted(item for _, _, item in random_points)


class TestRangeQueries:
    def test_matches_brute_force(self, random_points):
        tree = RTree(random_points, max_entries=16)
        rng = random.Random(5)
        for _ in range(25):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            radius = rng.uniform(0, 20)
            assert set(tree.query_range(x, y, radius)) == _brute_range(random_points, x, y, radius)

    def test_radius_zero_finds_exact_point(self):
        tree = RTree([(3.0, 4.0, "a"), (5.0, 6.0, "b")])
        assert tree.query_range(3.0, 4.0, 0.0) == ["a"]

    def test_negative_radius_rejected(self):
        tree = RTree([(0.0, 0.0, "a")])
        with pytest.raises(ValueError):
            tree.query_range(0, 0, -1)

    def test_boundary_point_included(self):
        tree = RTree([(3.0, 0.0, "a")])
        assert tree.query_range(0.0, 0.0, 3.0) == ["a"]

    def test_node_access_counter_increases(self, random_points):
        tree = RTree(random_points, max_entries=16)
        tree.reset_stats()
        tree.query_range(50, 50, 5)
        first = tree.nodes_accessed
        tree.query_range(50, 50, 5)
        assert tree.nodes_accessed == 2 * first
        tree.reset_stats()
        assert tree.nodes_accessed == 0

    def test_small_range_visits_fewer_nodes_than_large(self, random_points):
        tree = RTree(random_points, max_entries=16)
        tree.reset_stats()
        tree.query_range(50, 50, 2)
        small = tree.nodes_accessed
        tree.reset_stats()
        tree.query_range(50, 50, 80)
        large = tree.nodes_accessed
        assert small < large


class TestBoxQueries:
    def test_matches_brute_force(self, random_points):
        tree = RTree(random_points, max_entries=16)
        box = BoundingBox(20, 30, 60, 70)
        expected = {item for x, y, item in random_points if box.contains(x, y)}
        assert set(tree.query_box(box)) == expected

    def test_box_outside_data_returns_empty(self, random_points):
        tree = RTree(random_points)
        assert tree.query_box(BoundingBox(500, 500, 600, 600)) == []


class TestRTreeProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.integers(min_value=0, max_value=10_000),
            ),
            min_size=1,
            max_size=200,
        ),
        x=st.floats(min_value=0, max_value=50, allow_nan=False),
        y=st.floats(min_value=0, max_value=50, allow_nan=False),
        radius=st.floats(min_value=0, max_value=40, allow_nan=False),
        fanout=st.integers(min_value=2, max_value=16),
    )
    def test_range_query_equals_brute_force(self, points, x, y, radius, fanout):
        # Deduplicate payloads so the set comparison is meaningful.
        points = [(px, py, (i, payload)) for i, (px, py, payload) in enumerate(points)]
        tree = RTree(points, max_entries=fanout)
        assert set(tree.query_range(x, y, radius)) == _brute_range(points, x, y, radius)
