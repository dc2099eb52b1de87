"""Degenerate spatial extents: collinear or identical points.

A dataset whose points all share one x (or y, or both) coordinate has a
zero-width/zero-height bounding box, which a :class:`UniformGrid` cannot
tile.  The engine handles this in two documented ways:

* **implicit extent** (the normal case): :func:`dataset_extent` pads the
  degenerate axis, so queries run normally and match the oracle;
* **explicit extent**: passing a degenerate extent to :class:`SPQEngine`
  raises a clear :class:`InvalidQueryError` at construction time instead of
  an obscure grid failure at query time.
"""

from __future__ import annotations

import pytest

from raw_oracle import raw_execute
from repro.core.centralized import CentralizedSPQ, dataset_extent
from repro.core.engine import SPQEngine
from repro.exceptions import InvalidGridError, InvalidQueryError
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

ALGORITHMS = ("pspq", "espq-len", "espq-sco", "auto")


def vertical_line_dataset():
    """All points on x = 3.0 (zero-width bounding box)."""
    data = [DataObject(f"p{i}", 3.0, float(i)) for i in range(6)]
    features = [
        FeatureObject(f"f{i}", 3.0, i + 0.5, frozenset({"cafe", f"extra{i}"}))
        for i in range(6)
    ]
    return data, features


def single_point_dataset():
    """Every object at the exact same coordinate (zero-area bounding box)."""
    data = [DataObject(f"p{i}", 1.0, 2.0) for i in range(4)]
    features = [
        FeatureObject("f0", 1.0, 2.0, frozenset({"cafe"})),
        FeatureObject("f1", 1.0, 2.0, frozenset({"cafe", "bar"})),
    ]
    return data, features


class TestUniformGridRejectsDegenerateExtents:
    @pytest.mark.parametrize(
        "box",
        [
            BoundingBox(0.0, 0.0, 0.0, 5.0),   # zero width
            BoundingBox(0.0, 0.0, 5.0, 0.0),   # zero height
            BoundingBox(2.0, 3.0, 2.0, 3.0),   # a single point
        ],
    )
    def test_zero_extent_raises(self, box):
        with pytest.raises(InvalidGridError, match="positive width and height"):
            UniformGrid.square(box, 4)


class TestDatasetExtentPadding:
    def test_vertical_line_is_padded(self):
        data, features = vertical_line_dataset()
        extent = dataset_extent(data, features)
        assert extent.width > 0
        assert extent.height > 0

    def test_single_point_is_padded(self):
        data, features = single_point_dataset()
        extent = dataset_extent(data, features)
        assert extent.width > 0
        assert extent.height > 0


class TestEngineOnDegenerateDatasets:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_collinear_dataset_matches_oracle(self, algorithm):
        data, features = vertical_line_dataset()
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=3, radius=1.0, keywords={"cafe"})
        result = engine.execute(query, algorithm=algorithm, grid_size=4)
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        assert result.scores() == pytest.approx(oracle_positive[: query.k])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_points_match_oracle(self, algorithm):
        data, features = single_point_dataset()
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=4, radius=0.5, keywords={"cafe"})
        result = engine.execute(query, algorithm=algorithm, grid_size=3)
        # All four data objects sit on both features; the best feature is f0
        # (Jaccard 1.0 against {cafe} is f0's exact keyword set).
        assert len(result) == 4
        assert result.scores() == pytest.approx([1.0, 1.0, 1.0, 1.0])
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        assert result.scores() == pytest.approx(oracle.scores())

    def test_identical_points_zero_radius(self):
        """radius 0: objects at the exact feature position still match."""
        data, features = single_point_dataset()
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=2, radius=0.0, keywords={"bar"})
        result = engine.execute(query, algorithm="espq-sco", grid_size=2)
        assert result.scores() == pytest.approx([0.5, 0.5])

    def test_batch_on_degenerate_dataset(self):
        data, features = vertical_line_dataset()
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=2, radius=1.0, keywords={"cafe"})
        sequential = raw_execute(engine, query, algorithm="espq-len", grid_size=4)
        batched = engine.execute_many([query], algorithm="espq-len", grid_size=4)[0]
        assert batched.object_ids() == sequential.object_ids()
        assert batched.scores() == sequential.scores()


class TestExplicitDegenerateExtentRejected:
    @pytest.mark.parametrize(
        "box",
        [
            BoundingBox(0.0, 0.0, 0.0, 5.0),
            BoundingBox(0.0, 0.0, 5.0, 0.0),
            BoundingBox(1.0, 1.0, 1.0, 1.0),
        ],
    )
    def test_constructor_raises_clear_error(self, box):
        data, features = vertical_line_dataset()
        with pytest.raises(InvalidQueryError, match="degenerate"):
            SPQEngine(data, features, extent=box)

    def test_valid_explicit_extent_still_accepted(self):
        data, features = vertical_line_dataset()
        engine = SPQEngine(
            data, features, extent=BoundingBox(0.0, 0.0, 10.0, 10.0)
        )
        query = SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"cafe"})
        assert len(engine.execute(query, algorithm="pspq", grid_size=4)) >= 1
