"""Section 6.2 — duplication factor: re-partitioning cost versus cell/radius ratio.

Benchmarks the grid re-partitioning step (the map-side work of every SPQ job)
at several cell-side / radius ratios and checks that the measured duplication
factor tracks the closed-form prediction ``df = pi r^2/a^2 + 4 r/a + 1``.
"""

from __future__ import annotations

import random

import pytest

from repro.paper.analysis import duplication_factor
from repro.model.objects import FeatureObject
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner

RATIOS = (2.0, 4.0, 10.0)
NUM_FEATURES = 20_000


@pytest.fixture(scope="module")
def features():
    rng = random.Random(99)
    return [
        FeatureObject(f"f{i}", rng.uniform(0, 100), rng.uniform(0, 100), {"kw"})
        for i in range(NUM_FEATURES)
    ]


@pytest.mark.parametrize("ratio", RATIOS)
def test_duplication_partitioning(benchmark, features, ratio):
    grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), 10)
    radius = grid.cell_width / ratio
    partitioner = GridPartitioner(grid, radius)

    def partition():
        return partitioner.partition([], features)[1]

    stats = benchmark(partition)
    predicted = duplication_factor(grid.cell_width, radius)
    assert stats.duplication_factor == pytest.approx(predicted, rel=0.1)
