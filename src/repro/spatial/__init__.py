"""Spatial substrate: geometry, uniform grid and grid-based re-partitioning.

This package implements the grid-based partitioning of Section 4.1: a regular
uniform grid over the 2-d data space, assignment of every object to its
enclosing cell, and duplication of feature objects to every neighbouring cell
within ``MINDIST(f, C) <= r`` (Lemma 1) so each cell becomes an independent
work unit.
"""

from repro.spatial.geometry import BoundingBox, Point, euclidean_distance
from repro.spatial.grid import GridCell, UniformGrid
from repro.spatial.partitioning import (
    CellAssignment,
    GridPartitioner,
    PartitioningStats,
    duplication_regions,
)

__all__ = [
    "Point",
    "BoundingBox",
    "euclidean_distance",
    "UniformGrid",
    "GridCell",
    "GridPartitioner",
    "CellAssignment",
    "PartitioningStats",
    "duplication_regions",
]
