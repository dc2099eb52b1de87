"""Shard layouts: how the dataset extent is carved into shard extents.

The original partitioner always used the *uniform* most-square
``cols x rows`` split of the extent.  Uniform extents are the wrong shape
for real spatial-keyword data: object density is clustered, so one shard
ends up owning the hot cluster and caps the whole fleet (ROADMAP item 3).
This module separates the *layout* decision from the partitioning
mechanics so :func:`~repro.sharding.partition.partition_datasets` can also
build **skew-aware** layouts:

* :meth:`ShardLayout.uniform` -- the historical layout, bit-for-bit: the
  most-square factorization over a ``cols x rows``
  :class:`~repro.spatial.grid.UniformGrid`, one cell per shard.
* :meth:`ShardLayout.skew` -- kd-style recursive extent splits balancing
  *object count* instead of area, driven by the same per-cell data
  histogram :class:`~repro.index.dataset_index.DatasetIndex` holds
  (``data_cell_counts``).  Every split is snapped to a layout-grid cell
  boundary, so shard extents stay axis-aligned rectangles whose edges lie
  on grid lines -- the property :meth:`grid_aligned` (and with it the
  score-tie contract of the scatter-gather identity) depends on.

Both layouts expose the same three operations the partitioner and the
write router need -- :meth:`locate` (data routing: every point maps to
exactly one shard), :meth:`shards_within` (Lemma-1 feature replication at
shard granularity: every shard whose extent is within ``MINDIST <=
radius`` of the feature) and :meth:`grid_aligned` -- so the rest of the
sharding stack never branches on the layout kind.

Degenerate inputs reduce the shard *count* instead of producing invalid
shards: a region that cannot be split further (a single layout cell, or
one holding no objects) becomes exactly one shard, so a dataset whose
objects all fall into one grid cell yields a valid, possibly smaller
layout -- never an empty-extent shard.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

#: Layout-grid resolution (cells per axis) used when a skew layout is
#: requested without an explicit one; matches the engine's default query
#: grid size so the default grid is layout-aligned out of the box.
DEFAULT_SKEW_RESOLUTION = 50

#: The layout kinds :func:`~repro.sharding.partition.partition_datasets`
#: accepts by name.
LAYOUT_CHOICES = ("uniform", "skew")


def shard_layout(num_shards: int) -> Tuple[int, int]:
    """Most-square ``(cols, rows)`` factorization of ``num_shards``.

    ``4 -> (2, 2)``, ``6 -> (3, 2)``, ``5 -> (5, 1)``; a square-ish layout
    minimises shard-boundary length, and with it cross-boundary feature
    replication.

    Raises:
        ValueError: for a non-positive shard count.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    for rows in range(int(math.isqrt(num_shards)), 0, -1):
        if num_shards % rows == 0:
            return (num_shards // rows, rows)
    return (num_shards, 1)  # pragma: no cover - isqrt loop always hits 1


def data_cell_histogram(
    grid: UniformGrid, data_objects: Sequence[object]
) -> Dict[int, int]:
    """Per-cell data-object counts over ``grid`` (the skew layout's input).

    The same histogram :class:`~repro.index.dataset_index.DatasetIndex`
    builds as ``data_cell_counts``, computed directly from the objects so layouts can
    be derived before any index exists.
    """
    counts: Dict[int, int] = {}
    if not data_objects:
        return counts
    located = grid.locate_many(
        [obj.x for obj in data_objects], [obj.y for obj in data_objects]
    )
    for cell_id in located:
        counts[cell_id] = counts.get(cell_id, 0) + 1
    return counts


#: One kd region: inclusive ``(col0, row0, col1, row1)`` layout-cell ranges.
_Region = Tuple[int, int, int, int]


class ShardLayout:
    """A carve-up of the extent into disjoint rectangular shard extents.

    Every shard extent is a rectangle of whole layout-grid cells, so the
    layout is fully described by the layout grid plus one region of cells
    per shard.  Do not call the constructor directly -- use
    :meth:`uniform` or :meth:`skew`.

    Attributes:
        kind: ``"uniform"`` or ``"skew"``.
        grid: The layout grid; shard edges lie on its cell boundaries.
        regions: Inclusive ``(col0, row0, col1, row1)`` cell ranges, one
            per shard, in shard-id order.  They tile the grid exactly.
        boxes: The shard extents (:meth:`UniformGrid.cell_box` arithmetic,
            so the union tiles the extent exactly, last row/column
            snapped to the extent boundary).
    """

    def __init__(
        self, kind: str, grid: UniformGrid, regions: Sequence[_Region]
    ) -> None:
        self.kind = kind
        self.grid = grid
        self.regions: List[_Region] = list(regions)
        self.boxes: List[BoundingBox] = [
            self._region_box(region) for region in self.regions
        ]
        #: cell index (0-based) -> shard id; the data-routing table.
        self._cell_to_shard = [0] * grid.num_cells
        for shard_id, (col0, row0, col1, row1) in enumerate(self.regions):
            for row in range(row0, row1 + 1):
                base = row * grid.cells_x
                for col in range(col0, col1 + 1):
                    self._cell_to_shard[base + col] = shard_id
        #: Interior boundary indices actually used by some shard edge, in
        #: layout-cell units; the exact input of :meth:`grid_aligned`.
        self._x_bounds = sorted(
            {region[0] for region in self.regions if region[0] > 0}
            | {
                region[2] + 1
                for region in self.regions
                if region[2] + 1 < grid.cells_x
            }
        )
        self._y_bounds = sorted(
            {region[1] for region in self.regions if region[1] > 0}
            | {
                region[3] + 1
                for region in self.regions
                if region[3] + 1 < grid.cells_y
            }
        )

    def _region_box(self, region: _Region) -> BoundingBox:
        col0, row0, col1, row1 = region
        grid = self.grid
        low = grid.cell_box(grid.cell_id(col0, row0))
        high = grid.cell_box(grid.cell_id(col1, row1))
        return BoundingBox(low.min_x, low.min_y, high.max_x, high.max_y)

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def uniform(cls, extent: BoundingBox, num_shards: int) -> "ShardLayout":
        """The historical most-square ``cols x rows`` layout (one cell each)."""
        cols, rows = shard_layout(num_shards)
        grid = UniformGrid(extent, cols, rows)
        regions = [
            (col, row, col, row) for row in range(rows) for col in range(cols)
        ]
        return cls("uniform", grid, regions)

    @classmethod
    def skew(
        cls,
        extent: BoundingBox,
        num_shards: int,
        cell_counts: Mapping[int, int],
        resolution: Optional[int] = None,
    ) -> "ShardLayout":
        """Count-balancing kd layout over a ``resolution x resolution`` grid.

        The extent is split recursively: a region targeted with ``n``
        shards is cut -- at the layout-cell boundary, on either axis --
        into two sub-regions targeted with ``n // 2`` and ``n - n // 2``
        shards, choosing the boundary whose cumulative object count is
        closest to the proportional share of the region's total.  Ties
        prefer the longer axis (square-ish shards minimise replication
        boundary length, like the uniform most-square rule) and then the
        boundary nearest the region's middle.  A region that cannot
        usefully split -- one layout cell, or no objects at all -- becomes
        exactly one shard, reducing the shard count instead of emitting
        degenerate shards.

        Args:
            extent: The full dataset extent.
            num_shards: Requested shard count (>= 1); the layout may
                produce fewer on degenerate histograms, never more.
            cell_counts: Per-cell data-object counts over the layout grid
                (:func:`data_cell_histogram`, or
                ``DatasetIndex.data_cell_counts`` at the same grid size).
            resolution: Layout-grid cells per axis
                (default :data:`DEFAULT_SKEW_RESOLUTION`).

        Raises:
            ValueError: for a non-positive shard count or resolution.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        size = resolution or DEFAULT_SKEW_RESOLUTION
        if size < 1:
            raise ValueError(f"layout resolution must be >= 1, got {size}")
        grid = UniformGrid(extent, size, size)
        counts = [[0] * grid.cells_x for _ in range(grid.cells_y)]
        for cell_id, count in cell_counts.items():
            col, row = grid.cell_position(cell_id)
            counts[row][col] = count
        regions: List[_Region] = []
        cls._split_region(
            counts, (0, 0, grid.cells_x - 1, grid.cells_y - 1), num_shards,
            regions,
        )
        return cls("skew", grid, regions)

    @staticmethod
    def _split_region(
        counts: List[List[int]],
        region: _Region,
        num_shards: int,
        out: List[_Region],
    ) -> None:
        """Recursive count-balancing kd split; appends final regions to ``out``."""
        col0, row0, col1, row1 = region
        total = sum(
            counts[row][col]
            for row in range(row0, row1 + 1)
            for col in range(col0, col1 + 1)
        )
        if (
            num_shards == 1
            or (col0 == col1 and row0 == row1)
            or total == 0
        ):
            out.append(region)
            return
        n_lo = num_shards // 2
        target = total * (n_lo / num_shards)
        width = col1 - col0
        height = row1 - row0
        # Candidate key: (count cost, shorter-axis penalty, distance from
        # the region middle, axis, boundary) -- fully deterministic.
        best: Optional[Tuple[float, int, float, int, int]] = None
        if width > 0:
            cumulative = 0
            for col in range(col0, col1):
                cumulative += sum(
                    counts[row][col] for row in range(row0, row1 + 1)
                )
                key = (
                    abs(cumulative - target),
                    0 if width >= height else 1,
                    abs((col - col0 + 1) - (width + 1) / 2.0),
                    0,
                    col,
                )
                if best is None or key < best:
                    best = key
        if height > 0:
            cumulative = 0
            for row in range(row0, row1):
                cumulative += sum(
                    counts[row][col] for col in range(col0, col1 + 1)
                )
                key = (
                    abs(cumulative - target),
                    0 if height >= width else 1,
                    abs((row - row0 + 1) - (height + 1) / 2.0),
                    1,
                    row,
                )
                if best is None or key < best:
                    best = key
        assert best is not None  # width > 0 or height > 0 here
        _, _, _, axis, boundary = best
        if axis == 0:
            lo: _Region = (col0, row0, boundary, row1)
            hi: _Region = (boundary + 1, row0, col1, row1)
        else:
            lo = (col0, row0, col1, boundary)
            hi = (col0, boundary + 1, col1, row1)
        ShardLayout._split_region(counts, lo, n_lo, out)
        ShardLayout._split_region(counts, hi, num_shards - n_lo, out)

    # ------------------------------------------------------------------ #
    # the three operations the sharding stack needs

    @property
    def num_shards(self) -> int:
        """Number of shards this layout actually produced."""
        return len(self.regions)

    @property
    def dims(self) -> Tuple[int, int]:
        """The layout grid's ``(cols, rows)`` cell dimensions."""
        return (self.grid.cells_x, self.grid.cells_y)

    def locate(self, x: float, y: float) -> int:
        """Shard id owning point ``(x, y)`` (clamping like the grid does).

        Every point maps to exactly one shard -- the disjointness half of
        the partitioning contract -- because the regions tile the layout
        grid and :meth:`UniformGrid.locate` maps every point to exactly
        one cell.
        """
        return self._cell_to_shard[self.grid.locate(x, y) - 1]

    def shards_within(self, x: float, y: float, radius: float) -> List[int]:
        """Ids of shards with ``MINDIST((x, y), extent(S)) <= radius``.

        Lemma 1 at shard granularity: a feature object must be replicated
        to every returned shard (its own shard always qualifies with
        ``MINDIST == 0``).  For uniform layouts this is set-for-set the
        :class:`~repro.spatial.partitioning.GridPartitioner` duplication
        rule -- both evaluate the exact per-box MINDIST comparison.
        """
        return [
            shard_id
            for shard_id, box in enumerate(self.boxes)
            if box.min_distance(x, y) <= radius
        ]

    def grid_aligned(self, grid_size: int) -> bool:
        """True when a ``grid_size`` x ``grid_size`` query grid never splits a shard.

        A shard edge at interior layout boundary ``b`` (in layout-cell
        units, over ``G`` cells) coincides with a query-grid line iff
        ``b * grid_size % G == 0``; the layout is aligned when every edge
        it actually uses does.  For uniform ``cols x rows`` layouts every
        interior boundary is used, so this reduces to the historical rule
        ``grid_size % cols == 0 and grid_size % rows == 0``.
        """
        return all(
            b * grid_size % self.grid.cells_x == 0 for b in self._x_bounds
        ) and all(
            b * grid_size % self.grid.cells_y == 0 for b in self._y_bounds
        )

    def data_counts(self, cell_counts: Mapping[int, int]) -> List[int]:
        """Per-shard object totals of a layout-grid histogram (balance stats)."""
        totals = [0] * self.num_shards
        for cell_id, count in cell_counts.items():
            totals[self._cell_to_shard[cell_id - 1]] += count
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardLayout({self.kind}, {self.num_shards} shards over "
            f"{self.grid.cells_x}x{self.grid.cells_y} cells)"
        )


__all__ = [
    "DEFAULT_SKEW_RESOLUTION",
    "LAYOUT_CHOICES",
    "ShardLayout",
    "data_cell_histogram",
    "shard_layout",
]
