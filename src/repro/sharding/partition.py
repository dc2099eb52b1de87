"""Extent-splitting dataset partitioner behind the shard routers.

The paper's grid (Section 4.1) splits one query's work into per-cell reduce
tasks; sharding lifts the same idea one level up, to *service* granularity:
the dataset extent is divided into the most-square ``cols x rows`` grid of
disjoint rectangular shard extents (one grid cell per shard), every data
object is assigned to exactly one shard (the shards are disjoint and cover
the dataset), and every feature object is copied to every shard, which is
exact for *any* query radius (data objects -- the ranked set -- still split
N ways).  Replication alone does not split the *work*: a shard holding every
feature would plan, map and reduce every candidate of a query, copies sent
to its data-less cells included.  What splits it is the shard engine's
*scope*, the shard's ``box``: per query, each shard drops the features with
``MINDIST(f, box) > r`` before planning (``DatasetIndex``) -- Lemma 1 at
shard granularity -- so it does exactly the work of a shard holding only
the features within ``r`` of its box, for every radius ``r`` it serves.
:meth:`ShardingPlan.shard_slice` is the one rule that turns a shard of the
plan into the arguments of the ``QueryService`` serving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.centralized import dataset_extent
from repro.model.objects import DataObject, FeatureObject
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid


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


@dataclass
class ShardDataset:
    """One shard's slice of the dataset.

    Attributes:
        shard_id: 0-based shard index (row-major over the shard grid).
        box: The shard's extent slice (disjoint from its siblings' up to
            shared borders; border points belong to exactly one shard via
            :meth:`ShardingPlan.locate`).
        data_objects: Data objects homed in ``box``, in storage order.
        feature_objects: Every feature object, in storage order (the
            shard engine's scope narrows them per query).
    """

    shard_id: int
    box: BoundingBox
    data_objects: List[DataObject] = field(default_factory=list)
    feature_objects: List[FeatureObject] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the shard owns no data objects (nothing to rank)."""
        return not self.data_objects


@dataclass(frozen=True)
class ShardingStats:
    """Replication accounting of one partitioning run.

    Attributes:
        num_shards: Number of shards produced.
        layout: The shard grid's ``(cols, rows)``.
        num_data: Data objects partitioned (each into exactly one shard).
        num_features: Distinct feature objects partitioned.
        num_feature_copies: Total feature copies across shards.
        empty_shards: Shards that received no data objects.
    """

    num_shards: int
    layout: Tuple[int, int]
    num_data: int
    num_features: int
    num_feature_copies: int
    empty_shards: int

    @property
    def replication_factor(self) -> float:
        """Mean shards each feature was copied to (1.0 for an empty ``F``)."""
        if self.num_features == 0:
            return 1.0
        return self.num_feature_copies / self.num_features


@dataclass
class ShardingPlan:
    """The complete output of :func:`partition_datasets`.

    Attributes:
        extent: The full dataset extent every shard engine must grid over
            (cell-for-cell alignment with an unsharded engine is what makes
            scatter-gather results identical).
        grid: The coarse shard grid, one cell per shard (cell id ``s + 1``
            is shard ``s``).
        shards: Per-shard datasets, in shard-id order.
        stats: Replication accounting (set once the shards are filled).
    """

    extent: BoundingBox
    grid: UniformGrid
    shards: List[ShardDataset]
    stats: ShardingStats = field(init=False)

    def locate(self, x: float, y: float) -> int:
        """Shard id owning point ``(x, y)`` (clamping like the grid does).

        Every point maps to exactly one shard -- the disjointness half of
        the partitioning contract -- because :meth:`UniformGrid.locate`
        maps every point to exactly one cell.
        """
        return self.grid.locate(x, y) - 1

    def grid_aligned(self, grid_size: int) -> bool:
        """True when a ``grid_size`` x ``grid_size`` query grid never splits a shard.

        Every query-grid cell lies entirely inside one shard iff both
        shard-grid dimensions divide the grid size.  Aligned grids make
        sharded results bit-for-bit identical to an unsharded engine
        *including* score-tie composition; non-aligned grids keep scores
        bit-for-bit but may resolve exact score ties at straddled cells
        differently (the same caveat the differential fuzz suite documents
        for eSPQsco).
        """
        return grid_size % self.grid.cells_x == 0 and grid_size % self.grid.cells_y == 0

    def shard_slice(self, shard_id: int) -> Dict[str, object]:
        """``shard_id``'s slice as the keyword arguments of the
        ``QueryService`` serving it (its constructor or ``swap_datasets``):
        the shard's data and features, the full extent to grid over -- so
        its query grid is cell-for-cell the unsharded engine's -- and its
        box as the scope."""
        shard = self.shards[shard_id]
        return dict(
            data_objects=shard.data_objects,
            feature_objects=shard.feature_objects,
            extent=self.extent,
            scope=shard.box,
        )


def partition_datasets(
    data_objects: Sequence[DataObject],
    feature_objects: Sequence[FeatureObject],
    num_shards: int,
    extent: Optional[BoundingBox] = None,
) -> ShardingPlan:
    """Split the dataset into ``num_shards`` spatially disjoint shards.

    The extent is cut into the most-square ``cols x rows`` grid
    (:func:`shard_layout`), one cell per shard.  Data objects are assigned
    to the shard enclosing them (storage order is preserved within each
    shard -- a requirement of result identity: a shard's per-cell reduce
    streams must be subsequences of the unsharded engine's).  Every
    feature object is copied to every shard.

    Args:
        data_objects: The object dataset ``O`` in storage order.
        feature_objects: The feature dataset ``F`` in storage order.
        num_shards: Number of shards (>= 1).
        extent: Explicit full extent; derived from the datasets otherwise.

    Raises:
        ValueError: for a non-positive shard count.
    """
    cols, rows = shard_layout(num_shards)
    if extent is None:
        extent = dataset_extent(data_objects, feature_objects)
    grid = UniformGrid(extent, cols, rows)
    shards = [
        ShardDataset(shard_id=shard_id, box=grid.cell_box(shard_id + 1))
        for shard_id in range(num_shards)
    ]
    plan = ShardingPlan(extent=extent, grid=grid, shards=shards)
    for obj in data_objects:
        shards[plan.locate(obj.x, obj.y)].data_objects.append(obj)
    for shard in shards:
        shard.feature_objects = list(feature_objects)

    plan.stats = ShardingStats(
        num_shards=num_shards,
        layout=(cols, rows),
        num_data=len(data_objects),
        num_features=len(feature_objects),
        num_feature_copies=len(feature_objects) * num_shards,
        empty_shards=sum(1 for shard in shards if shard.is_empty),
    )
    return plan


__all__ = [
    "ShardDataset",
    "ShardingPlan",
    "ShardingStats",
    "partition_datasets",
    "shard_layout",
]
