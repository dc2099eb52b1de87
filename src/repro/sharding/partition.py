"""Extent-splitting dataset partitioner behind the shard router.

The paper's grid (Section 4.1) splits one query's work into per-cell reduce
tasks; sharding lifts the same idea one level up, to *service* granularity:
the dataset extent is divided into the most-square ``cols x rows`` grid of
disjoint rectangular shard extents (one grid cell per shard), every data
object is assigned to exactly one shard (the shards are disjoint and cover
the dataset), and feature objects are *replicated* to every shard whose
extent they can influence, exactly Lemma 1 applied at shard granularity: a
feature ``f`` must reach shard ``S`` iff ``MINDIST(f, extent(S)) <= r``.

Because the supported query radius is not known at partition time, the
replication radius is a partitioning parameter (``max_radius``); queries
with a larger radius cannot be answered exactly from the shards and are
rejected by the router.  ``max_radius=None`` replicates every feature to
every shard, which is exact for *any* radius at the cost of feature-side
memory (data objects -- the ranked set -- still split N ways).  Replication
alone does not split the *work*: a shard holding every feature would plan,
map and reduce every candidate of a query, copies sent to its data-less
cells included.  What splits it is the shard engine's *scope*, the shard's
``box``: per query, each shard drops the features with ``MINDIST(f, box) >
r`` before planning (``DatasetIndex``), the same test as
:meth:`ShardingPlan.shards_within`, so it does exactly the work of a shard
partitioned with ``max_radius = r`` for every radius ``r`` it serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.centralized import dataset_extent
from repro.exceptions import InvalidQueryError
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
        feature_objects: Feature objects within ``max_radius`` of ``box``
            (all features when replication is unbounded), in storage order.
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
        max_radius: The replication radius (None = unbounded).
        shards: Per-shard datasets, in shard-id order.
        stats: Replication accounting (set once the shards are filled).
    """

    extent: BoundingBox
    grid: UniformGrid
    max_radius: Optional[float]
    shards: List[ShardDataset]
    stats: ShardingStats = field(init=False)

    def locate(self, x: float, y: float) -> int:
        """Shard id owning point ``(x, y)`` (clamping like the grid does).

        Every point maps to exactly one shard -- the disjointness half of
        the partitioning contract -- because :meth:`UniformGrid.locate`
        maps every point to exactly one cell.
        """
        return self.grid.locate(x, y) - 1

    def shards_within(self, x: float, y: float, radius: float) -> List[int]:
        """Ids of shards with ``MINDIST((x, y), extent(S)) <= radius``.

        Lemma 1 at shard granularity: a feature object must be replicated
        to every returned shard (its own shard always qualifies with
        ``MINDIST == 0``).
        """
        return [
            shard.shard_id
            for shard in self.shards
            if shard.box.min_distance(x, y) <= radius
        ]

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


def partition_datasets(
    data_objects: Sequence[DataObject],
    feature_objects: Sequence[FeatureObject],
    num_shards: int,
    max_radius: Optional[float] = None,
    extent: Optional[BoundingBox] = None,
) -> ShardingPlan:
    """Split the dataset into ``num_shards`` spatially disjoint shards.

    The extent is cut into the most-square ``cols x rows`` grid
    (:func:`shard_layout`), one cell per shard.  Data objects are assigned
    to the shard enclosing them (storage order is preserved within each
    shard -- a requirement of result identity: a shard's per-cell reduce
    streams must be subsequences of the unsharded engine's).  Feature
    objects are replicated via :meth:`ShardingPlan.shards_within` --
    Lemma 1 at shard granularity -- or to every shard when ``max_radius``
    is None.

    Args:
        data_objects: The object dataset ``O`` in storage order.
        feature_objects: The feature dataset ``F`` in storage order.
        num_shards: Number of shards (>= 1).
        max_radius: Largest query radius the shards must answer exactly
            (None = unbounded, full feature replication).
        extent: Explicit full extent; derived from the datasets otherwise.

    Raises:
        ValueError: for a non-positive shard count.
        InvalidQueryError: for a negative ``max_radius``.
    """
    cols, rows = shard_layout(num_shards)
    if max_radius is not None and max_radius < 0:
        raise InvalidQueryError(f"max_radius must be >= 0, got {max_radius}")
    if extent is None:
        extent = dataset_extent(data_objects, feature_objects)
    grid = UniformGrid(extent, cols, rows)
    shards = [
        ShardDataset(shard_id=shard_id, box=grid.cell_box(shard_id + 1))
        for shard_id in range(num_shards)
    ]
    plan = ShardingPlan(extent=extent, grid=grid, max_radius=max_radius, shards=shards)
    for obj in data_objects:
        shards[plan.locate(obj.x, obj.y)].data_objects.append(obj)

    num_copies = 0
    if max_radius is None or num_shards == 1:
        for shard in shards:
            shard.feature_objects = list(feature_objects)
        num_copies = len(feature_objects) * num_shards
    else:
        for feature in feature_objects:
            for shard_id in plan.shards_within(feature.x, feature.y, max_radius):
                shards[shard_id].feature_objects.append(feature)
                num_copies += 1

    plan.stats = ShardingStats(
        num_shards=num_shards,
        layout=(cols, rows),
        num_data=len(data_objects),
        num_features=len(feature_objects),
        num_feature_copies=num_copies,
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
