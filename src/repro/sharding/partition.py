"""Extent-splitting dataset partitioner behind the shard router.

The paper's grid (Section 4.1) splits one query's work into per-cell reduce
tasks; sharding lifts the same idea one level up, to *service* granularity:
the dataset extent is divided into disjoint rectangular shard extents by a
:class:`~repro.sharding.layout.ShardLayout` -- the historical uniform
``cols x rows`` split, or a skew-aware count-balancing kd split -- every
data object is assigned to exactly one shard (the shards are disjoint and
cover the dataset), and feature objects are *replicated* to every shard
whose extent they can influence, exactly Lemma 1 applied at shard
granularity: a feature ``f`` must reach shard ``S`` iff
``MINDIST(f, extent(S)) <= r``.

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
:meth:`ShardLayout.shards_within`, so it does exactly the work of a shard
partitioned with ``max_radius = r`` for every radius ``r`` it serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.centralized import dataset_extent
from repro.exceptions import InvalidQueryError
from repro.model.objects import DataObject, FeatureObject
from repro.sharding.layout import (
    DEFAULT_SKEW_RESOLUTION,
    LAYOUT_CHOICES,
    ShardLayout,
    data_cell_histogram,
    shard_layout,
)
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid


@dataclass
class ShardDataset:
    """One shard's slice of the dataset.

    Attributes:
        shard_id: 0-based shard index (the layout's shard numbering).
        box: The shard's extent slice (disjoint from its siblings' up to
            shared borders; border points belong to exactly one shard via
            ``ShardLayout.locate``).
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
        num_shards: Number of shards produced (degenerate datasets may
            reduce a skew layout below the requested count).
        layout: The layout grid's ``(cols, rows)`` cell dimensions (for
            uniform layouts: the shard-grid layout itself).
        num_data: Data objects partitioned (each into exactly one shard).
        num_features: Distinct feature objects partitioned.
        num_feature_copies: Total feature copies across shards.
        empty_shards: Shards that received no data objects.
        kind: The layout kind (``"uniform"`` or ``"skew"``).
    """

    num_shards: int
    layout: Tuple[int, int]
    num_data: int
    num_features: int
    num_feature_copies: int
    empty_shards: int
    kind: str = "uniform"

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
        grid: The layout grid (for uniform layouts: the coarse shard grid,
            one cell per shard).
        max_radius: The replication radius (None = unbounded).
        shards: Per-shard datasets, in shard-id order.
        stats: Replication accounting.
        layout: The :class:`~repro.sharding.layout.ShardLayout` behind the
            shard extents.
    """

    extent: BoundingBox
    grid: UniformGrid
    max_radius: Optional[float]
    shards: List[ShardDataset]
    stats: ShardingStats
    layout: Optional[ShardLayout] = None

    def grid_aligned(self, grid_size: int) -> bool:
        """True when a ``grid_size`` x ``grid_size`` query grid never splits a shard.

        Every query-grid cell lies entirely inside one shard iff every
        shard edge lies on a query-grid line (for uniform layouts: both
        shard-grid dimensions divide the grid size).  Aligned grids make
        sharded results bit-for-bit identical to an unsharded engine
        *including* score-tie composition; non-aligned grids keep scores
        bit-for-bit but may resolve exact score ties at straddled cells
        differently (the same caveat the differential fuzz suite documents
        for eSPQsco).
        """
        if self.layout is not None:
            return self.layout.grid_aligned(grid_size)
        cols, rows = self.stats.layout
        return grid_size % cols == 0 and grid_size % rows == 0


def partition_datasets(
    data_objects: Sequence[DataObject],
    feature_objects: Sequence[FeatureObject],
    num_shards: int,
    max_radius: Optional[float] = None,
    extent: Optional[BoundingBox] = None,
    layout: Union[str, ShardLayout] = "uniform",
    layout_resolution: Optional[int] = None,
) -> ShardingPlan:
    """Split the dataset into up to ``num_shards`` spatially disjoint shards.

    Data objects are assigned to the shard enclosing them (storage order is
    preserved within each shard -- a requirement of result identity: a
    shard's per-cell reduce streams must be subsequences of the unsharded
    engine's).  Feature objects are replicated via
    :meth:`ShardLayout.shards_within` -- Lemma 1 at shard granularity --
    or to every shard when ``max_radius`` is None.

    Args:
        data_objects: The object dataset ``O`` in storage order.
        feature_objects: The feature dataset ``F`` in storage order.
        num_shards: Requested number of shards (>= 1).  A skew layout over
            a degenerate histogram may produce fewer (never zero, never
            shards with an empty extent).
        max_radius: Largest query radius the shards must answer exactly
            (None = unbounded, full feature replication).
        extent: Explicit full extent; derived from the datasets otherwise.
        layout: ``"uniform"`` (the historical most-square split),
            ``"skew"`` (count-balancing kd split over the data histogram)
            or a pre-built :class:`ShardLayout` (rebalancers pass the
            layout they derived).
        layout_resolution: Skew layout-grid cells per axis; ignored for
            uniform layouts.

    Raises:
        ValueError: for a non-positive shard count or an unknown layout.
        InvalidQueryError: for a negative ``max_radius``.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if max_radius is not None and max_radius < 0:
        raise InvalidQueryError(f"max_radius must be >= 0, got {max_radius}")
    if extent is None:
        extent = dataset_extent(data_objects, feature_objects)
    if isinstance(layout, ShardLayout):
        shard_extents = layout
    elif layout == "uniform":
        shard_extents = ShardLayout.uniform(extent, num_shards)
    elif layout == "skew":
        resolution = layout_resolution or DEFAULT_SKEW_RESOLUTION
        layout_grid = UniformGrid(extent, resolution, resolution)
        shard_extents = ShardLayout.skew(
            extent,
            num_shards,
            data_cell_histogram(layout_grid, data_objects),
            resolution=resolution,
        )
    else:
        raise ValueError(
            f"unknown layout {layout!r}; expected one of {LAYOUT_CHOICES} "
            "or a ShardLayout"
        )

    shards = [
        ShardDataset(shard_id=shard_id, box=box)
        for shard_id, box in enumerate(shard_extents.boxes)
    ]
    for obj in data_objects:
        shards[shard_extents.locate(obj.x, obj.y)].data_objects.append(obj)

    produced = shard_extents.num_shards
    num_copies = 0
    if max_radius is None or produced == 1:
        for shard in shards:
            shard.feature_objects = list(feature_objects)
        num_copies = len(feature_objects) * produced
    else:
        for feature in feature_objects:
            for shard_id in shard_extents.shards_within(
                feature.x, feature.y, max_radius
            ):
                shards[shard_id].feature_objects.append(feature)
                num_copies += 1

    stats = ShardingStats(
        num_shards=produced,
        layout=shard_extents.dims,
        num_data=len(data_objects),
        num_features=len(feature_objects),
        num_feature_copies=num_copies,
        empty_shards=sum(1 for shard in shards if shard.is_empty),
        kind=shard_extents.kind,
    )
    return ShardingPlan(
        extent=extent,
        grid=shard_extents.grid,
        max_radius=max_radius,
        shards=shards,
        stats=stats,
        layout=shard_extents,
    )


__all__ = [
    "ShardDataset",
    "ShardingPlan",
    "ShardingStats",
    "partition_datasets",
    "shard_layout",
]
