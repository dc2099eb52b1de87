"""Sharded scatter-gather serving: spatial partitioning + query router.

Public surface:

* :func:`~repro.sharding.partition.partition_datasets` /
  :func:`~repro.sharding.partition.shard_layout` -- the extent-splitting
  partitioner: the most-square ``cols x rows`` split of the extent, one
  shard per cell, with Lemma-1 feature replication at shard granularity.
* :class:`~repro.sharding.router.ShardRouter` /
  :class:`~repro.sharding.router.ShardingConfig` -- the scatter-gather
  front-end behind ``repro serve --shards N``.

See ``docs/sharding.md`` for the shard lifecycle, routing rule, hot-swap
quiesce protocol and tuning guidance.
"""

from repro.sharding.partition import (
    ShardDataset,
    ShardingPlan,
    ShardingStats,
    partition_datasets,
    shard_layout,
)
from repro.sharding.router import ShardRouter, ShardingConfig

__all__ = [
    "ShardDataset",
    "ShardRouter",
    "ShardingConfig",
    "ShardingPlan",
    "ShardingStats",
    "partition_datasets",
    "shard_layout",
]
