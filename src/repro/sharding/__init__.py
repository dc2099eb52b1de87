"""Sharded scatter-gather serving: spatial partitioning + query router.

Public surface:

* :func:`~repro.sharding.partition.partition_datasets` /
  :func:`~repro.sharding.partition.shard_layout` -- the extent-splitting
  partitioner: the most-square ``cols x rows`` split of the extent, one
  shard per cell, every feature on every shard (each shard engine's scope
  applies Lemma 1 at shard granularity per query).
* :class:`~repro.sharding.router.ShardRouter` /
  :class:`~repro.sharding.router.ShardingConfig` -- the in-process
  scatter-gather front-end (library only; ``repro serve --cluster N``
  serves the same router core over node processes).

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
