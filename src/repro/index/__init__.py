"""Reusable index layer: amortise per-query work across a batch.

Public API:

* :class:`~repro.index.dataset_index.DatasetIndex` -- precomputed grid cell
  assignments, keyword inverted index and per-radius feature duplication for
  one dataset snapshot and grid size.
* :class:`~repro.index.cache.IndexCache` -- LRU cache of built indexes,
  keyed by ``(grid_size, dataset_version)`` by the engine.
* :class:`~repro.index.planner.BatchQuery` / :func:`~repro.index.planner.plan_batch`
  -- per-query overrides and execution ordering for ``SPQEngine.execute_many``.
* :class:`~repro.index.records.MapSplit` -- the pre-partitioned columnar
  map input the SPQ jobs consume directly.
* :class:`~repro.index.delta.DatasetDelta` / ``DeltaSnapshot`` -- the
  copy-on-write append/delete overlay queries merge with the base index
  (``docs/ingest.md``).
"""

from repro.index.cache import CacheStats, IndexCache, IndexCacheStats
from repro.index.dataset_index import DatasetIndex, IndexBuildStats, PreparedQuery
from repro.index.delta import DatasetDelta, DeltaSnapshot
from repro.index.planner import BatchQuery, PlannedQuery, plan_batch
from repro.index.records import MapSplit

__all__ = [
    "DatasetDelta",
    "DatasetIndex",
    "DeltaSnapshot",
    "IndexBuildStats",
    "PreparedQuery",
    "IndexCache",
    "CacheStats",
    "IndexCacheStats",
    "BatchQuery",
    "PlannedQuery",
    "plan_batch",
    "MapSplit",
]
