"""Delta index: in-memory append/delete overlay on an immutable base dataset.

Every dataset change used to be an atomic full swap -- even one appended
POI rebuilt the whole columnar plane.  The delta layer absorbs small
incremental updates (``POST /objects``) without touching the base
:class:`~repro.index.dataset_index.DatasetIndex` at all:

* **Appends** are held in the delta in arrival order.  At query time the
  engine adds them to the query's columnar map split:
  appended features sort after the base features of the same sort key
  (the base index's candidates come first), appended data after the
  cell's base block (injected ahead of every live value) -- exactly where
  a bulk swap of the final state would have placed them, so results
  (score ties included) are bit-for-bit identical to the swapped
  dataset's.
* **Deletes** of base objects become *tombstones*: an oid set consulted
  before the reduce input is assembled (a data tombstone withholds its
  row from the cell's block where the block is handed to the reducer --
  ``DatasetIndex.data_shuffle`` -- feature tombstones filter the
  candidate positions), never after the top-k cut -- post-filtering a
  top-k would under-fill it.  Deleting an oid that was itself appended
  since the last compaction simply removes it from the delta again.

The delta is a copy-on-write immutable snapshot behind one writer lock:
readers pin a :class:`DeltaSnapshot` per batch with a single attribute
read (no lock, no copy) and writers install a fresh snapshot.  A
*compaction* (see :meth:`repro.server.service.QueryService.compact`)
materializes base+delta into a new base dataset, swaps it in under the
existing quiesce machinery, and calls :meth:`DatasetDelta.reset`; the
cached indexes fold the same snapshot in (``DatasetIndex.fold``), keeping
the rows :func:`surviving` names.

See ``docs/ingest.md`` for the full lifecycle and identity contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import DatasetUpdateError
from repro.index.records import MapSplit, feature_record_size
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner
from repro.text.similarity import JaccardScorer


@dataclass(frozen=True)
class DeltaSnapshot:
    """One immutable state of the delta overlay.

    Attributes:
        data: Data objects appended since the last compaction, in arrival
            order (the storage order a bulk swap would give them).
        features: Feature objects appended since the last compaction, in
            arrival order.
        deleted_data_oids: Tombstoned *base* data oids.
        deleted_feature_oids: Tombstoned *base* feature oids.
        version: Monotonic counter; every applied write batch, and every
            reset, installs a snapshot with a higher version.  Result
            caches key on ``(dataset_version, delta version)`` so stale
            responses become unreachable the moment a write lands.
    """

    data: Tuple[DataObject, ...] = ()
    features: Tuple[FeatureObject, ...] = ()
    deleted_data_oids: frozenset = frozenset()
    deleted_feature_oids: frozenset = frozenset()
    version: int = 0

    @property
    def is_empty(self) -> bool:
        """True when queries can run on the pure base path."""
        return not (
            self.data
            or self.features
            or self.deleted_data_oids
            or self.deleted_feature_oids
        )

    @cached_property
    def appended_data(self) -> Dict[str, DataObject]:
        """Oid -> appended data object, built once per snapshot."""
        return {obj.oid: obj for obj in self.data}

    @property
    def num_ops(self) -> int:
        """Live delta size: appends held plus tombstones held.

        This is the compaction-trigger metric (``--compact-threshold``);
        an append later deleted no longer counts -- it left the delta.
        """
        return (
            len(self.data)
            + len(self.features)
            + len(self.deleted_data_oids)
            + len(self.deleted_feature_oids)
        )

    def counts(self) -> Dict[str, int]:
        """JSON-ready size summary for ``/stats``."""
        return {
            "appended_data": len(self.data),
            "appended_features": len(self.features),
            "deleted_data": len(self.deleted_data_oids),
            "deleted_features": len(self.deleted_feature_oids),
            "version": self.version,
        }


@dataclass
class DeltaCounters:
    """Cumulative ingest accounting across the delta's lifetime."""

    write_batches: int = 0
    data_appended: int = 0
    features_appended: int = 0
    data_deleted: int = 0
    features_deleted: int = 0
    resets: int = 0


class DatasetDelta:
    """Thread-safe copy-on-write holder of the current :class:`DeltaSnapshot`.

    One instance is shared by every engine of a service pool (and by the
    service's write path): writers serialize on the internal lock, readers
    never take it -- :meth:`snapshot` is a single atomic attribute read.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshot = DeltaSnapshot()
        self.counters = DeltaCounters()

    def snapshot(self) -> DeltaSnapshot:
        """The current immutable snapshot (lock-free; pin once per batch)."""
        return self._snapshot

    def apply(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Iterable[str] = (),
        delete_feature_oids: Iterable[str] = (),
        base_data_oids: Optional[Set[str]] = None,
        base_feature_oids: Optional[Set[str]] = None,
        extent: Optional[BoundingBox] = None,
    ) -> Dict[str, int]:
        """Apply one write batch, installing a fresh snapshot.

        Within a batch, deletes are applied before appends, so one call
        can atomically replace an object (delete old oid, append new).
        Deletes are idempotent -- a missing oid deletes nothing and is
        simply not counted.  Appends are validated: a duplicate live oid
        or a position outside ``extent`` rejects the whole batch (the
        snapshot is only swapped in after full validation, so a rejected
        batch leaves no partial state).

        Args:
            append_data / append_features: Objects to append, in order.
            delete_data_oids / delete_feature_oids: Oids to tombstone
                (base objects) or un-append (delta objects).
            base_data_oids / base_feature_oids: Oid sets of the *base*
                datasets, used to distinguish tombstones from un-appends
                and to reject duplicate appends.  ``None`` skips the
                duplicate check against the base (delta-only validation
                still applies).
            extent: Served extent; appends must lie within it.

        Returns:
            Counts dict: ``data_appended``, ``features_appended``,
            ``data_deleted``, ``features_deleted``, ``delta_version``.

        Raises:
            DatasetUpdateError: on any validation failure.
        """
        with self._lock:
            before = self._snapshot

            delete_data = set(delete_data_oids)
            delete_features = set(delete_feature_oids)

            # Deletes first: un-append delta objects, tombstone base ones.
            kept_data = tuple(
                obj for obj in before.data if obj.oid not in delete_data
            )
            kept_features = tuple(
                obj for obj in before.features if obj.oid not in delete_features
            )
            data_unappended = len(before.data) - len(kept_data)
            features_unappended = len(before.features) - len(kept_features)
            new_data_tombstones = {
                oid
                for oid in delete_data
                if base_data_oids is not None
                and oid in base_data_oids
                and oid not in before.deleted_data_oids
            }
            new_feature_tombstones = {
                oid
                for oid in delete_features
                if base_feature_oids is not None
                and oid in base_feature_oids
                and oid not in before.deleted_feature_oids
            }
            deleted_data_oids = before.deleted_data_oids | new_data_tombstones
            deleted_feature_oids = (
                before.deleted_feature_oids | new_feature_tombstones
            )

            # Appends second, validated against the post-delete live state.
            live_data_oids = {obj.oid for obj in kept_data}
            live_feature_oids = {obj.oid for obj in kept_features}
            for obj in append_data:
                self._validate_append(
                    obj, live_data_oids, base_data_oids, deleted_data_oids,
                    extent, kind="data",
                )
                live_data_oids.add(obj.oid)
            for obj in append_features:
                self._validate_append(
                    obj, live_feature_oids, base_feature_oids,
                    deleted_feature_oids, extent, kind="feature",
                )
                live_feature_oids.add(obj.oid)

            after = DeltaSnapshot(
                data=kept_data + tuple(append_data),
                features=kept_features + tuple(append_features),
                deleted_data_oids=frozenset(deleted_data_oids),
                deleted_feature_oids=frozenset(deleted_feature_oids),
                version=before.version + 1,
            )
            counts = {
                "data_appended": len(append_data),
                "features_appended": len(append_features),
                "data_deleted": data_unappended + len(new_data_tombstones),
                "features_deleted": (
                    features_unappended + len(new_feature_tombstones)
                ),
                "delta_version": after.version,
            }
            counters = self.counters
            counters.write_batches += 1
            counters.data_appended += counts["data_appended"]
            counters.features_appended += counts["features_appended"]
            counters.data_deleted += counts["data_deleted"]
            counters.features_deleted += counts["features_deleted"]
            self._snapshot = after
            return counts

    @staticmethod
    def _validate_append(
        obj,
        live_delta_oids: Set[str],
        base_oids: Optional[Set[str]],
        tombstones: Set[str],
        extent: Optional[BoundingBox],
        kind: str,
    ) -> None:
        if obj.oid in live_delta_oids or (
            base_oids is not None
            and obj.oid in base_oids
            and obj.oid not in tombstones
        ):
            raise DatasetUpdateError(
                f"cannot append {kind} object {obj.oid!r}: oid already live "
                "(delete it first to replace it)"
            )
        if extent is not None and not extent.contains(obj.x, obj.y):
            raise DatasetUpdateError(
                f"cannot append {kind} object {obj.oid!r} at "
                f"({obj.x}, {obj.y}): outside the served extent "
                f"[{extent.min_x}, {extent.max_x}] x "
                f"[{extent.min_y}, {extent.max_y}] the query grids are "
                "pinned to (swap the full dataset to widen it)"
            )

    def reset(self) -> DeltaSnapshot:
        """Empty the delta (post-compaction / full swap); returns what was dropped.

        The fresh snapshot still gets a new, higher version so result
        caches keyed on the delta version cannot alias pre-reset entries.
        """
        with self._lock:
            before = self._snapshot
            self._snapshot = DeltaSnapshot(version=before.version + 1)
            self.counters.resets += 1
            return before


# --------------------------------------------------------------------- #
# materialization + record building (module helpers used by the engine)


def surviving(base: Sequence, deleted_oids: frozenset) -> List[int]:
    """Storage positions of the ``base`` objects a compaction keeps, ascending.

    The one survival rule: :func:`materialize` builds the compacted
    datasets from it and ``DatasetIndex.fold`` carries the index columns
    of exactly these positions, so the two cannot disagree.
    """
    return [
        position for position, obj in enumerate(base) if obj.oid not in deleted_oids
    ]


def dropped(kept: Sequence[int], total: int) -> List[int]:
    """The positions below ``total`` that ``kept`` -- ascending, as
    :func:`surviving` returns them -- leaves out, ascending.

    ``kept[i] - i`` counts the positions dropped before ``kept[i]``, so each
    dropped one is found by bisection: O(dropped * log(kept)), not a pass
    over every position.
    """
    gaps: List[int] = []
    lo = 0
    for before in range(total - len(kept)):
        hi = len(kept)
        while lo < hi:
            mid = (lo + hi) // 2
            if kept[mid] - mid > before:
                hi = mid
            else:
                lo = mid + 1
        gaps.append(lo + before)
    return gaps


def materialize(
    base_data: Sequence[DataObject],
    base_features: Sequence[FeatureObject],
    snapshot: DeltaSnapshot,
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Base+delta folded into plain dataset lists, in bulk-swap order.

    Storage order is the identity contract's anchor: surviving base
    objects keep their relative order, appended objects follow in arrival
    order -- the order a bulk swap of the final state would serve.
    """
    data = list(map(base_data.__getitem__, surviving(base_data, snapshot.deleted_data_oids)))
    data.extend(snapshot.data)
    features = list(
        map(base_features.__getitem__, surviving(base_features, snapshot.deleted_feature_oids))
    )
    features.extend(snapshot.features)
    return data, features


def with_delta_appends(
    split: MapSplit,
    snapshot: DeltaSnapshot,
    query: SpatialPreferenceQuery,
    grid: UniformGrid,
    scope: Optional[BoundingBox] = None,
) -> Tuple[MapSplit, int]:
    """``split`` (the base index's candidates) plus the delta's appends.

    Appended data objects are located on ``grid``; appended features get
    the same reach test, keyword pruning and Lemma-1 duplication the base
    index applied at build/prepare time, are scored and sized like its
    columns, and follow the base candidates, so the columns are exactly what
    :meth:`DatasetIndex.prepare` would have gathered had the objects been
    part of the base.  With a ``scope`` (the base index's), an appended
    feature farther than ``query.radius`` from it is absent: neither mapped
    nor counted as pruned.  Returns ``(split, num_pruned)``.
    """
    data = list(snapshot.data)
    data_cells = [grid.locate(obj.x, obj.y) for obj in data]
    features, cells = list(split.features), list(split.cells)
    scores, sizes = list(split.scores), list(split.sizes)
    appended = [f for f in snapshot.features
                if scope is None or scope.min_distance(f.x, f.y) <= query.radius]
    kept = [
        feature
        for feature in appended
        if feature.has_common_keyword(query.keywords)
    ]
    if kept:
        partitioner = GridPartitioner(grid, query.radius)
        features.extend(kept)
        cells.extend(tuple(partitioner.assign_feature_object(f)) for f in kept)
        score = JaccardScorer(query.keywords).score
        scores.extend(score(f.keywords) for f in kept)
        sizes.extend(map(feature_record_size, kept))
    split = MapSplit(features, cells, scores, sizes, data, data_cells)
    return split, len(appended) - len(kept)


__all__ = [
    "DatasetDelta",
    "DeltaCounters",
    "DeltaSnapshot",
    "dropped",
    "materialize",
    "surviving",
    "with_delta_appends",
]
