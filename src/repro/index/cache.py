"""LRU cache of :class:`~repro.index.dataset_index.DatasetIndex` instances.

The engine keys entries by ``(grid_size, dataset_version)``: the grid size
because every index is specialised for one grid, the dataset version because
an index built over a stale dataset snapshot must never serve a query after
the datasets changed.  Bumping the version (``SPQEngine.invalidate_indexes``)
makes every existing key unreachable, and :meth:`IndexCache.invalidate`
drops the entries themselves.  A compaction instead *retires* them
(:meth:`IndexCache.retire`): each waits, out of reach, for the first
lookup of its successor key, which folds the delta into it
(``DatasetIndex.fold``) instead of building from the objects.

One cache may be *shared* by several engines over the same datasets (the
query service hands one cache to its whole engine pool, so an index built
for any pooled engine serves all of them): all public methods take an
internal lock, and a build happens under the lock so concurrent requests
for the same grid size produce exactly one index.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

from repro.index.dataset_index import DatasetIndex


@dataclass
class CacheStats:
    """Hit/miss accounting shared by every bounded cache in the system.

    Used by the :class:`IndexCache` here and the result cache of the query
    service (:mod:`repro.server.cache`), so ``/stats`` consumers see one
    consistent shape for every cache counter block.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for stats reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


#: Backwards-compatible name of the index cache's stats block.
IndexCacheStats = CacheStats


class IndexCache:
    """Bounded LRU mapping of cache keys to built dataset indexes.

    Args:
        capacity: Maximum number of indexes kept alive; the least recently
            used entry is evicted first.  Each index holds per-radius
            duplication lists, so the capacity bounds memory at roughly
            ``capacity * (|O| + |F| * radii)`` references.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        #: key -> latch of an in-progress build; waiters block on the latch
        #: instead of the map lock, so hits on other keys never stall.
        self._building: Dict[Hashable, threading.Event] = {}
        self._entries: "OrderedDict[Hashable, DatasetIndex]" = OrderedDict()
        #: key -> index retired by the last compaction, until its successor
        #: takes it over (:meth:`retire`).
        self._retired: Dict[Hashable, DatasetIndex] = {}
        self.stats = IndexCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get_or_build(
        self,
        key: Hashable,
        builder: Callable[[], DatasetIndex],
        predecessor: Optional[Hashable] = None,
        fold: Optional[Callable[[DatasetIndex], DatasetIndex]] = None,
    ) -> "tuple[DatasetIndex, bool]":
        """Return ``(index, was_hit)``, building and inserting on a miss.

        Builds run *outside* the map lock, coordinated by a per-key latch:
        of several sharing engines missing on the same key concurrently,
        exactly one pays the build while the rest wait on that key's latch
        and then hit -- lookups and builds of other keys proceed
        unblocked throughout.  When the index retired under
        ``predecessor`` is still held, a miss hands it to ``fold`` instead
        of calling ``builder``: the successor takes it over, once.
        """
        while True:
            with self._lock:
                index = self._entries.get(key)
                if index is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return index, True
                latch = self._building.get(key)
                if latch is None:
                    latch = self._building[key] = threading.Event()
                    break  # this caller owns the build
            # Another caller is building this key: wait, then re-check (the
            # loop handles build failure or an immediate eviction).
            latch.wait()
        with self._lock:
            retired = self._retired.pop(predecessor, None) if fold else None
        try:
            index = builder() if retired is None else fold(retired)  # type: ignore[misc]
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            latch.set()
            raise
        with self._lock:
            self.stats.misses += 1
            self._entries[key] = index
            evicted: list[DatasetIndex] = []
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False)[1])
                self.stats.evictions += 1
            self._building.pop(key, None)
        latch.set()
        # Outside the lock: releasing does not touch the map.
        for old in evicted:
            _release(old)
        return index, False

    def invalidate(self, key: Optional[Hashable] = None) -> int:
        """Drop one entry (or all entries when ``key`` is None).

        Dropped indexes are released, so a retired generation dies with its
        entry.  Returns the number of entries removed.
        """
        retired: List[DatasetIndex] = []
        with self._lock:
            if key is None:
                dropped = list(self._entries.values())
                self._entries.clear()
                retired = list(self._retired.values())
                self._retired.clear()
            else:
                entry = self._entries.pop(key, None)
                dropped = [entry] if entry is not None else []
            removed = len(dropped)
            self.stats.invalidations += removed
        for entry in dropped + retired:
            _release(entry)
        return removed

    def retire(self) -> None:
        """Retire every entry for its successor to fold (a compaction).

        The entries leave the map -- their keys name the superseded
        snapshot -- but stay held under their keys for
        :meth:`get_or_build`'s ``predecessor``.  What the previous
        compaction retired and no lookup took over is dropped: it is two
        generations old now.
        """
        with self._lock:
            dropped = list(self._retired.values())
            self._retired = dict(self._entries)
            self._entries.clear()
            retired = list(self._retired.values())
            self.stats.invalidations += len(retired)
        for entry in dropped + retired:
            _release(entry)

    def release_all(self) -> None:
        """Release every cached index, keeping the entries.

        Engine/service shutdown calls this: the indexes stay cached (an
        engine remains usable after ``close()``) and rebuild what
        :meth:`DatasetIndex.release` dropped on their next query.
        """
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            _release(entry)


def _release(index: DatasetIndex) -> None:
    """Release a dropped entry (tolerates test doubles)."""
    release = getattr(index, "release", None)
    if release is not None:
        release()
