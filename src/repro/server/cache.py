"""Thread-safe LRU cache of serialized query responses.

The online counterpart of the index cache one layer down: where the
:class:`~repro.index.cache.IndexCache` amortises *index builds* across
queries, this cache short-circuits *whole requests* -- a repeated canonical
query (same dataset version, k, radius, keyword set, algorithm, grid size
and score mode) is answered without touching an engine at all.

Keys embed the dataset version, so mutating the datasets
(``QueryService.swap_datasets``) implicitly invalidates every entry: stale
keys become unreachable and age out of the LRU.  Values are the response
payloads of :func:`repro.server.protocol.result_payload`; callers receive a
copy, never the cached object itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Mapping, Optional

from repro.index.cache import CacheStats
from repro.server.protocol import copy_payload

#: The result cache reports the same counter shape as the index cache.
ResultCacheStats = CacheStats


class ResultCache:
    """Bounded LRU of canonical query key -> response payload.

    Args:
        capacity: Maximum entries kept (LRU eviction).  ``0`` disables the
            cache entirely: every lookup misses, nothing is stored -- used
            by workloads that must observe every execution (calibration
            benchmarks) and by ``repro serve --result-cache 0``.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Dict[str, object]]" = OrderedDict()
        self.stats = CacheStats()

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever hit (capacity > 0)."""
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Dict[str, object]]:
        """A copy of the cached payload for ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        # Stored entries are immutable once cached (put stores a private
        # copy, invalidate only drops references), so the deep copy can run
        # outside the critical section instead of serializing every serving
        # thread on the mutex for the duration of a large-k payload copy.
        return copy_payload(entry)

    def put(self, key: Hashable, payload: Mapping[str, object]) -> None:
        """Store a copy of ``payload`` under ``key`` (no-op when disabled)."""
        if not self.enabled:
            return
        entry = copy_payload(payload)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry; returns the number removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += removed
            return removed
