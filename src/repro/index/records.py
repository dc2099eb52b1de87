"""The columnar input of the short-circuited map phase.

When a query runs through a :class:`~repro.index.dataset_index.DatasetIndex`,
the spatial work of the map phase (grid location, keyword pruning, MINDIST
neighbour duplication) has already been done -- at index-build time, in the
per-radius Lemma-1 cache, or by the delta layer for appended objects.  The
engine then hands the job runner one :class:`MapSplit` instead of a stream of
raw :class:`~repro.model.objects.DataObject` / FeatureObject records; the SPQ
jobs map it with one fused kernel (``_SPQJobBase.map_split``) that emits
exactly the key-value pairs the per-record map phase would have produced.

This module deliberately imports only :mod:`repro.model` so that
:mod:`repro.core.jobs` can depend on it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.model.objects import DataObject, FeatureObject


@dataclass(frozen=True)
class MapSplit:
    """Pre-assigned map input as parallel columns.

    The logical record order -- what sequence numbers and ``slices`` follow
    -- is every ``data`` row, then every ``features`` row (the base
    candidates in storage order, then the delta's appended features).  The
    columns hold references, never copies of objects, can be walked any
    number of times and pickle as plain lists.

    Attributes:
        features: Feature objects that survived keyword pruning.
        cells: Per feature, every cell it must reach (Lemma 1), enclosing
            cell first -- the order the map-side partitioner produces.
        data: Data objects mapped live (delta appends; the indexed ones come
            preloaded, one block per cell, and never enter the map phase).
        data_cells: Per data object, its grid cell.
    """

    features: Sequence[FeatureObject] = ()
    cells: Sequence[Tuple[int, ...]] = ()
    data: Sequence[DataObject] = ()
    data_cells: Sequence[int] = ()

    def __len__(self) -> int:
        return len(self.data) + len(self.features)

    def slices(self, size: int) -> List["MapSplit"]:
        """Consecutive map-task inputs of at most ``size`` records each."""
        total = len(self)
        if total <= size:
            return [self] if total else []
        num_data = len(self.data)
        parts = []
        for start in range(0, total, size):
            stop = start + size
            low, high = max(start - num_data, 0), max(stop - num_data, 0)
            parts.append(
                MapSplit(
                    self.features[low:high],
                    self.cells[low:high],
                    self.data[start:stop],
                    self.data_cells[start:stop],
                )
            )
        return parts
