"""The columnar input of the short-circuited map phase, and its output view.

When a query runs through a :class:`~repro.index.dataset_index.DatasetIndex`,
the spatial work of the map phase (grid location, keyword pruning, MINDIST
neighbour duplication) has already been done -- at index-build time, in the
per-radius Lemma-1 cache, or by the delta layer for appended objects.  The
engine then hands the job runner one :class:`MapSplit` instead of a stream of
raw :class:`~repro.model.objects.DataObject` / FeatureObject records; the SPQ
jobs map it with one fused kernel (``_SPQJobBase.map_split``) that stands for
exactly the key-value pairs the per-record map phase would have produced --
without building them: what a reducer receives is a :class:`CellRun`, a run
of row numbers into the split's own columns.

This module deliberately imports only :mod:`repro.model` so that
:mod:`repro.core.jobs` can depend on it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, NamedTuple, Sequence, Tuple

from repro.model.objects import DataObject, FeatureObject


#: Text-serialized size of one data-object shuffle record (two coordinates
#: and an oid); a feature record adds its keywords (:func:`feature_record_size`).
DATA_RECORD_BYTES = 24


def feature_record_size(feature: FeatureObject) -> int:
    """Text-serialized size of one feature shuffle record.

    The one size formula: the jobs' ``estimated_record_size``, the index's
    size column and the delta's appended rows all call it: the record's
    fixed part plus, per keyword, its characters and one separator.
    """
    keywords = feature.keywords
    return DATA_RECORD_BYTES + len(keywords) + sum(map(len, keywords))


@dataclass(frozen=True)
class MapSplit:
    """Pre-assigned map input as parallel columns.

    The logical record order -- what sequence numbers and ``slices`` follow
    -- is every ``data`` row, then every ``features`` row (the base
    candidates in storage order, then the delta's appended features).  The
    columns hold references, never copies of objects, and can be walked any
    number of times.  Splits come from ``DatasetIndex.prepare`` and
    ``with_delta_appends``, which fill every feature column.

    Attributes:
        features: Feature objects that survived keyword pruning.
        cells: Per feature, every cell it must reach (Lemma 1), enclosing
            cell first -- the order the map-side partitioner produces.
        scores: Per feature, ``w(f, q)`` -- bit-identical to ``jaccard``.
        sizes: Per feature, :func:`feature_record_size`.
        data: Data objects mapped live (delta appends; the indexed ones come
            preloaded, one block per cell, and never enter the map phase).
        data_cells: Per data object, its grid cell.
    """

    features: Sequence[FeatureObject] = ()
    cells: Sequence[Tuple[int, ...]] = ()
    scores: Sequence[float] = ()
    sizes: Sequence[int] = ()
    data: Sequence[DataObject] = ()
    data_cells: Sequence[int] = ()

    def __post_init__(self) -> None:
        if not len(self.features) == len(self.cells) == len(self.scores) == len(self.sizes):
            raise ValueError("MapSplit feature columns differ in length")
        if len(self.data) != len(self.data_cells):
            raise ValueError("MapSplit data columns differ in length")

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
                    self.scores[low:high],
                    self.sizes[low:high],
                    self.data[start:stop],
                    self.data_cells[start:stop],
                )
            )
        return parts


class CellRun(NamedTuple):
    """One cell's live shuffle input, as a view over a map task's columns.

    The kernel copies nothing per emitted record: a cell receives the *row
    numbers* of the records that reach it, already in ``(sort_key,
    sequence)`` order, and its reducer pulls ``values[row]`` one at a time
    -- what early termination never reads is never touched.

    Attributes:
        rows: Row numbers into the two columns, in reduce order.
        values: Row -> shuffled value (one column per map task, shared by
            every run the task produced).
        sort_keys: Row -> the sort key's secondary component; read only
            when runs of several map tasks meet in one cell.
    """

    rows: Sequence[int]
    values: Sequence[Any]
    sort_keys: Sequence[Any]

    def read(self) -> Iterator[Any]:
        """The run's values in reduce order, materialised as they are pulled."""
        return map(self.values.__getitem__, self.rows)

    def followed_by(self, later: "CellRun") -> "CellRun":
        """This run and a later map task's run of the same cell, as one.

        Each is in ``(sort_key, sequence)`` order and every sequence number
        of ``later`` is larger, so a stable sort of the concatenation on the
        sort key alone is the order of the whole.
        """
        values = [*self.read(), *later.read()]
        sort_keys = [
            *map(self.sort_keys.__getitem__, self.rows),
            *map(later.sort_keys.__getitem__, later.rows),
        ]
        return CellRun(
            sorted(range(len(values)), key=sort_keys.__getitem__), values, sort_keys
        )
