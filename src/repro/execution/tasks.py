"""Task-level execution primitives.

A MapReduce job run decomposes into *map tasks* (one per input split) and
*reduce tasks* (one per reduce partition).  Both are expressed here as plain
functions, which :class:`~repro.execution.serial.SerialBackend` runs inline:

* :func:`run_map_task` maps one split into sparse reduce-partition buckets.
  A columnar :class:`~repro.index.records.MapSplit` (the index path) goes
  to the job's fused ``map_split`` kernel, whose buckets are *views*: per
  cell, a :class:`~repro.index.records.CellRun` of row numbers into the
  task's own columns, already in reduce order.  Any other input (the
  generic record route: plain objects, as the raw-stream test oracle and
  non-SPQ jobs feed it) is mapped record by record through ``job.map`` into
  ``(sort_key, sequence, key, value)`` entries numbered with a *task-local*
  sequence, which the orchestrator rebases onto a global counter in task
  order -- the emission order of a fully serial run, bit for bit.
* :func:`run_reduce_task` feeds each group of one partition to
  ``job.reduce`` through a consumption-tracking iterator (early termination
  accounting), after injecting the partition's preloaded block, if any,
  ahead of its group's live values.  Runs need no sort, no grouping and no
  value list -- each is one group, read lazily; only an entry bucket is
  sorted by ``(sort_key, sequence)`` and grouped by ``group_key`` here.
* :func:`block_without` is the one place a data tombstone is applied: the
  copy of a block a reducer is handed when some of the cell's rows are
  deleted.

Each task gets its own :class:`~repro.mapreduce.counters.Counters`; the
orchestrator merges them in task-index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.exceptions import JobExecutionError
from repro.index.columns import DataBlock
from repro.index.records import CellRun, MapSplit
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob

#: One bucketed shuffle entry: ``(sort_key, sequence, key, value)``.  The
#: sequence number is a stable tie-break so sorting is deterministic even
#: when sort keys collide.
ShuffleEntry = Tuple[Any, int, Any, Any]

#: One reduce partition's live input: entries to sort and group (the
#: record-at-a-time route), or one ready run per cell (a mapped split).
Bucket = Union[List[ShuffleEntry], Dict[int, CellRun]]


@dataclass
class ReduceTaskReport:
    """Execution statistics of one reduce task (== one grid cell in SPQ jobs)."""

    task_index: int
    num_groups: int = 0
    input_records: int = 0
    consumed_records: int = 0
    output_records: int = 0
    shuffle_bytes: int = 0
    counters: Counters = field(default_factory=Counters)

    def work_units(self) -> int:
        """Algorithm-reported work (counters in group ``"work"``), if any.

        Falls back to the number of consumed records so that jobs that do not
        report explicit work units still get a sensible cost.
        """
        work_group = self.counters.group("work")
        if work_group:
            return sum(work_group.values())
        return self.consumed_records


@dataclass
class MapTaskResult:
    """Everything one map task hands back to the orchestrator.

    Attributes:
        task_index: Position of the split in the input (merge order).
        buckets: Sparse reduce-partition buckets: per cell, a run over this
            task's columns (a mapped split), or entries with *task-local*
            sequence numbers that the orchestrator rebases onto the global
            counter (the record-at-a-time route).
        num_input_records: Records this task consumed.
        num_emitted: Key-value pairs this task emitted (sequence span).
        counters: Counter deltas of this task, including the job's own
            map-side counters.
    """

    task_index: int
    buckets: Dict[int, Bucket]
    num_input_records: int
    num_emitted: int
    counters: Counters


@dataclass
class ReduceTask:
    """One reduce partition, ready to be reduced.

    Attributes:
        task_index: The reduce partition index.
        entries: Live map output of this run, owned by it: per-cell runs
            over the map tasks' columns (the index path; nothing left to
            sort), or shuffle entries already globally sequenced by the
            orchestrator and safe to sort in place (the generic record
            route).
        preloaded: The run's
            :class:`~repro.mapreduce.runtime.PreloadedShuffle`, if any: the
            handle that hands this partition its preloaded block.
    """

    task_index: int
    entries: Bucket
    preloaded: Optional[Any] = None


class _ConsumptionTrackingIterator:
    """Wraps a value iterator and counts how many items the reducer pulled.

    A :class:`~repro.index.columns.DataBlock` stands in for that many
    individual data records, so pulling one weighs ``len(block)`` -- the
    consumption accounting stays identical to a run that mapped the
    records one by one.
    """

    def __init__(self, values: Iterable[Any]) -> None:
        self._pull = iter(values).__next__
        self.consumed = 0

    def __iter__(self) -> "_ConsumptionTrackingIterator":
        return self

    def __next__(self) -> Any:
        value = self._pull()
        self.consumed += len(value) if value.__class__ is DataBlock else 1
        return value


def run_map_task(
    job: MapReduceJob,
    task_index: int,
    records: Iterable[Any],
    num_reducers: int,
) -> MapTaskResult:
    """Apply ``job.map`` to one input split and bucket the output."""
    counters = Counters()
    if isinstance(records, MapSplit):
        num_records = len(records)
        try:
            buckets, sequence, shuffle_bytes = job.map_split(records, num_reducers, counters)
        except JobExecutionError:
            raise
        except Exception as exc:  # pragma: no cover - defensive re-raise
            raise JobExecutionError(f"map failed on split {task_index}: {exc}") from exc
    else:
        buckets, sequence, shuffle_bytes, num_records = _map_records(
            job, records, num_reducers, counters
        )
    if sequence:
        _count_emissions(counters, sequence, shuffle_bytes)
    counters.increment(counter_names.GROUP_MAP, counter_names.MAP_INPUT_RECORDS, num_records)
    return MapTaskResult(
        task_index=task_index,
        buckets=buckets,
        num_input_records=num_records,
        num_emitted=sequence,
        counters=counters,
    )


def _map_records(
    job: MapReduceJob, records: Iterable[Any], num_reducers: int, counters: Counters
) -> Tuple[Dict[int, List[ShuffleEntry]], int, int, int]:
    """The record-at-a-time loop: ``(buckets, emitted, shuffle bytes, records)``."""
    buckets: Dict[int, List[ShuffleEntry]] = {}
    sequence = 0
    num_records = 0
    shuffle_bytes = 0
    partition_of, sort_key, record_size = job.partition, job.sort_key, job.estimated_record_size
    for record in records:
        num_records += 1
        try:
            emitted = job.map(record, counters)
        except Exception as exc:  # pragma: no cover - defensive re-raise
            raise JobExecutionError(f"map failed on record {record!r}: {exc}") from exc
        for key, value in emitted:
            partition = partition_of(key, num_reducers)
            if not 0 <= partition < num_reducers:
                raise JobExecutionError(
                    f"partition {partition} outside [0, {num_reducers}) for key {key!r}"
                )
            bucket = buckets.get(partition)
            if bucket is None:
                bucket = buckets[partition] = []
                if not sequence:
                    # The emission counters exist from the first emission on
                    # (``job.map`` may create its own around them); their
                    # totals are written once per task, by the caller.
                    _count_emissions(counters, 0, 0)
            bucket.append((sort_key(key), sequence, key, value))
            sequence += 1
            shuffle_bytes += record_size(key, value)
    return buckets, sequence, shuffle_bytes, num_records


def _count_emissions(counters: Counters, records: int, shuffle_bytes: int) -> None:
    counters.increment(counter_names.GROUP_MAP, counter_names.MAP_OUTPUT_RECORDS, records)
    counters.increment(counter_names.GROUP_SHUFFLE, counter_names.SHUFFLE_RECORDS, records)
    counters.increment(counter_names.GROUP_SHUFFLE, counter_names.SHUFFLE_BYTES, shuffle_bytes)


def sort_bucket(bucket: List[ShuffleEntry]) -> None:
    """Sort one entry bucket by ``(sort_key, sequence)``, in place.

    Entries start with exactly those two fields and a sequence number is
    unique within a bucket, so plain tuple order is that order and never
    reaches the key or the value.
    """
    bucket.sort()


def run_reduce_task(
    job: MapReduceJob,
    task_index: int,
    bucket: Bucket,
    preloaded_block: Optional[Tuple[Any, DataBlock]] = None,
) -> Tuple[List[Any], ReduceTaskReport]:
    """Reduce one partition bucket, group by group.

    ``preloaded_block`` is the partition's preloaded records: a ``(group,
    DataBlock)`` pair injected ahead of the live values of its group (data
    always sorts before features in SPQ jobs, so "first" is exactly where
    mapping the records would have put them).  A block whose group has no
    live entries is reduced as its own data-only group, in group order;
    accounting (``input_records``, ``num_groups``, consumption) counts the
    block as ``len(block)`` records, matching a run that mapped them.
    Requires orderable group keys, which every preloaded-shuffle job has
    (cell ids).
    """
    block_group: Any = None
    block: Optional[DataBlock] = None
    block_records = 0
    if preloaded_block is not None:
        block_group, block = preloaded_block
        block_records = len(block)
    groups: Iterator[Tuple[Any, Iterable[Any]]]
    if isinstance(bucket, dict):
        live_records = sum(len(run.rows) for run in bucket.values())
        groups = ((cell, bucket[cell].read()) for cell in sorted(bucket))
    else:
        live_records = len(bucket)
        sort_bucket(bucket)
        groups = (
            (group, [value for _, _, _, value in entries])
            for group, entries in itertools.groupby(
                bucket, key=lambda entry: job.group_key(entry[2])
            )
        )
    report = ReduceTaskReport(
        task_index=task_index, input_records=live_records + block_records
    )
    outputs: List[Any] = []

    for group, values in groups:
        if block is not None and block_group <= group:
            if block_group < group:
                _reduce_group(job, task_index, block_group, (block,), report, outputs)
            else:
                values = itertools.chain((block,), values)
            block = None
        _reduce_group(job, task_index, group, values, report, outputs)
    if block is not None:
        _reduce_group(job, task_index, block_group, (block,), report, outputs)
    return outputs, report


def block_without(
    entry: Optional[Tuple[int, DataBlock]], oids
) -> Optional[Tuple[int, DataBlock]]:
    """A partition's ``(group, block)`` minus the rows whose oid is in ``oids``.

    This is how a data tombstone reaches a reducer: the cell's cached block
    is never edited, the reader is handed an O(|cell|) copy without the
    tombstoned rows, storage order kept, that memoizes no in-range rows
    (it lives for one reduce).  Returns ``entry`` itself when
    there is nothing to drop, and None when no row survives (the cell then
    holds no data, exactly as after a bulk swap of the shrunken dataset).
    """
    if entry is None or not oids:
        return entry
    group, block = entry
    keep = [row for row, oid in enumerate(block.oids) if oid not in oids]
    if not keep:
        return None
    return group, DataBlock(
        group,
        [block.objs[row] for row in keep],
        [block.xs[row] for row in keep],
        [block.ys[row] for row in keep],
        memo=False,
    )


def _reduce_group(
    job: MapReduceJob,
    task_index: int,
    group: Any,
    values: Iterable[Any],
    report: ReduceTaskReport,
    outputs: List[Any],
) -> None:
    """Feed one group to ``job.reduce`` and fold the results into the report."""
    report.num_groups += 1
    iterator = _ConsumptionTrackingIterator(values)
    try:
        produced = job.reduce(group, iterator, report.counters)
        produced = list(produced) if produced is not None else []
    except Exception as exc:  # pragma: no cover - defensive re-raise
        raise JobExecutionError(
            f"reduce failed for group {group!r} in task {task_index}: {exc}"
        ) from exc
    report.consumed_records += iterator.consumed
    report.output_records += len(produced)
    outputs.extend(produced)
