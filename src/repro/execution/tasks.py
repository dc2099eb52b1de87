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
* :func:`reduce_groups` lays one reduce partition out for the reduce loop
  (:meth:`~repro.execution.serial.SerialBackend.run_reduce_tasks`): its
  groups in reduce order, each a lazily read run, with the partition's
  preloaded block, if any, placed ahead of its group's live values.  Runs
  need no sort, no grouping and no value list; only an entry bucket is
  sorted by ``(sort_key, sequence)`` and grouped by ``group_key`` here.
* :func:`block_without` is the one place a data tombstone is applied: the
  copy of a block a reducer is handed when some of the cell's rows are
  deleted.

Each map task gets its own :class:`~repro.mapreduce.counters.Counters`,
which the orchestrator merges in task-index order; reduce tasks write into
the run's one ``Counters`` and report their cost as a
:class:`ReduceTaskReport` of plain ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

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


class ReduceTask(NamedTuple):
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
        counters: The run's one :class:`~repro.mapreduce.counters.Counters`,
            which the reducers write into directly (every task of a run
            carries the same object).
    """

    task_index: int
    entries: Bucket
    preloaded: Optional[Any]
    counters: Counters


class ReduceTaskReport(NamedTuple):
    """What one reduce task (== one grid cell in SPQ jobs) cost, as plain ints.

    Attributes:
        task_index: The reduce partition index.
        input_records: Live values plus preloaded block rows the task was
            handed.
        work_units: What its reducers added to the ``"work"`` counter group
            (score computations, features examined), or, when they added
            nothing, the records they consumed -- so jobs that report no
            explicit work still get a sensible cost.
    """

    task_index: int
    input_records: int
    work_units: int


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


#: The live run of a group that has none: its block is reduced alone.
NO_RUN = CellRun((), (), ())


def reduce_groups(
    job: MapReduceJob, bucket: Bucket, preloaded_block: Optional[Tuple[Any, DataBlock]]
) -> List[Tuple[Any, Optional[DataBlock], CellRun]]:
    """One partition's groups in reduce order, as ``(group, block, run)``.

    A run (the index path) is one cell's live values already in reduce
    order; an entry bucket (the generic record route) is sorted by
    ``(sort_key, sequence)`` and grouped by ``group_key`` here, each group's
    values becoming a run of its own.  ``preloaded_block`` is the
    partition's preloaded records: a ``(group, DataBlock)`` pair that rides
    ahead of the live run of its group (data always sorts before features
    in SPQ jobs, so "first" is exactly where mapping the records would have
    put them).  A block whose group has no live run is reduced alone, in
    group order, with :data:`NO_RUN`.  Requires orderable group keys, which
    every preloaded-shuffle job has (cell ids).
    """
    if isinstance(bucket, dict):
        groups = [(cell, None, bucket[cell]) for cell in sorted(bucket)]
    else:
        sort_bucket(bucket)
        groups = []
        for group, entries in itertools.groupby(
            bucket, key=lambda entry: job.group_key(entry[2])
        ):
            values = [value for _, _, _, value in entries]
            groups.append((group, None, CellRun(range(len(values)), values, ())))
    if preloaded_block is not None:
        block_group, block = preloaded_block
        at = 0
        while at < len(groups) and not block_group <= groups[at][0]:
            at += 1
        if at < len(groups) and groups[at][0] == block_group:
            groups[at] = (block_group, block, groups[at][2])
        else:
            groups.insert(at, (block_group, block, NO_RUN))
    return groups


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
