"""Local execution engine for MapReduce jobs.

:class:`LocalJobRunner` runs a :class:`~repro.mapreduce.job.MapReduceJob`,
faithfully reproducing the Hadoop execution model the paper relies on:

1. the input is divided into *map tasks* (splits);
2. each map task applies the job's ``map`` to its records and partitions the
   emitted key-value pairs by the job's ``partition`` hook;
3. each reduce partition is sorted by the job's ``sort_key`` (secondary sort /
   custom comparator) with a stable tie-break;
4. sorted records are grouped by ``group_key`` and fed to ``reduce`` as a lazy
   iterator, so a reducer that stops reading values performs *early
   termination* and the engine records exactly how many values it consumed.

That order is a contract, not a procedure.  The generic record route (plain
records through ``job.map``) builds, sorts and groups ``(sort_key, sequence,
key, value)`` entries literally; a mapped
:class:`~repro.index.records.MapSplit` (the index path) arrives as per-cell
runs of row numbers that are *born* in that order, so steps 2-4 cost nothing
per record there and a reducer materialises only the values it reads.

The runner is an *orchestrator*: it builds splits, rebases shuffle sequence
numbers (or, for runs, merges the cells several map tasks fed), merges the
map tasks' counters -- always in task-index order -- and hands the tasks of
each phase to a :class:`~repro.execution.serial.SerialBackend`, which runs
them inline.  The reduce phase is one loop there that writes into the run's
one :class:`~repro.mapreduce.counters.Counters` and returns, per reduce
task, a :class:`~repro.execution.tasks.ReduceTaskReport` of plain ints
(input records, work units) that the cluster cost model converts into
simulated job time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import JobConfigurationError
from repro.execution.serial import SerialBackend
from repro.execution.tasks import Bucket, ReduceTask, ReduceTaskReport, block_without
from repro.index.records import MapSplit
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob

__all__ = [
    "DEFAULT_SPLIT_SIZE",
    "JobResult",
    "LocalJobRunner",
    "PreloadedShuffle",
    "ReduceTaskReport",
]

#: Input records per map task when the caller does not configure one.
DEFAULT_SPLIT_SIZE = 10_000


@dataclass
class PreloadedShuffle:
    """The preloaded side of a run: per reduce partition, one ready block.

    Records whose map output is query-independent (the data objects of an
    SPQ job: their key depends only on the grid cell) are never re-mapped.
    Whoever indexed them -- :class:`~repro.index.dataset_index.DatasetIndex`
    -- hands each reduce partition its records as one block, injected ahead
    of the partition's live values, and states what mapping them would have
    counted.  One instance serves every job class and every run over the
    snapshot; nothing here is copied or mutated per run.

    Attributes:
        num_partitions: Reduce partitions the blocks are routed over (must
            equal the runner's ``num_reducers``).
        num_input_records: Map input records the blocks stand for (counts
            toward the split/map-task accounting).
        counters: Counter deltas mapping those records would have produced,
            merged into every run that injects the blocks.
        block: ``block(i)`` is partition ``i``'s cached ``(group, block)``,
            or None when it holds no preloaded record.
        excluded: Partition -> oids of the block rows a reducer must not
            see (tombstones).  Applied where the block is handed out,
            :meth:`reduce_block`, so the cached block is never rebuilt for
            it.
    """

    num_partitions: int
    num_input_records: int
    counters: Counters
    block: Callable[[int], Optional[Tuple[Any, Any]]]
    excluded: Mapping[int, AbstractSet[str]] = field(default_factory=dict)

    def reduce_block(self, index: int) -> Optional[Tuple[Any, Any]]:
        """Partition ``index``'s block as its reducer sees it (None when empty)."""
        return block_without(self.block(index), self.excluded.get(index))


@dataclass
class JobResult:
    """Everything produced by a job run: outputs, counters and task reports."""

    job_name: str
    outputs: List[Any]
    counters: Counters
    reduce_reports: List[ReduceTaskReport]
    num_map_tasks: int
    num_reduce_tasks: int

    def total_shuffle_records(self) -> int:
        """Total records emitted by the map phase across partitions."""
        return self.counters.get(counter_names.GROUP_SHUFFLE, counter_names.SHUFFLE_RECORDS)

    def total_shuffle_bytes(self) -> int:
        """Total serialized bytes shuffled across partitions."""
        return self.counters.get(counter_names.GROUP_SHUFFLE, counter_names.SHUFFLE_BYTES)


class LocalJobRunner:
    """Runs MapReduce jobs, one phase at a time.

    Args:
        num_reducers: Number of reduce tasks (``R``). For the SPQ jobs this is
            set to the number of grid cells, as in the paper's experiments.
        split_size: Number of input records per map task; controls the number
            of map tasks only (the map logic is record-at-a-time).
        backend: The :class:`~repro.execution.serial.SerialBackend` that
            runs map splits and reduce partitions (a fresh one by default).
            A test seam: tests inject a subclass through it.
    """

    def __init__(
        self,
        num_reducers: int,
        split_size: int = DEFAULT_SPLIT_SIZE,
        backend: Optional[SerialBackend] = None,
    ) -> None:
        if num_reducers < 1:
            raise JobConfigurationError(f"num_reducers must be >= 1, got {num_reducers}")
        if split_size < 1:
            raise JobConfigurationError(f"split_size must be >= 1, got {split_size}")
        self.num_reducers = num_reducers
        self.split_size = split_size
        self.backend = backend if backend is not None else SerialBackend()

    # ------------------------------------------------------------------ #

    def run(
        self,
        job: MapReduceJob,
        records: Iterable[Any],
        preloaded: Optional[PreloadedShuffle] = None,
    ) -> JobResult:
        """Execute ``job`` over ``records`` and return the full result.

        When ``preloaded`` is given, each reduce task gets its partition's
        block injected ahead of this run's live map output; blocks are
        shared read-only, so one :class:`PreloadedShuffle` can serve many
        runs concurrently with per-query record streams.
        """
        counters = Counters()
        job.setup(counters)

        live, num_map_tasks, touched = self._run_map_phase(
            job, records, counters, preloaded
        )
        skipped: Optional[Set[int]] = None
        if preloaded is not None and job.preloaded_only_partitions_are_empty:
            # The job guarantees that a partition holding only preloaded
            # records reduces to nothing, so those tasks never need to run
            # (nor be sorted) -- the key saving of pre-partitioned batches.
            skipped = {
                index for index in range(self.num_reducers) if index not in touched
            }
            counters.increment(
                counter_names.GROUP_REDUCE, counter_names.REDUCE_TASKS_SKIPPED, len(skipped)
            )
        tasks = [
            ReduceTask(index, bucket, preloaded, counters)
            for index, bucket in enumerate(live)
            if skipped is None or index not in skipped
        ]
        outputs, reports = self.backend.run_reduce_tasks(job, tasks)

        job.cleanup(counters)
        return JobResult(
            job_name=job.name,
            outputs=outputs,
            counters=counters,
            reduce_reports=reports,
            num_map_tasks=num_map_tasks,
            num_reduce_tasks=self.num_reducers,
        )

    # ------------------------------------------------------------------ #
    # map + shuffle

    def _split(self, records: Iterable[Any]) -> Sequence[Any]:
        """Divide the input into map splits of ``split_size`` records."""
        if isinstance(records, MapSplit):
            return records.slices(self.split_size)
        iterator = iter(records)
        splits: List[List[Any]] = []
        while True:
            chunk = list(itertools.islice(iterator, self.split_size))
            if not chunk:
                break
            splits.append(chunk)
        return splits

    def _run_map_phase(
        self,
        job: MapReduceJob,
        records: Iterable[Any],
        counters: Counters,
        preloaded: Optional[PreloadedShuffle] = None,
    ) -> Tuple[List[Bucket], int, Set[int]]:
        """Run the map tasks and merge their buckets.

        Per-task buckets are concatenated in task-index order with their
        local sequence numbers rebased onto a global counter, reproducing
        the exact emission order of a fully serial run.  Buckets of runs
        (a mapped split) carry no sequence numbers: a cell fed by one task
        keeps that task's run as it is, and only where a later task fed the
        same cell are the two merged, stably, on the sort key -- equal keys
        then stay in task-then-row order, which *is* sequence order.

        Returns the live (non-preloaded) partition buckets, the map-task
        count and the set of partition indexes that received live output.
        Preloaded blocks need no sequence numbers: they are injected ahead
        of every live value of their group by construction.
        """
        preloaded_records = 0
        base = 0
        if preloaded is not None:
            if preloaded.num_partitions != self.num_reducers:
                raise JobConfigurationError(
                    f"preloaded shuffle has {preloaded.num_partitions} partitions, "
                    f"runner expects {self.num_reducers}"
                )
            preloaded_records = preloaded.num_input_records
            counters.merge(preloaded.counters)

        splits = self._split(records)
        map_results = self.backend.run_map_tasks(job, splits, self.num_reducers)

        live: List[Bucket] = [[] for _ in range(self.num_reducers)]
        touched: Set[int] = set()
        num_records = 0
        for result in map_results:
            num_records += result.num_input_records
            counters.merge(result.counters)
            for index, entries in result.buckets.items():
                bucket = live[index]
                if isinstance(entries, dict):
                    if index not in touched:
                        live[index] = entries
                    else:
                        for cell, run in entries.items():
                            earlier = bucket.get(cell)
                            bucket[cell] = run if earlier is None else earlier.followed_by(run)
                elif base:
                    bucket.extend(
                        (sort_key, base + sequence, key, value)
                        for sort_key, sequence, key, value in entries
                    )
                else:
                    bucket.extend(entries)
                touched.add(index)
            base += result.num_emitted
        # The input-records counter must exist even for an empty input (no
        # map task ran to create it), matching record-at-a-time accounting.
        counters.increment(counter_names.GROUP_MAP, counter_names.MAP_INPUT_RECORDS, 0)

        total_inputs = num_records + preloaded_records
        num_map_tasks = -(-total_inputs // self.split_size) if total_inputs else 1
        return live, num_map_tasks, touched
