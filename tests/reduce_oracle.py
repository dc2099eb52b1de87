"""The per-task reduce route -- the oracle of the one-loop reduce phase.

``SerialBackend.run_reduce_tasks`` reduces a run's tasks in one loop that
writes the run's one ``Counters`` directly: the four ``reduce`` totals are
running ints, consumption is the block length plus the run rows an
iterator moved past, and each task's cost is a ``ReduceTaskReport`` of
plain ints.  The route it replaced lives on here verbatim: one
``Counters`` and one report dataclass per task, a consumption-tracking
iterator around every group's values, and the runner's per-task merge in
task-index order (:func:`reduce_phase`).  :class:`OracleBackend` runs it
through the runner's ``backend`` seam, so a whole job run can be held to the
loop: outputs in order, counters in value and key-creation order, each
task's ``input_records`` and work units, and ``CostModel.estimate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import JobExecutionError
from repro.execution import SerialBackend, tasks as production
from repro.execution.tasks import Bucket, sort_bucket
from repro.index.columns import DataBlock
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob


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


def reduce_phase(job, tasks) -> Tuple[List[Any], List[ReduceTaskReport]]:
    """The runner's per-task reduce phase: one task at a time, each task's
    counters and totals merged into the run's in task-index order."""
    outputs: List[Any] = []
    reports: List[ReduceTaskReport] = []
    for task in tasks:
        task_outputs, report = run_reduce_task(
            job,
            task.task_index,
            task.entries,
            None if task.preloaded is None
            else task.preloaded.reduce_block(task.task_index),
        )
        counters = task.counters
        outputs.extend(task_outputs)
        reports.append(report)
        counters.merge(report.counters)
        counters.increment(
            counter_names.GROUP_REDUCE, counter_names.REDUCE_INPUT_GROUPS, report.num_groups
        )
        counters.increment(
            counter_names.GROUP_REDUCE,
            counter_names.REDUCE_INPUT_RECORDS,
            report.input_records,
        )
        counters.increment(
            counter_names.GROUP_REDUCE,
            counter_names.REDUCE_CONSUMED_RECORDS,
            report.consumed_records,
        )
        counters.increment(
            counter_names.GROUP_REDUCE,
            counter_names.REDUCE_OUTPUT_RECORDS,
            report.output_records,
        )
    return outputs, reports


class OracleBackend(SerialBackend):
    """The serial backend with the per-task reduce route; its reports are
    handed to the runner in the production shape, so the cost model prices
    them as it prices the loop's."""

    def __init__(self) -> None:
        self.reports: List[ReduceTaskReport] = []

    def run_reduce_tasks(self, job, tasks):
        outputs, self.reports = reduce_phase(job, tasks)
        return outputs, [
            production.ReduceTaskReport(r.task_index, r.input_records, r.work_units())
            for r in self.reports
        ]
