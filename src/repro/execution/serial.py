"""Inline, single-threaded task execution -- the one way a task runs."""

from __future__ import annotations

from itertools import chain
from operator import length_hint
from typing import Any, List, Sequence, Tuple

from repro.exceptions import JobExecutionError
from repro.execution.tasks import (
    MapTaskResult,
    ReduceTask,
    ReduceTaskReport,
    reduce_groups,
    run_map_task,
)
from repro.mapreduce import counters as counter_names

#: The reduce-phase totals, in the order a run's counters create them.
REDUCE_TOTALS = (
    counter_names.REDUCE_INPUT_GROUPS,
    counter_names.REDUCE_INPUT_RECORDS,
    counter_names.REDUCE_CONSUMED_RECORDS,
    counter_names.REDUCE_OUTPUT_RECORDS,
)


class SerialBackend:
    """Runs every task inline and returns results in task-index order.

    The runner (:class:`~repro.mapreduce.runtime.LocalJobRunner`) merges
    the map tasks' results; the reduce phase writes the run's counters
    itself.  It holds no state, so one instance serves any number of runs.
    """

    def run_map_tasks(
        self,
        job: Any,
        splits: Sequence[Sequence[Any]],
        num_reducers: int,
    ) -> List[MapTaskResult]:
        """Run every map task inline, in task-index order."""
        return [
            run_map_task(job, index, split, num_reducers)
            for index, split in enumerate(splits)
        ]

    def run_reduce_tasks(
        self, job: Any, tasks: Sequence[ReduceTask]
    ) -> Tuple[List[Any], List[ReduceTaskReport]]:
        """Reduce every task inline, in task-index order, as one loop.

        Each group of a task (:func:`~repro.execution.tasks.reduce_groups`)
        goes to ``job.reduce`` as a lazy iterator: the task's preloaded
        block (:meth:`~repro.mapreduce.runtime.PreloadedShuffle.reduce_block`)
        first where it has one, then the group's run, pulled value by value
        -- a reducer that stops reading terminates early.  Reducers write
        into the tasks' one :class:`~repro.mapreduce.counters.Counters`.
        Nothing is counted per pulled value: a group consumed its block's
        rows plus the run rows its iterator moved past, and the four
        ``reduce`` totals are running ints, created after the first task's
        reduce (where a per-task merge would have put them) and written
        once.  Returns the outputs in order and one
        :class:`~repro.execution.tasks.ReduceTaskReport` per task.
        """
        outputs: List[Any] = []
        reports: List[ReduceTaskReport] = []
        if not tasks:
            return outputs, reports
        counters = tasks[0].counters
        reduce = job.reduce
        work = counters.total(counter_names.GROUP_WORK)
        groups = records = consumed = 0
        for index, bucket, preloaded, _ in tasks:
            entry = None if preloaded is None else preloaded.reduce_block(index)
            task_records = task_consumed = 0
            for group, block, run in reduce_groups(job, bucket, entry):
                rows = iter(run.rows)
                values = map(run.values.__getitem__, rows)
                handed = len(run.rows)
                if block is not None:
                    values = chain((block,), values)
                    handed += len(block)
                try:
                    produced = reduce(group, values, counters)
                    if produced is not None:
                        outputs.extend(produced)
                except Exception as exc:  # pragma: no cover - defensive re-raise
                    raise JobExecutionError(
                        f"reduce failed for group {group!r} in task {index}: {exc}"
                    ) from exc
                groups += 1
                task_records += handed
                task_consumed += handed - length_hint(rows)
            if not reports:
                for name in REDUCE_TOTALS:
                    counters.increment(counter_names.GROUP_REDUCE, name, 0)
            total = counters.total(counter_names.GROUP_WORK)
            reports.append(ReduceTaskReport(index, task_records, total - work or task_consumed))
            work = total
            records += task_records
            consumed += task_consumed
        for name, amount in zip(REDUCE_TOTALS, (groups, records, consumed, len(outputs))):
            counters.increment(counter_names.GROUP_REDUCE, name, amount)
        return outputs, reports
