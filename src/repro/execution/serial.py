"""Inline, single-threaded task execution -- the one way a task runs."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.execution.tasks import (
    MapTaskResult,
    ReduceTask,
    ReduceTaskReport,
    run_map_task,
    run_reduce_task,
)


class SerialBackend:
    """Runs every task inline and returns results in task-index order.

    The runner (:class:`~repro.mapreduce.runtime.LocalJobRunner`) owns
    every merge; this class only runs the tasks of one phase.  It holds no
    state, so one instance serves any number of runs.
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
    ) -> List[Tuple[List[Any], ReduceTaskReport]]:
        """Run every reduce task inline, in task-index order."""
        return [
            run_reduce_task(
                job,
                task.task_index,
                task.entries,
                None if task.preloaded is None
                else task.preloaded.reduce_block(task.task_index),
            )
            for task in tasks
        ]
