"""Inline, single-threaded task execution (the deterministic reference)."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.execution.base import ExecutionBackend, ReduceTask, run_task_in_process
from repro.execution.tasks import MapTaskResult, ReduceTaskReport, run_map_task


class SerialBackend(ExecutionBackend):
    """Runs every task inline, in task order.

    This is the reference implementation the parallel backends are tested
    against: their results, counters and reports must match it bit for bit.
    """

    name = "serial"
    workers = 1

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
        return [run_task_in_process(job, task) for task in tasks]
