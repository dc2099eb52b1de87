"""The execution-backend protocol.

A backend executes the tasks of one job phase and returns their results **in
task-index order** -- that ordering contract is what makes counter and report
aggregation deterministic across serial and multiprocess execution.
Backends never aggregate anything themselves; the orchestrator
(:class:`~repro.mapreduce.runtime.LocalJobRunner`) owns the merge.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.execution.tasks import Bucket, MapTaskResult, ReduceTaskReport, run_reduce_task


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
            one handle through which a backend obtains this partition's
            preloaded block -- the block itself in process
            (:func:`run_task_in_process`), its shared-memory descriptor or
            pickled form for a worker process.
    """

    task_index: int
    entries: Bucket
    preloaded: Optional[Any] = None


def run_task_in_process(
    job: Any, task: ReduceTask
) -> Tuple[List[Any], ReduceTaskReport]:
    """Reduce one task in the calling process (serial, 1-worker pool)."""
    block = (
        task.preloaded.reduce_block(task.task_index)
        if task.preloaded is not None
        else None
    )
    return run_reduce_task(job, task.task_index, task.entries, block)


class ExecutionBackend(ABC):
    """Executes the map/reduce tasks of a job phase.

    Contract:

    * ``run_map_tasks`` / ``run_reduce_tasks`` return one result per task,
      **in task-index order**, regardless of scheduling.
    * Task execution must go through :func:`~repro.execution.tasks.run_map_task`
      / :func:`~repro.execution.tasks.run_reduce_task` (in process:
      :func:`run_task_in_process`) so every backend runs identical task code.
    * Backends hold no per-job state; one backend instance serves many runs
      (and, for pooled backends, amortises pool start-up across them).
    """

    #: Backend name as used in configuration and reports.
    name: str = "backend"

    #: Degree of parallelism (1 for serial).
    workers: int = 1

    @abstractmethod
    def run_map_tasks(
        self,
        job: Any,
        splits: Sequence[Sequence[Any]],
        num_reducers: int,
    ) -> List[MapTaskResult]:
        """Run one map task per input split."""

    @abstractmethod
    def run_reduce_tasks(
        self, job: Any, tasks: Sequence[ReduceTask]
    ) -> List[Tuple[List[Any], ReduceTaskReport]]:
        """Run every reduce task and return ``(outputs, report)`` pairs."""

    def close(self) -> None:
        """Release pooled resources; the backend must not be used afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"
