"""Thread-pool task execution.

Cheap to start and shares memory with the caller, but the GIL serialises
CPU-bound Python, so for the compute-heavy SPQ reducers this backend mostly
buys overlap with I/O -- use :class:`~repro.execution.process.ProcessBackend`
for real multi-core speedups.

Results are collected future-by-future in submission (task-index) order, so
counter aggregation downstream is deterministic: a thread finishing early
never reorders the merge.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

from repro.exceptions import JobConfigurationError
from repro.execution.base import ExecutionBackend, ReduceTask, run_task_in_process
from repro.execution.tasks import MapTaskResult, ReduceTaskReport, run_map_task


class ThreadBackend(ExecutionBackend):
    """Runs tasks on a lazily created, reusable :class:`ThreadPoolExecutor`."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise JobConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def run_map_tasks(
        self,
        job: Any,
        splits: Sequence[Sequence[Any]],
        num_reducers: int,
    ) -> List[MapTaskResult]:
        """Run map tasks on the thread pool, results in task order."""
        if len(splits) <= 1:
            return [
                run_map_task(job, index, split, num_reducers)
                for index, split in enumerate(splits)
            ]
        pool = self._executor()
        futures = [
            pool.submit(run_map_task, job, index, split, num_reducers)
            for index, split in enumerate(splits)
        ]
        return [future.result() for future in futures]

    def run_reduce_tasks(
        self, job: Any, tasks: Sequence[ReduceTask]
    ) -> List[Tuple[List[Any], ReduceTaskReport]]:
        """Run reduce tasks on the thread pool, results in task order."""
        pool = self._executor()
        futures = [pool.submit(run_task_in_process, job, task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the executor down (idempotent; detaches before tearing down)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
