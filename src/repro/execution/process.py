"""True multiprocess task execution.

Tasks run in a lazily created, reusable ``multiprocessing`` pool.  Everything
crossing the process boundary is an explicit, picklable payload:

* the **job spec** is pickled once per job and cached in each worker under a
  token, so the (tiny) spec rides along with task payloads but is unpickled
  at most once per worker per job;
* **map payloads** carry one input split of records;
* **reduce payloads** carry the partition's live shuffle input -- a run
  *detached* from the map task's columns, holding its own rows' values and
  nothing else of the split -- plus, for
  pre-partitioned batch runs -- the partition's *shared-memory descriptor*
  ``(segment name, partition index)`` (workers attach the index's published
  columnar plane once and build/cache the partition's reduce block from it,
  so nothing dataset-sized crosses the pipe at all) or, only where shared
  memory is unavailable, the *pickled block* (pickled once per snapshot,
  cached at the :class:`~repro.mapreduce.runtime.PreloadedShuffle`);
  beside either ride the partition's tombstoned oids, which the worker
  drops from its copy of the block;
* task payloads are submitted through ``Pool.map`` with a computed
  ``chunksize``, so the many small per-cell reduce tasks of an SPQ job are
  serialized in chunks instead of one IPC round-trip each.

Workers hand mutable state back explicitly: learned per-task caches travel
in :class:`~repro.execution.tasks.MapTaskResult.task_state` and per-task
counters in the reports; the orchestrator merges both in task-index order,
which keeps results bit-for-bit identical to serial execution.

The pool prefers the ``fork`` start method (cheap, inherits loaded modules)
and falls back to ``spawn`` where fork is unavailable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
from collections import OrderedDict
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import JobConfigurationError
from repro.execution.base import ExecutionBackend, ReduceTask, run_task_in_process
from repro.execution.tasks import (
    Bucket,
    MapTaskResult,
    ReduceTaskReport,
    block_without,
    run_map_task,
    run_reduce_task,
)

#: Worker-side cache of the most recent job spec, keyed by token.  One entry
#: only: a worker serves one job at a time, and evicting aggressively keeps
#: long-lived pools from accumulating dead query state.
_WORKER_JOBS: Dict[int, Any] = {}


def _worker_job(token: int, job_blob: bytes) -> Any:
    job = _WORKER_JOBS.get(token)
    if job is None:
        _WORKER_JOBS.clear()
        job = pickle.loads(job_blob)
        _WORKER_JOBS[token] = job
    return job


def _worker_run_map(
    payload: Tuple[int, bytes, int, Sequence[Any], int],
) -> MapTaskResult:
    token, job_blob, task_index, records, num_reducers = payload
    job = _worker_job(token, job_blob)
    return run_map_task(job, task_index, records, num_reducers)


#: Worker-side cache of attached shared-memory reduce planes, keyed by
#: segment name, LRU-capped: a long-lived pool may serve several dataset
#: snapshots (hot-swaps), but only a handful are ever live at once.
_WORKER_PLANES: "OrderedDict[str, Any]" = OrderedDict()
_WORKER_PLANE_CAP = 4


def _worker_plane(name: str) -> Any:
    plane = _WORKER_PLANES.get(name)
    if plane is None:
        from repro.execution.shm import attach_reduce_plane

        while len(_WORKER_PLANES) >= _WORKER_PLANE_CAP:
            _, evicted = _WORKER_PLANES.popitem(last=False)
            evicted.close()
        plane = attach_reduce_plane(name)
        _WORKER_PLANES[name] = plane
    else:
        _WORKER_PLANES.move_to_end(name)
    return plane


def _worker_run_reduce(
    payload: Tuple[
        int,
        bytes,
        int,
        Bucket,
        Optional[Tuple[str, int]],
        Optional[bytes],
        Optional[AbstractSet[str]],
    ],
) -> Tuple[List[Any], ReduceTaskReport]:
    token, job_blob, task_index, entries, ref, blob, excluded = payload
    job = _worker_job(token, job_blob)
    block = None
    if ref is not None:
        segment_name, partition = ref
        block = _worker_plane(segment_name).block(partition)
    elif blob is not None:
        block = pickle.loads(blob)
    return run_reduce_task(job, task_index, entries, block_without(block, excluded))


class ProcessBackend(ExecutionBackend):
    """Runs tasks in a lazily created, reusable ``multiprocessing.Pool``."""

    name = "process"

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise JobConfigurationError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.workers = workers
        self.start_method = start_method
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._tokens = itertools.count(1)

    # ------------------------------------------------------------------ #
    # pool and job-spec management

    def _get_pool(self) -> "multiprocessing.pool.Pool":
        if self._pool is None:
            # Workers must inherit this process's resource tracker.  A pool
            # forked before any plane was published (a multi-split map phase
            # comes first) has none to inherit; a worker attaching a plane
            # then starts its own, which unlinks the segment -- under its
            # live owner -- as soon as that worker exits.
            from repro.execution.shm import ensure_resource_tracker

            ensure_resource_tracker()
            context = multiprocessing.get_context(self.start_method)
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def _job_payload(self, job: Any) -> Tuple[int, bytes]:
        """A fresh token + pickled spec for ``job``, per phase call.

        Re-pickling per phase (the spec is tiny) rather than caching across
        phases guarantees workers never execute against a stale spec if a
        caller mutates the job between phases; within one phase the token
        lets each worker unpickle the spec at most once.
        """
        return next(self._tokens), pickle.dumps(job, pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------ #
    # phase execution

    def run_map_tasks(
        self,
        job: Any,
        splits: Sequence[Sequence[Any]],
        num_reducers: int,
    ) -> List[MapTaskResult]:
        """Run map tasks through the pool (inline for a single split)."""
        if len(splits) <= 1 or self.workers == 1:
            # A single split (or a single worker) gains nothing from IPC.
            return [
                run_map_task(job, index, split, num_reducers)
                for index, split in enumerate(splits)
            ]
        token, job_blob = self._job_payload(job)
        payloads = [
            (token, job_blob, index, split, num_reducers)
            for index, split in enumerate(splits)
        ]
        return self._get_pool().map(_worker_run_map, payloads, chunksize=1)

    def run_reduce_tasks(
        self, job: Any, tasks: Sequence[ReduceTask]
    ) -> List[Tuple[List[Any], ReduceTaskReport]]:
        """Run reduce tasks through the pool with chunked payloads."""
        if not tasks:
            return []
        if self.workers == 1:
            # A one-process pool buys no parallelism; skip the IPC entirely.
            return [run_task_in_process(job, task) for task in tasks]
        # Chunked shuffle serialization: batch the many small per-partition
        # payloads so each worker round-trip carries a meaningful amount of
        # work instead of one tiny task.
        payloads = self.reduce_payloads(job, tasks)
        chunksize = max(1, len(payloads) // (self.workers * 4))
        return self._get_pool().map(_worker_run_reduce, payloads, chunksize=chunksize)

    def reduce_payloads(self, job: Any, tasks: Sequence[ReduceTask]) -> List[Tuple]:
        """What each reduce task sends across the process boundary."""
        token, job_blob = self._job_payload(job)
        payloads = []
        for task in tasks:
            index = task.task_index
            preloaded = task.preloaded
            ref = blob = excluded = None
            if preloaded is not None:
                excluded = preloaded.excluded.get(index)
                # Shared-memory descriptor: the worker attaches the published
                # plane and builds the block there; nothing preloaded ships.
                # Only without shared memory does the pickled block travel.
                ref = preloaded.shared_ref(index)
                if ref is None:
                    blob = preloaded.blob(index)
            entries = task.entries
            if isinstance(entries, dict):
                # A run is a view of a whole map task's columns; ship the
                # rows it reads, not the split.
                entries = {cell: run.detached() for cell, run in entries.items()}
            payloads.append((token, job_blob, index, entries, ref, blob, excluded))
        return payloads

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the pool down (idempotent; detaches before tearing down)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.terminate()
