"""Task execution for the local MapReduce runtime.

The :class:`~repro.mapreduce.runtime.LocalJobRunner` orchestrates a job --
splitting the input, merging shuffle buckets, aggregating counters and
reports -- and hands the tasks of each phase to a
:class:`~repro.execution.serial.SerialBackend`, which runs them inline, in
task order.  That is the only way a task runs: the paper's parallelism is
what :mod:`repro.mapreduce.cluster` and :mod:`repro.mapreduce.costmodel`
simulate, and real scale-out is shard-node processes (``repro serve
--cluster``).
"""

from __future__ import annotations

from repro.execution.serial import SerialBackend
from repro.execution.tasks import (
    MapTaskResult,
    ReduceTask,
    ReduceTaskReport,
    run_map_task,
)

__all__ = [
    "MapTaskResult",
    "ReduceTask",
    "ReduceTaskReport",
    "SerialBackend",
    "run_map_task",
]
