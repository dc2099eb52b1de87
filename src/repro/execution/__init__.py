"""Pluggable execution backends for the local MapReduce runtime.

The :class:`~repro.mapreduce.runtime.LocalJobRunner` orchestrates a job --
splitting the input, merging shuffle buckets, aggregating counters and
reports -- but delegates the actual *task execution* to an
:class:`~repro.execution.base.ExecutionBackend`.  Two backends ship with
the package:

* :class:`~repro.execution.serial.SerialBackend` -- runs every map split and
  reduce partition inline, in task order.  Fully deterministic; the default.
* :class:`~repro.execution.process.ProcessBackend` -- runs tasks in a
  ``multiprocessing`` pool with picklable task payloads and chunked shuffle
  serialization.  True multi-core execution; results, counters and reports
  are bit-for-bit identical to serial execution.  It pays for itself only
  when reduce-side compute dwarfs the shuffle it has to pickle
  (``benchmarks/bench_backends.py``); ``docs/paper-map.md`` has the numbers.

Both backends honour the same contract (see :class:`ExecutionBackend`):
results come back in task-index order, so counter aggregation is
deterministic no matter how tasks were scheduled.

The default backend is selected by :func:`resolve_backend_spec`:
an explicit name wins, otherwise the ``REPRO_BACKEND`` environment variable,
otherwise ``"serial"``.  ``REPRO_WORKERS`` likewise seeds the default worker
count for the process backend.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.exceptions import JobConfigurationError
from repro.execution.base import ExecutionBackend, ReduceTask
from repro.execution.process import ProcessBackend
from repro.execution.serial import SerialBackend
from repro.execution.tasks import (
    MapTaskResult,
    ReduceTaskReport,
    run_map_task,
    run_reduce_task,
)

#: Backend names accepted everywhere a backend can be chosen.
BACKEND_NAMES = ("serial", "process")

#: Environment variables seeding the *default* backend/worker count.  An
#: explicit choice (EngineConfig, CLI flag, constructor argument) always wins.
ENV_BACKEND = "REPRO_BACKEND"
ENV_WORKERS = "REPRO_WORKERS"

_BACKEND_CLASSES = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def default_worker_count() -> int:
    """Default worker count of the process backend (capped CPU count)."""
    return min(8, os.cpu_count() or 1)


def validate_backend_spec(name: str, workers: int) -> None:
    """Reject invalid backend/worker combinations.

    Raises:
        JobConfigurationError: for an unknown backend name, a non-positive
            worker count, or ``serial`` with more than one worker.
    """
    if name not in BACKEND_NAMES:
        raise JobConfigurationError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if workers < 1:
        raise JobConfigurationError(f"workers must be >= 1, got {workers}")
    if name == "serial" and workers != 1:
        raise JobConfigurationError(
            "the serial backend is single-worker by definition; "
            "use --backend process with --workers N"
        )


def resolve_backend_spec(
    name: Optional[str] = None,
    workers: Optional[int] = None,
) -> Tuple[str, int]:
    """Resolve an explicit/env backend choice to ``(name, workers)``.

    Precedence for the name: explicit ``name`` > ``$REPRO_BACKEND`` >
    ``"serial"``.  Precedence for the worker count: explicit ``workers`` >
    ``$REPRO_WORKERS`` > backend default (1 for serial,
    :func:`default_worker_count` otherwise).

    Raises:
        JobConfigurationError: if the resolved combination is invalid.
    """
    if name is None:
        name = os.environ.get(ENV_BACKEND) or "serial"
    if workers is None:
        env_workers = os.environ.get(ENV_WORKERS)
        if name == "serial":
            workers = 1
        elif env_workers:
            try:
                workers = int(env_workers)
            except ValueError as exc:
                raise JobConfigurationError(
                    f"{ENV_WORKERS} must be an integer, got {env_workers!r}"
                ) from exc
        else:
            workers = default_worker_count()
    validate_backend_spec(name, workers)
    return name, workers


def create_backend(
    name: Optional[str] = None, workers: Optional[int] = None
) -> ExecutionBackend:
    """Instantiate a backend from a (possibly partial) specification."""
    resolved_name, resolved_workers = resolve_backend_spec(name, workers)
    backend_class = _BACKEND_CLASSES[resolved_name]
    if resolved_name == "serial":
        return backend_class()
    return backend_class(workers=resolved_workers)


def execution_info(
    name: Optional[str] = None, workers: Optional[int] = None
) -> Dict[str, object]:
    """``{"backend": ..., "workers": ...}`` for benchmark/report artifacts."""
    resolved_name, resolved_workers = resolve_backend_spec(name, workers)
    return {"backend": resolved_name, "workers": resolved_workers}


__all__ = [
    "BACKEND_NAMES",
    "ENV_BACKEND",
    "ENV_WORKERS",
    "ExecutionBackend",
    "MapTaskResult",
    "ProcessBackend",
    "ReduceTask",
    "ReduceTaskReport",
    "SerialBackend",
    "create_backend",
    "default_worker_count",
    "execution_info",
    "resolve_backend_spec",
    "run_map_task",
    "run_reduce_task",
    "validate_backend_spec",
]
