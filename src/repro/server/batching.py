"""Micro-batching dispatcher: group concurrent requests for ``execute_many``.

The batch engine's amortisation (PR 1) was built for offline workloads --
one caller, many queries.  Online traffic arrives as many callers, one query
each.  The :class:`MicroBatcher` bridges the two: requests land in a shared
queue, and each dispatcher thread (one per pooled engine) drains whatever
has accumulated -- up to :data:`MAX_BATCH` -- into a single
``SPQEngine.execute_many`` call.

Batching is *natural*: a dispatcher never waits for company, it simply
takes everything already queued, so an idle service adds zero latency
while a busy one forms batches automatically -- requests pile up exactly
while every dispatcher is busy executing the previous batch.

Micro-batch composition never changes a request's result: every request is
fully resolved (no deferred defaults) and ``execute_many`` returns results
identical to per-query ``execute`` calls (one code path), so grouping is purely a
performance decision.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional, Sequence


class PendingRequest:
    """One submitted request waiting for its micro-batch to execute."""

    __slots__ = ("payload", "response", "error", "_event")

    def __init__(self, payload: object) -> None:
        self.payload = payload
        self.response: Optional[object] = None
        self.error: Optional[BaseException] = None
        self._event = threading.Event()

    def complete(self, response: object) -> None:
        """Deliver a successful response and wake the submitter."""
        self.response = response
        self._event.set()

    def fail(self, error: BaseException) -> None:
        """Deliver a failure and wake the submitter."""
        self.error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> object:
        """Block until the batch executed; return the response or raise.

        Raises:
            TimeoutError: if no dispatcher delivered within ``timeout``.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("request was not served before the timeout")
        if self.error is not None:
            raise self.error
        return self.response


#: Queue sentinel: one per dispatcher, consumed exactly once each.
_SHUTDOWN = object()

#: Largest micro-batch handed to one ``execute`` call (read at use, so a
#: test may monkeypatch it).
MAX_BATCH = 8


class MicroBatcher:
    """Shared request queue drained by one dispatcher thread per engine.

    Args:
        execute: Callback ``execute(worker_index, batch)`` that runs one
            micro-batch and completes/fails every pending request in it.
            It must not raise -- failures belong on the pending requests.
        workers: Number of dispatcher threads (the service's engine-pool
            size: dispatcher *i* owns engine *i*).
    """

    def __init__(
        self,
        execute: Callable[[int, Sequence[PendingRequest]], None],
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._execute = execute
        self.workers = workers
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Spawn the dispatcher threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._run_dispatcher,
                    args=(index,),
                    name=f"repro-dispatch-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def stop(self) -> None:
        """Drain and join every dispatcher (idempotent).

        Requests already queued are still served; new submissions are
        rejected from the moment stop is called.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            if started:
                # Under the same lock as submit's closed-check, so no
                # request can slip in behind the sentinels and starve.
                for _ in self._threads:
                    self._queue.put(_SHUTDOWN)
        if started:
            for thread in self._threads:
                thread.join()

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._closed

    def queue_depth(self) -> int:
        """Requests currently waiting for a dispatcher (approximate)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------ #
    # submission

    def submit(self, payload: object) -> PendingRequest:
        """Enqueue one request; returns the pending handle to wait on.

        Raises:
            RuntimeError: if the batcher is stopped or never started.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("the query service is shut down")
            if not self._started:
                raise RuntimeError("the query service is not started")
            pending = PendingRequest(payload)
            self._queue.put(pending)
            return pending

    # ------------------------------------------------------------------ #
    # dispatcher loop

    def _run_dispatcher(self, index: int) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            exiting = self._gather(batch)
            self._execute(index, batch)
            if exiting:
                return

    def _gather(self, batch: List[object]) -> bool:
        """Fill ``batch`` up to :data:`MAX_BATCH` from what is already
        queued, never waiting; True if a sentinel was seen.

        A sentinel encountered mid-gather finishes the current batch first,
        then makes this dispatcher exit -- its sentinel is consumed, the
        other dispatchers still get theirs.
        """
        while len(batch) < MAX_BATCH:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return True
            batch.append(item)
        return False
