"""Micro-batching: run a request on an idle engine, or group it for ``execute_many``.

The batch engine's amortisation was built for offline workloads --
one caller, many queries.  Online traffic arrives as many callers, one query
each.  The :class:`MicroBatcher` bridges the two over a pool of engines that
no thread owns: an engine is either idle in the pool or held by the one
thread running a batch on it.

* **Inline.** A request submitted with ``inline=True`` that finds the queue
  empty and an engine idle runs as a batch of one on the submitting thread:
  no hand-off to another thread and back, so an idle service adds no
  thread hop to a read.
* **Queued.** Any other request joins a FIFO queue.  A dispatcher thread
  that holds an idle engine drains whatever has accumulated -- up to
  :data:`MAX_BATCH` -- into a single ``SPQEngine.execute_many`` call.
  Batching is *natural*: a dispatcher never waits for company, so batches
  form exactly while every engine is busy.

One lock and condition guard both the pool and the queue, which is what
keeps the two paths honest: a request runs inline only while nothing is
queued (FIFO order holds), a dispatcher takes queued work only with an
idle engine in hand, and an engine returns to the pool only under the lock,
waking a dispatcher when work is queued (nothing queued is stranded).

Micro-batch composition never changes a request's result: every request is
fully resolved (no deferred defaults) and ``execute_many`` returns results
identical to per-query ``execute`` calls (one code path), so grouping is purely a
performance decision.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence


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


#: Largest micro-batch handed to one ``execute`` call (read at use, so a
#: test may monkeypatch it).
MAX_BATCH = 8


class MicroBatcher:
    """A pool of idle engines and a FIFO queue, guarded by one condition.

    Args:
        execute: Callback ``execute(engine_index, batch)`` that runs one
            micro-batch on pooled engine ``engine_index`` and
            completes/fails every pending request in it.  It must not
            raise -- failures belong on the pending requests.
        workers: The engine-pool size, which is also the number of
            dispatcher threads draining the queue.
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
        #: Engines no thread is running a batch on (LIFO: the warmest first).
        self._idle: List[int] = list(range(workers))
        self._queue: Deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Spawn the dispatcher threads (idempotent)."""
        with self._cond:
            if self._started:
                return
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._run_dispatcher,
                    name=f"repro-dispatch-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def stop(self) -> None:
        """Reject new submissions, drain the queue, and return once every
        engine is idle (idempotent): requests already queued are still
        served, and a batch running inline finishes before this returns."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        with self._cond:
            while len(self._idle) < self.workers:
                self._cond.wait()

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._closed

    def queue_depth(self) -> int:
        """Requests currently waiting for an engine."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # submission

    def submit(self, payload: object, inline: bool = False) -> PendingRequest:
        """Run one request inline, or enqueue it; returns the handle to wait on.

        With ``inline`` and an idle engine and nothing queued, the request
        runs as a batch of one on this thread before ``submit`` returns;
        otherwise it is queued for a dispatcher.

        Raises:
            RuntimeError: if the batcher is stopped or never started.
        """
        pending = PendingRequest(payload)
        with self._cond:
            if self._closed:
                raise RuntimeError("the query service is shut down")
            if not self._started:
                raise RuntimeError("the query service is not started")
            if not (inline and self._idle and not self._queue):
                self._queue.append(pending)
                self._cond.notify()
                return pending
            engine = self._idle.pop()
        self._run(engine, [pending])
        return pending

    # ------------------------------------------------------------------ #
    # execution

    def _run(self, engine: int, batch: Sequence[PendingRequest]) -> None:
        """Run ``batch`` on ``engine``, then hand the engine back to the pool."""
        try:
            self._execute(engine, batch)
        finally:
            with self._cond:
                self._idle.append(engine)
                if self._queue or self._closed:
                    self._cond.notify_all()

    def _run_dispatcher(self) -> None:
        while True:
            with self._cond:
                while not (self._queue and self._idle):
                    if self._closed and not self._queue:
                        return
                    self._cond.wait()
                engine = self._idle.pop()
                size = min(MAX_BATCH, len(self._queue))
                batch = [self._queue.popleft() for _ in range(size)]
            self._run(engine, batch)
