"""The quiesce gate: pause flag + in-flight count + condition, written once.

Every state change that must be atomic with respect to serving -- a hot
swap, a compaction's engine swap, a routed multi-shard write -- runs the
same protocol: stop new units of work from starting, wait for the
in-flight ones to finish, change the state, let work resume.
:class:`~repro.server.service.QueryService` holds one gate over
micro-batches, the scatter-gather routers one over scatter-gathers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class QuiesceGate:
    """Lets units of work run concurrently, and state changes run alone.

    Paused sections do not nest and are not serialized here: callers
    serialize their state changes on their own swap/write lock (they hold
    it anyway, for the work they do before pausing).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._paused = False
        self._inflight = 0
        self._closed = False

    @contextmanager
    def enter(self) -> Iterator[None]:
        """Run one unit of work inside the gate; blocks while it is paused.

        The closed check sits after the wait and before the in-flight
        count, which makes it the authoritative one: work that lost a race
        with :meth:`drain_and_close` is rejected and the drain stays exact.

        Raises:
            RuntimeError: once the gate is closed.
        """
        with self._cond:
            while self._paused:
                self._cond.wait()
            if self._closed:
                raise RuntimeError("the query service is shut down")
            self._inflight += 1
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Hold the gate paused for the duration of one state change.

        New entrants queue (they are not failed), the section starts once
        all in-flight work has left, and the gate reopens even when the
        state change raises.
        """
        with self._cond:
            self._paused = True
            while self._inflight:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()

    def drain_and_close(self) -> None:
        """Reject new entrants, then return once nothing is in flight."""
        with self._cond:
            self._closed = True
            while self._inflight:
                self._cond.wait()


__all__ = ["QuiesceGate"]
