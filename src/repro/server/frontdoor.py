"""The front door: one request lifecycle for every serving mode.

``repro serve`` answers a request the same way however the dataset is
deployed -- one engine pool, ``--shards N`` in-process shards or
``--cluster N`` node processes.  :class:`FrontDoor` is the part of that
promise that is about the *request* rather than the data: lifecycle
guards, admission, the result-cache probe, outcome accounting and the
``/stats`` subtrees every mode reports.  It is written once and extended by
two executors: :class:`~repro.server.service.QueryService` (a cache miss is
queued on the micro-batcher of a warm engine pool) and
:class:`~repro.sharding.router.ScatterGatherRouter` (a miss is scattered to
the shard targets inside the quiesce gate and the partials merged).

Everything mode-specific is a hook; the front door never asks which
executor it is serving.  The public ``submit`` stays defined on the concrete
classes, as one line over :meth:`FrontDoor._serve`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.exceptions import OverloadError
from repro.server.admission import AdmissionController
from repro.server.cache import ResultCache
from repro.server.metrics import LatencyHistogram
from repro.server.protocol import ParsedRequest, RequestDefaults


class FrontDoor:
    """Lifecycle, admission, result cache and accounting of one front-end.

    Use as a context manager or call :meth:`start` / :meth:`shutdown`
    explicitly.  Thread-safe: the serving surface may be called from any
    number of transport threads.  An executor supplies:

    * ``_on_start()`` / ``_on_shutdown()`` -- start its threads and restore
      durable state; drain accepted requests, then tear itself down;
    * ``_parse(spec)`` -- validate and fully resolve one request object;
    * ``_cache_version()`` -- the version a result computed *now* would be
      cached under, read in one step;
    * ``_execute(parsed, deadline)`` -- compute one cache miss, raising
      ``OverloadError`` when ``deadline`` passed before the work started.
      The executor stores the answer itself (:meth:`_store`): only it knows
      which version a computed answer reflects;
    * ``_execute_many(parsed_list)`` -- compute a batch of misses together;
      an iterable of answers in input order (may be lazy: each item is
      accounted as its answer is taken);
    * ``dataset_info()`` and ``_defaults`` -- the current snapshot's version
      and sizes, and the defaults applied to unset request fields.
    """

    _defaults: RequestDefaults

    def __init__(
        self,
        admission_queue_depth: int,
        default_deadline_ms: Optional[float],
        result_cache_capacity: int,
    ) -> None:
        """Build the serving structures (does not start).

        Raises:
            ValueError: for a negative admission depth, a non-positive
                default deadline or a negative cache capacity.
        """
        #: Admission happens once, here: whatever executes behind the front
        #: door (pooled engines, shard services, nodes) runs without it, so
        #: an admitted request can never be half-shed further down.
        self._admission = AdmissionController(
            queue_depth=admission_queue_depth,
            default_deadline_ms=default_deadline_ms,
        )
        self._latency = LatencyHistogram()
        #: Stats-bearing response payloads keyed by ``(cache version,
        #: canonical query)``; entries invalidate by version unreachability.
        self._cache = ResultCache(result_cache_capacity)
        #: Request and state-change accounting (guarded by ``_lock``).
        self._counters: Counter = Counter()
        self._lock = threading.Lock()
        #: The executor's background threads loop on ``_background_stop.wait()``.
        self._background_stop = threading.Event()
        self._background_threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "FrontDoor":
        """Start serving (idempotent; a no-op once shut down)."""
        with self._lock:
            if self._started or self._closed:
                return self
            self._started = True
            self._started_monotonic = time.monotonic()
        self._on_start()
        return self

    def shutdown(self) -> None:
        """Stop the background threads, drain, tear down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._background_stop.set()
        for thread in self._background_threads:
            thread.join()
        self._on_shutdown()

    def _start_background(self, run: Callable[[], None], name: str) -> threading.Thread:
        thread = threading.Thread(target=run, name=name, daemon=True)
        self._background_threads.append(thread)
        thread.start()
        return thread

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self._closed

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before it); lock-free.

        Liveness probes poll this every few seconds -- it must not contend
        on the counter lock the way the full ``stats()`` tree does.
        """
        started = self._started_monotonic
        return time.monotonic() - started if started is not None else 0.0

    def _require_serving(self) -> None:
        if not self._started:
            raise RuntimeError("the query service is not started")
        if self._closed:
            raise RuntimeError("the query service is shut down")

    # ------------------------------------------------------------------ #
    # serving

    def _serve(self, parsed: ParsedRequest) -> Dict[str, object]:
        """The request lifecycle (every mode's ``submit`` runs this).

        Admission order: deadline first (a blown budget sheds without
        consuming anything), then the cache (hits are goodput and never
        occupy a slot), then the bounded queue.  With admission disabled
        (``queue_depth=0``) every hook is a no-op and this is the classic
        lookup-or-execute path.
        """
        started = time.monotonic()
        self._require_serving()
        self._bump("submitted")
        admission = self._admission
        deadline = admission.resolve_deadline(parsed.deadline_ms)
        admission.on_arrival(deadline)
        hit = self._probe(parsed, started)
        if hit is not None:
            admission.admit_bypass()
            return hit
        admission.acquire()
        try:
            response = self._execute(parsed, deadline)
        except BaseException as exc:
            # An OverloadError past admission means the request was
            # admitted, then its deadline passed before it ran (queued for
            # a micro-batch, or held at a paused gate) -- or a remote
            # target relayed its own 429.  Either way the client sees a
            # 429: the shed bucket.
            admission.release(
                "expired" if isinstance(exc, OverloadError) else "failed"
            )
            self._bump("failed")
            raise
        admission.release("completed", self._completed(started))
        return response

    def submit_many(
        self, specs: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Serve a batch of request objects; responses in input order.

        All requests are validated up front (the whole batch is rejected if
        any is invalid, mirroring ``execute_many``), cached answers are
        taken from the result cache, and the misses are handed to the
        executor together so they can share work.

        Batch submission is a trusted bulk surface (offline replay, the
        ``repro batch`` path) and bypasses admission control in every
        deployment mode: shedding individual requests out of an
        all-or-nothing batch would break its contract.  Interactive traffic
        goes through ``submit``.
        """
        parsed_list = [self._parse(spec) for spec in specs]
        self._require_serving()
        responses: List[Optional[Dict[str, object]]] = []
        misses: List[int] = []
        started: List[float] = []
        for index, parsed in enumerate(parsed_list):
            started.append(time.monotonic())
            self._bump("submitted")
            responses.append(self._probe(parsed, started[index]))
            if responses[index] is None:
                misses.append(index)
        try:
            answers = self._execute_many([parsed_list[i] for i in misses])
            for response, index in zip(answers, misses):
                self._completed(started[index])
                responses[index] = response
        except BaseException:
            self._bump("failed")
            raise
        return responses  # type: ignore[return-value]

    def _probe(
        self, parsed: ParsedRequest, started: float
    ) -> Optional[Dict[str, object]]:
        """The cached answer for ``parsed``, accounted as completed; or None.

        Runs before admission and outside any quiesce gate, with no second
        look once the executor is reached.  That is safe because of what
        executors promise: an answer is only ever stored under the version
        it was computed at, version components only grow, and
        ``_cache_version()`` names one state -- so a key a reader can form
        names a whole dataset state that was current at some instant of
        this read.
        """
        if not self._cache.enabled:
            return None
        full = self._cache.get(parsed.canonical_key(self._cache_version()))
        if full is None:
            return None
        self._bump("cache_hits")
        self._completed(started)
        return self._answer(parsed, full, cached=True)

    def _store(
        self, parsed: ParsedRequest, version: Hashable, full: Mapping[str, object]
    ) -> None:
        """Cache the stats-bearing payload of an answer computed at ``version``."""
        self._cache.put(parsed.canonical_key(version), full)

    @staticmethod
    def _answer(
        parsed: ParsedRequest, full: Mapping[str, object], cached: bool = False
    ) -> Dict[str, object]:
        """What was asked for, out of a stats-bearing payload: the cache
        holds the stats so a later stats-requesting hit can still see them."""
        response = dict(full)
        if cached:
            response["cached"] = True
        if not parsed.include_stats:
            response.pop("stats", None)
        return response

    def _completed(self, started: float) -> float:
        """Account one answered request; returns its latency in seconds."""
        latency = time.monotonic() - started
        self._latency.record(latency)
        self._bump("completed")
        return latency

    def _bump(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (disabled when ``queue_depth=0``).

        The HTTP front-end duck-types on this attribute for its fast-shed
        probe (answer 429 before reading the body when the queue is full);
        every deployment mode sheds with one contract.
        """
        return self._admission

    def _snapshot_counters(self) -> Counter:
        with self._lock:
            return Counter(self._counters)

    def _common_stats(self, counters: Counter) -> Dict[str, object]:
        """The ``/stats`` subtrees every mode reports."""
        return {
            "uptime_seconds": self.uptime_seconds(),
            "started": self._started,
            "closed": self._closed,
            "requests": {
                "submitted": counters["submitted"],
                "completed": counters["completed"],
                "failed": counters["failed"],
                "result_cache_hits": counters["cache_hits"],
            },
            "latency": self._latency.snapshot(),
            "admission": self._admission.snapshot(),
            "result_cache": {
                "capacity": self._cache.capacity,
                "size": len(self._cache),
                **self._cache.stats.as_dict(),
            },
            "dataset": {**self.dataset_info(), "swaps": counters["swaps"]},
            "defaults": vars(self._defaults),
        }


__all__ = ["FrontDoor"]
