"""The long-running query service behind ``repro serve``.

:class:`QueryService` turns the batch-oriented engine stack into an online
system:

* a **warm engine pool** -- ``engines`` :class:`~repro.core.engine.SPQEngine`
  instances over one dataset snapshot, all sharing a single
  :class:`~repro.index.cache.IndexCache` (an index built for any request
  serves every later request, whichever engine runs it);
* **micro-batching** -- concurrent requests are grouped by the
  :class:`~repro.server.batching.MicroBatcher` into ``execute_many`` calls,
  so the batch-reuse machinery built for offline workloads applies to
  online traffic;
* a **result cache** -- an LRU of response payloads keyed by
  ``(dataset_version, canonical query)``
  (:class:`~repro.server.cache.ResultCache`), answering repeated queries
  without touching an engine.

The service is transport-agnostic: :mod:`repro.server.http` exposes it over
stdlib HTTP, tests and benchmarks drive :meth:`QueryService.submit`
directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.core.centralized import dataset_extent
from repro.core.engine import ALGORITHM_CHOICES, EngineConfig, SPQEngine
from repro.datagen.queries import radius_from_cell_fraction
from repro.model.objects import DataObject, FeatureObject
from repro.index.cache import IndexCache
from repro.index.delta import DatasetDelta
from repro.server.batching import MicroBatcher, PendingRequest
from repro.server.frontdoor import FrontDoor
from repro.server.gate import QuiesceGate
from repro.server.protocol import (
    ParsedRequest,
    RequestDefaults,
    parse_query_spec,
    result_payload,
)
from repro.spatial.geometry import BoundingBox

#: How long one submitted request may wait for its micro-batch before
#: :class:`TimeoutError`.
REQUEST_TIMEOUT_SECONDS = 60.0


def resolve_request_defaults(
    extent: BoundingBox, engine_grid_size: int, config: "ServiceConfig"
) -> RequestDefaults:
    """Service-level request defaults for one dataset extent.

    Shared by :class:`QueryService` and the shard router so an unsharded
    service and a router over the same dataset resolve a request to the
    same canonical query (same default radius rule, same grid size) --
    a precondition of their result identity.
    """
    grid_size = (
        config.default_grid_size
        if config.default_grid_size is not None
        else engine_grid_size
    )
    radius = config.default_radius
    if radius is None:
        radius = radius_from_cell_fraction(
            extent, grid_size, config.default_radius_fraction
        )
    return RequestDefaults(
        k=config.default_k,
        radius=float(radius),
        algorithm=config.default_algorithm,
        grid_size=grid_size,
        score_mode="range",
    )


@dataclass
class ServiceConfig:
    """Knobs of one :class:`QueryService`.

    Attributes:
        engines: Warm engine-pool size; also the number of micro-batch
            dispatcher threads (dispatcher *i* owns engine *i*).
        max_batch: Largest micro-batch handed to one ``execute_many`` call.
        batch_window_seconds: How long a dispatcher lingers for batchmates
            (0 = natural batching: group what is queued, never wait).
        result_cache_capacity: Entries of the response LRU (0 disables it).
        compact_threshold: Once the delta overlay holds this many live
            operations (appends + tombstones), a background compaction
            folds it into a fresh base snapshot.  0 (the default) disables
            auto-compaction; :meth:`QueryService.compact` stays available
            either way.
        admission_queue_depth: Bounded admission queue: at most this many
            requests may be admitted-but-unfinished at once; arrivals past
            the bound are shed with :class:`~repro.exceptions.OverloadError`
            (HTTP 429) instead of queueing toward a timeout.  0 (the
            default) disables admission control entirely
            (``docs/traffic.md``).
        default_deadline_ms: Latency budget applied to requests that carry
            no ``deadline_ms`` of their own; only honored while admission
            control is enabled.  None (the default) means no deadline.
        default_k / default_radius / default_radius_fraction /
            default_algorithm / default_grid_size: Applied to request fields
            the client leaves unset.  A None ``default_radius`` derives one
            from ``default_radius_fraction`` of the default grid's cell side
            (the same rule the CLI uses); a None ``default_grid_size``
            defers to the engine configuration.
    """

    engines: int = 2
    max_batch: int = 8
    batch_window_seconds: float = 0.0
    result_cache_capacity: int = 256
    compact_threshold: int = 0
    admission_queue_depth: int = 0
    default_deadline_ms: Optional[float] = None
    default_k: int = 10
    default_radius: Optional[float] = None
    default_radius_fraction: float = 0.10
    default_algorithm: str = "espq-sco"
    default_grid_size: Optional[int] = None


class QueryService(FrontDoor):
    """Concurrent, warm query service over one dataset snapshot.

    The :class:`~repro.server.frontdoor.FrontDoor` request lifecycle over
    a micro-batched engine pool.  Use as a context manager (``with
    QueryService(...) as service:``) or call :meth:`start` /
    :meth:`shutdown` explicitly.  Thread-safe: :meth:`submit` may be called
    from any number of transport threads.
    """

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        engine_config: Optional[EngineConfig] = None,
        config: Optional[ServiceConfig] = None,
        extent: Optional[BoundingBox] = None,
        scope: Optional[BoundingBox] = None,
    ) -> None:
        """Build the engine pool and serving structures (does not start).

        Args:
            data_objects: The object dataset ``O``.
            feature_objects: The feature dataset ``F``.
            engine_config: Engine knobs shared by every pooled engine.
            config: Service knobs (defaults to :class:`ServiceConfig`).
            extent: Explicit grid extent for every pooled engine.  The shard
                router passes the *full* dataset extent so a shard service's
                query grids align cell-for-cell with an unsharded engine's;
                plain deployments leave it None (extent derived from the
                datasets).
            scope: The shard box every pooled engine's queries are scoped
                to (:class:`~repro.core.engine.SPQEngine`); only the
                sharding layer passes one.

        Raises:
            ValueError: for a non-positive engine pool.
            InvalidQueryError: for an explicit degenerate ``extent``.
        """
        self.config = config or ServiceConfig()
        if self.config.engines < 1:
            raise ValueError(f"engines must be >= 1, got {self.config.engines}")
        super().__init__(
            self.config.admission_queue_depth,
            self.config.default_deadline_ms,
            self.config.result_cache_capacity,
        )
        engine_config = engine_config or EngineConfig()
        self._index_cache = IndexCache()
        #: One delta overlay shared by the whole pool: a write absorbed via
        #: any engine is visible to every dispatcher's next batch.
        self._delta = DatasetDelta()
        self._engines: List[SPQEngine] = [
            SPQEngine(
                data_objects,
                feature_objects,
                config=engine_config,
                extent=extent,
                index_cache=self._index_cache,
                delta=self._delta,
                scope=scope,
            )
            for _ in range(self.config.engines)
        ]
        self._batcher = MicroBatcher(
            self._execute_batch,
            workers=self.config.engines,
            max_batch=self.config.max_batch,
            window_seconds=self.config.batch_window_seconds,
        )
        self._defaults = self._resolve_defaults()
        #: Compaction outcomes for ``stats()`` (written under the
        #: front-door lock, next to their counters).
        self._last_compaction_unix: Optional[float] = None
        self._compaction_error: Optional[str] = None
        #: Serializes dataset swaps against each other.
        self._swap_lock = threading.Lock()
        #: The service's write queue: incremental writes, compactions and
        #: full swaps serialize here, so a compaction can never race a
        #: write landing between "materialize the delta" and "swap the
        #: folded snapshot in" (that write would silently vanish).
        #: Reentrant because compact() swaps while holding it.
        self._write_lock = threading.RLock()
        #: Re-derive the grid extent from the datasets on a full swap
        #: without an explicit extent (the lazy-extent policy of a plain
        #: deployment); compactions pin the extent explicitly, so this is
        #: what keeps a *later* client-initiated full swap re-deriving.
        self._derive_extent_on_swap = extent is None
        #: Single-flight gate of the background auto-compaction thread.
        self._compaction_thread: Optional[threading.Thread] = None
        #: Quiesce gate over micro-batches: a dispatcher enters it for the
        #: duration of one batch, a dataset swap holds it paused.
        self._gate = QuiesceGate()

    def _resolve_defaults(self) -> RequestDefaults:
        return resolve_request_defaults(
            self._engines[0].extent,
            self._engines[0].config.grid_size,
            self.config,
        )

    # ------------------------------------------------------------------ #
    # lifecycle

    def _on_start(self) -> None:
        """Spawn the micro-batch dispatchers."""
        self._batcher.start()

    def _on_shutdown(self) -> None:
        """Stop serving, close every engine.

        Queued requests are drained before the dispatchers exit; engines
        are closed afterwards, and closing an already-closed engine is a
        no-op, so external ``close()`` calls on pooled engines are safe.
        """
        self._batcher.stop()
        compaction = self._compaction_thread
        if compaction is not None and compaction.is_alive():
            compaction.join()
        for engine in self._engines:
            engine.close()
        # The engine pool shares one index cache (each pooled engine's
        # close() leaves shared caches alone), so the service unpublishes
        # the cached indexes' shared-memory planes exactly once here.
        self._index_cache.release_all()

    # ------------------------------------------------------------------ #
    # datasets

    def swap_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        extent: Optional[BoundingBox] = None,
        scope: Optional[BoundingBox] = None,
    ) -> Dict[str, object]:
        """Hot-swap the dataset under live traffic; returns the new snapshot info.

        The quiesce protocol (the ``POST /datasets`` endpoint runs this):

        1. new micro-batches are *paused* -- dispatcher threads block before
           touching an engine, while submissions keep queueing normally;
        2. the swap waits for every in-flight micro-batch to finish (those
           requests are answered from the old snapshot);
        3. every pooled engine swaps atomically with respect to serving --
           no batch can observe a half-swapped pool -- bumping its dataset
           version, which makes every cached result and index unreachable;
        4. request defaults are re-derived (the default radius follows the
           new extent) and dispatch resumes.

        Requests submitted during the swap are served from the new snapshot
        once dispatch resumes; none fail because of the swap.

        Args:
            data_objects: The new object dataset ``O``.
            feature_objects: The new feature dataset ``F``.
            extent: Optional new explicit engine extent (sharded
                deployments pass the new *full* extent).
            scope: The new slice's shard box (sharded deployments only).

        Returns:
            ``{"version", "data_objects", "feature_objects"}`` of the new
            snapshot.
        """
        if extent is None and self._derive_extent_on_swap:
            # Pin the extent the engines would lazily derive.  Without
            # this, a compaction's explicit extent pin would survive into
            # later full swaps and keep serving the *old* extent.
            extent = dataset_extent(data_objects, feature_objects)
        self._swap_engines(
            lambda engine: engine.set_datasets(
                data_objects, feature_objects, extent=extent, scope=scope
            )
        )
        return self.dataset_info()

    def _swap_engines(
        self, swap: Callable[[SPQEngine], object], folded: bool = False
    ) -> None:
        """Run ``swap`` on every pooled engine behind the quiesce gate, then
        do what the pool shares once: the index cache is invalidated (or,
        ``folded``, retired for its successors to fold) and the delta reset
        -- one swap or compaction is one reset, whatever the pool size."""
        with self._write_lock, self._swap_lock, self._gate.paused():
            for engine in self._engines:
                swap(engine)
            if folded:
                self._index_cache.retire()
            else:
                self._index_cache.invalidate()
            self._delta.reset()
            self._cache.invalidate()
            self._defaults = self._resolve_defaults()
            self._bump("swaps")

    # ------------------------------------------------------------------ #
    # incremental ingest (delta overlay; see docs/ingest.md)

    @property
    def delta(self) -> DatasetDelta:
        """The pool's shared append/delete overlay."""
        return self._delta

    def apply_objects(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Sequence[str] = (),
        delete_feature_oids: Sequence[str] = (),
    ) -> Dict[str, object]:
        """Absorb one incremental write batch (the ``POST /objects`` body).

        Writes serialize on the service write lock but never quiesce the
        readers: in-flight micro-batches pinned their delta snapshot
        already and finish on it, the next batch sees the new one.  When
        the delta grows past ``compact_threshold``, a background
        compaction is kicked off (single-flight; queries keep flowing).

        Returns:
            The applied counts plus the delta's new size summary.

        Raises:
            DatasetUpdateError: for an invalid batch (nothing is applied).
            RuntimeError: once the service is shut down.
        """
        if self._closed:
            raise RuntimeError("service is shut down")
        with self._write_lock:
            counts = self._engines[0].apply_updates(
                append_data=append_data,
                append_features=append_features,
                delete_data_oids=delete_data_oids,
                delete_feature_oids=delete_feature_oids,
            )
        self._bump("write_batches")
        self._maybe_autocompact()
        return {**counts, "delta": self._delta.snapshot().counts()}

    def compact(self) -> Dict[str, object]:
        """Fold the delta overlay into a fresh base snapshot now.

        Runs under the write lock (no write can land between materialize
        and swap) and swaps through the standard quiesce protocol, so no
        in-flight request is lost and readers never block on the fold
        itself -- only on the brief engine swap.  Every pooled engine
        compacts onto the same snapshot (:meth:`SPQEngine.compact`: the
        served extent and a shard's scope stay pinned), and the shared
        index cache retires its indexes instead of dropping them: the
        first read of each grid folds the delta into the retired index
        (``DatasetIndex.fold``) rather than building from the objects.

        Returns:
            ``{"compacted": bool, "folded_ops": int, ...dataset_info}``.
        """
        with self._write_lock:
            snapshot = self._delta.snapshot()
            if snapshot.is_empty:
                return {
                    "compacted": False,
                    "folded_ops": 0,
                    **self.dataset_info(),
                }
            self._swap_engines(lambda engine: engine.compact(snapshot), folded=True)
            with self._lock:
                self._counters["compactions"] += 1
                self._last_compaction_unix = time.time()
                self._compaction_error = None
        return {
            "compacted": True,
            "folded_ops": snapshot.num_ops,
            **self.dataset_info(),
        }

    def _maybe_autocompact(self) -> None:
        threshold = self.config.compact_threshold
        if threshold <= 0 or self._delta.snapshot().num_ops < threshold:
            return
        with self._lock:
            thread = self._compaction_thread
            if self._closed or (thread is not None and thread.is_alive()):
                return
            thread = threading.Thread(
                target=self._run_autocompaction,
                name="repro-delta-compaction",
                daemon=True,
            )
            self._compaction_thread = thread
        thread.start()

    def _run_autocompaction(self) -> None:
        try:
            self.compact()
        except Exception as exc:  # noqa: BLE001 - recorded, never fatal
            with self._lock:
                self._compaction_error = str(exc)

    def dataset_info(self) -> Dict[str, object]:
        """Version and sizes of the current dataset snapshot."""
        engine = self._engines[0]
        return {
            "version": engine.dataset_version,
            "data_objects": len(engine.data_objects),
            "feature_objects": len(engine.feature_objects),
        }

    # ------------------------------------------------------------------ #
    # serving

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Serve one request object; returns its response payload.

        The request is parsed and validated on the caller's thread (a bad
        request fails alone, never its micro-batch), answered from the
        result cache when possible, and otherwise queued for the next
        micro-batch (:meth:`FrontDoor._serve` is the lifecycle).

        Raises:
            InvalidQueryError: for an invalid request.
            OverloadError: when admission control sheds the request (queue
                full, or deadline blown on arrival / while queued); maps
                to HTTP 429.
            RuntimeError: when the service is not started or already shut
                down.
            TimeoutError: when no dispatcher answers within
                :data:`REQUEST_TIMEOUT_SECONDS`.
        """
        return self._serve(self._parse(spec))

    def _parse(self, spec: Mapping[str, object]) -> ParsedRequest:
        parsed = parse_query_spec(spec, self._defaults, ALGORITHM_CHOICES)
        self._engines[0].validate_combination(
            parsed.item.algorithm, parsed.item.score_mode
        )
        return parsed

    def _cache_version(self) -> "tuple[int, int]":
        """Composite result-cache version: base snapshot + delta overlay.

        Incremental writes do not bump the engines' ``dataset_version``
        (the base indexes stay valid); the delta version component makes
        every cached result unreachable the moment a write lands.
        """
        return (
            self._engines[0].dataset_version,
            self._delta.snapshot().version,
        )

    def _execute(
        self, parsed: ParsedRequest, deadline: Optional[float]
    ) -> Dict[str, object]:
        """Queue ``(parsed, deadline)`` for the next micro-batch and wait for
        the answer (an ``OverloadError`` is the dispatcher's queue-expiry
        failure)."""
        pending = self._batcher.submit((parsed, deadline))
        return pending.wait(REQUEST_TIMEOUT_SECONDS)  # type: ignore[return-value]

    def _execute_many(
        self, parsed_list: Sequence[ParsedRequest]
    ) -> Iterator[Dict[str, object]]:
        """Enqueue every miss, *then* wait: a ``/batch`` shares micro-batches."""
        pendings = [self._batcher.submit((parsed, None)) for parsed in parsed_list]
        for pending in pendings:
            yield pending.wait(REQUEST_TIMEOUT_SECONDS)  # type: ignore[misc]

    # ------------------------------------------------------------------ #
    # micro-batch execution (dispatcher threads)

    def _execute_batch(
        self, worker_index: int, batch: Sequence[PendingRequest]
    ) -> None:
        """Run one micro-batch on this dispatcher's engine (never raises).

        Holds the quiesce gate for the duration of the batch: a concurrent
        :meth:`swap_datasets` waits for it, and while a swap is pausing
        dispatch this blocks *before* touching the engine, so no batch ever
        runs against a half-swapped pool.
        """
        with self._gate.enter():
            self._execute_batch_inner(worker_index, batch)

    def _execute_batch_inner(
        self, worker_index: int, batch: Sequence[PendingRequest]
    ) -> None:
        engine = self._engines[worker_index]
        admission = self._admission
        if admission.enabled:
            # Deadline enforcement at the last responsible moment: a
            # request whose budget expired while it waited is failed here,
            # *before* the engine runs -- its answer could no longer be
            # useful, and executing it would steal capacity from requests
            # that can still meet their deadlines.  Expired requests never
            # reach the engine, so they never feed the result cache.
            live: List[PendingRequest] = []
            for pending in batch:
                _, deadline = pending.payload  # type: ignore[misc]
                if admission.expired_in_queue(deadline):
                    pending.fail(admission.queue_expiry_error())
                else:
                    live.append(pending)
            if not live:
                return
            batch = live
        requests: List[ParsedRequest] = [p.payload[0] for p in batch]  # type: ignore[index]
        # The cache key embeds the dataset version *at execution time* (it
        # cannot change mid-batch: swaps wait for in-flight batches) plus
        # the delta snapshot pinned for the batch: writes land without
        # quiescing, so the snapshot's version -- not the live delta's --
        # is what the computed results actually reflect.
        snapshot = self._delta.snapshot()
        version = (engine.dataset_version, snapshot.version)
        try:
            results = engine.execute_many(
                [parsed.item for parsed in requests], delta_snapshot=snapshot
            )
        except BaseException as exc:  # noqa: BLE001 - delivered to submitters
            for pending in batch:
                pending.fail(exc)
            return
        with self._lock:
            counters = self._counters
            counters["batches"] += 1
            counters["batched_requests"] += len(batch)
            counters["max_batch"] = max(counters["max_batch"], len(batch))
        for pending, parsed, result in zip(batch, requests, results):
            stats_parsed = ParsedRequest(item=parsed.item, include_stats=True)
            full = result_payload(stats_parsed, result)
            self._store(parsed, version, full)
            pending.complete(self._answer(parsed, full))

    # ------------------------------------------------------------------ #
    # introspection

    def stats(self) -> Dict[str, object]:
        """Aggregate serving statistics (the ``GET /stats`` payload)."""
        counters = self._snapshot_counters()
        batches = counters["batches"]
        stats: Dict[str, object] = {
            **self._common_stats(counters),
            "batching": {
                "batches": batches,
                "batched_requests": counters["batched_requests"],
                "max_batch_observed": counters["max_batch"],
                "mean_batch": (
                    counters["batched_requests"] / batches if batches else 0.0
                ),
                "max_batch": self.config.max_batch,
                "window_seconds": self.config.batch_window_seconds,
                "queue_depth": self._batcher.queue_depth(),
            },
            "index_cache": self._index_cache.stats.as_dict(),
            "engines": {"count": len(self._engines)},
            "ingest": {
                "delta": self._delta.snapshot().counts(),
                "cumulative": dict(vars(self._delta.counters)),
                "write_batches": counters["write_batches"],
                "compactions": counters["compactions"],
                "compact_threshold": self.config.compact_threshold,
                "last_compaction_unix": self._last_compaction_unix,
                "last_compaction_error": self._compaction_error,
            },
        }
        stats["planner"] = {
            "mode": "on",  # wire format: `auto` always runs the global scan
            "decisions": sum(engine.planner.decisions for engine in self._engines),
        }
        return stats

    @property
    def engines(self) -> List[SPQEngine]:
        """The warm engine pool (shared index cache and delta)."""
        return self._engines
