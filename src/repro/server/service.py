"""The long-running query service behind ``repro serve``.

:class:`QueryService` turns the batch-oriented engine stack into an online
system:

* a **warm engine pool** -- ``engines`` :class:`~repro.core.engine.SPQEngine`
  instances over one dataset snapshot, all sharing a single
  :class:`~repro.index.cache.IndexCache` (an index built for any request
  serves every later request, whichever engine runs it) and a single
  :class:`~repro.planner.core.QueryPlanner` (every executed query feeds one
  calibration state);
* **micro-batching** -- concurrent requests are grouped by the
  :class:`~repro.server.batching.MicroBatcher` into ``execute_many`` calls,
  so the batch-reuse machinery built for offline workloads applies to
  online traffic;
* a **result cache** -- an LRU of response payloads keyed by
  ``(dataset_version, canonical query)``
  (:class:`~repro.server.cache.ResultCache`), answering repeated queries
  without touching an engine; and
* **durable calibration** -- with a ``calibration_path`` the planner's
  state is restored on start, checkpointed periodically while serving and
  saved atomically on shutdown, so ``algorithm="auto"`` starts sharp after
  a restart instead of re-warming from priors.

The service is transport-agnostic: :mod:`repro.server.http` exposes it over
stdlib HTTP, tests and benchmarks drive :meth:`QueryService.submit`
directly.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.centralized import dataset_extent
from repro.core.engine import ALGORITHM_CHOICES, EngineConfig, SPQEngine
from repro.datagen.queries import radius_from_cell_fraction
from repro.exceptions import OverloadError
from repro.model.objects import DataObject, FeatureObject
from repro.index.cache import IndexCache
from repro.index.delta import DatasetDelta
from repro.planner.core import PlannerConfig, QueryPlanner, resolve_planner_mode
from repro.planner.persistence import save_calibration, try_restore_calibration
from repro.server.admission import AdmissionController
from repro.server.batching import MicroBatcher, PendingRequest
from repro.server.cache import ResultCache
from repro.server.gate import QuiesceGate
from repro.server.metrics import LatencyHistogram
from repro.server.protocol import (
    ParsedRequest,
    RequestDefaults,
    parse_query_spec,
    result_payload,
)
from repro.spatial.geometry import BoundingBox


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
        calibration_path: Durable planner-calibration snapshot location;
            None disables persistence.
        calibration_seed_path: Snapshot read *only on a cold start* (no file
            at ``calibration_path`` yet) to seed the calibrator; checkpoints
            never write here.  Sharded deployments point every shard at one
            shared global snapshot.
        checkpoint_interval_seconds: Periodic calibration checkpoint cadence
            while serving (0 = save only on shutdown).
        request_timeout_seconds: How long one submitted request may wait for
            its micro-batch before :class:`TimeoutError`.
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
    calibration_path: Optional[str] = None
    calibration_seed_path: Optional[str] = None
    checkpoint_interval_seconds: float = 0.0
    request_timeout_seconds: float = 60.0
    compact_threshold: int = 0
    admission_queue_depth: int = 0
    default_deadline_ms: Optional[float] = None
    default_k: int = 10
    default_radius: Optional[float] = None
    default_radius_fraction: float = 0.10
    default_algorithm: str = "espq-sco"
    default_grid_size: Optional[int] = None


@dataclass
class _ServiceCounters:
    """Mutable request/batch accounting (guarded by the service lock)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch: int = 0
    swaps: int = 0
    write_batches: int = 0
    compactions: int = 0
    last_compaction_unix: Optional[float] = None
    compaction_error: Optional[str] = None
    checkpoints: int = 0
    last_checkpoint_unix: Optional[float] = None
    checkpoint_error: Optional[str] = None
    calibration_restored: bool = False
    calibration_seeded: bool = False
    calibration_rejected: Optional[str] = None


@dataclass
class _PendingPayload:
    """What rides through the micro-batch queue for one request."""

    parsed: ParsedRequest
    #: Submission timestamp (``time.monotonic``) for the latency histogram.
    submitted_monotonic: float = 0.0
    #: Absolute monotonic deadline (None = no deadline).  The dispatcher
    #: checks it before executing: a request whose budget expired while
    #: queued is failed without ever touching an engine.
    deadline_monotonic: Optional[float] = None


class QueryService:
    """Concurrent, warm query service over one dataset snapshot.

    Use as a context manager (``with QueryService(...) as service:``) or
    call :meth:`start` / :meth:`shutdown` explicitly.  Thread-safe:
    :meth:`submit` may be called from any number of transport threads.
    """

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        engine_config: Optional[EngineConfig] = None,
        config: Optional[ServiceConfig] = None,
        extent: Optional[BoundingBox] = None,
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

        Raises:
            ValueError: for a non-positive engine pool.
            JobConfigurationError: for invalid engine backend/planner
                configuration.
            InvalidQueryError: for an explicit degenerate ``extent``.
        """
        self.config = config or ServiceConfig()
        if self.config.engines < 1:
            raise ValueError(f"engines must be >= 1, got {self.config.engines}")
        engine_config = engine_config or EngineConfig()
        self.planner_mode = resolve_planner_mode(engine_config.planner_mode)
        self._planner: Optional[QueryPlanner] = None
        if self.planner_mode == "on":
            self._planner = QueryPlanner(
                cluster=engine_config.cluster,
                parameters=engine_config.cost_parameters,
                config=PlannerConfig(
                    mode=self.planner_mode,
                    memory=engine_config.planner_memory,
                    smoothing=engine_config.planner_smoothing,
                ),
            )
        self._index_cache = IndexCache(capacity=engine_config.index_cache_capacity)
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
                planner=self._planner,
                delta=self._delta,
            )
            for _ in range(self.config.engines)
        ]
        self._result_cache = ResultCache(self.config.result_cache_capacity)
        self._admission = AdmissionController(
            queue_depth=self.config.admission_queue_depth,
            default_deadline_ms=self.config.default_deadline_ms,
        )
        self._batcher = MicroBatcher(
            self._execute_batch,
            workers=self.config.engines,
            max_batch=self.config.max_batch,
            window_seconds=self.config.batch_window_seconds,
        )
        self._defaults = self._resolve_defaults()
        self._counters = _ServiceCounters()
        self._latency = LatencyHistogram()
        self._lock = threading.Lock()
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
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._started = False
        self._closed = False
        self._started_monotonic: Optional[float] = None

    def _resolve_defaults(self) -> RequestDefaults:
        return resolve_request_defaults(
            self._engines[0].extent,
            self._engines[0].config.grid_size,
            self.config,
        )

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "QueryService":
        """Restore calibration, spawn dispatchers and checkpoints (idempotent).

        A calibration snapshot that fails validation is *rejected, not
        fatal*: the reason is recorded in :meth:`stats` under
        ``planner.persistence.rejected`` and the service starts cold.
        """
        with self._lock:
            if self._started or self._closed:
                return self
            self._started = True
            self._started_monotonic = time.monotonic()
        if self._planner is not None and (
            self.config.calibration_path or self.config.calibration_seed_path
        ):
            primary = self.config.calibration_path
            primary_exists = bool(primary) and os.path.exists(primary)
            rejected = try_restore_calibration(
                primary,
                self._planner.calibrator,
                seed_path=self.config.calibration_seed_path,
            )
            with self._lock:
                self._counters.calibration_rejected = rejected
                self._counters.calibration_restored = (
                    rejected is None
                    and self._planner.calibrator.observations > 0
                )
                self._counters.calibration_seeded = (
                    self._counters.calibration_restored and not primary_exists
                )
        self._batcher.start()
        if (
            self.config.calibration_path
            and self._planner is not None
            and self.config.checkpoint_interval_seconds > 0
        ):
            self._checkpoint_thread = threading.Thread(
                target=self._run_checkpoints,
                name="repro-calibration-checkpoint",
                daemon=True,
            )
            self._checkpoint_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, save calibration, close every engine (idempotent).

        Queued requests are drained before the dispatchers exit; engines
        are closed afterwards, and closing an already-closed engine is a
        no-op, so repeated shutdowns (or external ``close()`` calls on
        pooled engines) are safe.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.stop()
        self._checkpoint_stop.set()
        if self._checkpoint_thread is not None:
            self._checkpoint_thread.join()
        compaction = self._compaction_thread
        if compaction is not None and compaction.is_alive():
            compaction.join()
        if self._started:
            self.checkpoint()
        for engine in self._engines:
            engine.close()
        # The engine pool shares one index cache (each pooled engine's
        # close() leaves shared caches alone), so the service unpublishes
        # the cached indexes' shared-memory planes exactly once here.
        self._index_cache.release_all()

    def __enter__(self) -> "QueryService":
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
        on the counter or calibrator locks the way the full :meth:`stats`
        tree does.
        """
        started = self._started_monotonic
        return time.monotonic() - started if started is not None else 0.0

    def _run_checkpoints(self) -> None:
        interval = self.config.checkpoint_interval_seconds
        while not self._checkpoint_stop.wait(interval):
            self.checkpoint()

    def checkpoint(self) -> Optional[str]:
        """Persist the calibration state now; returns the path written.

        No-op (returns None) without a ``calibration_path`` or with the
        planner disabled.  A failed write (directory gone, disk full, ...)
        never raises -- shutdown must still close the engines and the
        periodic checkpoint thread must survive transient failures -- it
        returns None and records the error under
        ``planner.persistence.last_error`` in :meth:`stats`.
        """
        if self._planner is None or not self.config.calibration_path:
            return None
        try:
            save_calibration(
                self.config.calibration_path, self._planner.calibrator
            )
        except OSError as exc:
            with self._lock:
                self._counters.checkpoint_error = str(exc)
            return None
        with self._lock:
            self._counters.checkpoints += 1
            self._counters.last_checkpoint_unix = time.time()
            self._counters.checkpoint_error = None
        return self.config.calibration_path

    def seed_calibration_if_cold(self) -> bool:
        """(Re)seed a still-cold calibrator from its snapshot or seed path.

        The shard router calls this after a rebalance: a shard that served
        no traffic before the layout change still has zero observations,
        and re-running the restore-or-seed rule of :meth:`start` hands it
        the fleet-wide estimates of the shared seed snapshot instead of a
        cold start.  A calibrator that has learned anything -- or a
        service without persistence configured -- is left untouched.

        Returns:
            True when a snapshot or seed was applied.
        """
        planner = self._planner
        if planner is None or planner.calibrator.observations > 0:
            return False
        if not (
            self.config.calibration_path or self.config.calibration_seed_path
        ):
            return False
        rejected = try_restore_calibration(
            self.config.calibration_path,
            planner.calibrator,
            seed_path=self.config.calibration_seed_path,
        )
        seeded = rejected is None and planner.calibrator.observations > 0
        if seeded:
            with self._lock:
                self._counters.calibration_restored = True
                self._counters.calibration_seeded = True
        return seeded

    # ------------------------------------------------------------------ #
    # datasets

    def swap_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        extent: Optional[BoundingBox] = None,
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

        Returns:
            ``{"version", "data_objects", "feature_objects"}`` of the new
            snapshot.
        """
        if extent is None and self._derive_extent_on_swap:
            # Pin the extent the engines would lazily derive.  Without
            # this, a compaction's explicit extent pin would survive into
            # later full swaps and keep serving the *old* extent.
            extent = dataset_extent(data_objects, feature_objects)
        with self._write_lock, self._swap_lock, self._gate.paused():
            for engine in self._engines:
                engine.set_datasets(data_objects, feature_objects, extent=extent)
            self._result_cache.invalidate()
            self._defaults = self._resolve_defaults()
            with self._lock:
                self._counters.swaps += 1
        return self.dataset_info()

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
        with self._lock:
            self._counters.write_batches += 1
        self._maybe_autocompact()
        return {**counts, "delta": self._delta.snapshot().counts()}

    def compact(self) -> Dict[str, object]:
        """Fold the delta overlay into a fresh base snapshot now.

        Runs under the write lock (no write can land between materialize
        and swap) and swaps through the standard quiesce protocol, so no
        in-flight request is lost and readers never block on the fold
        itself -- only on the brief engine swap.  The current served
        extent is pinned across the fold: deleting a hull object must not
        shrink the grids queries are answered on.

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
            engine = self._engines[0]
            extent = engine.extent
            data, features = engine.materialize_datasets(snapshot)
            self.swap_datasets(data, features, extent=extent)
            with self._lock:
                self._counters.compactions += 1
                self._counters.last_compaction_unix = time.time()
                self._counters.compaction_error = None
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
                self._counters.compaction_error = str(exc)

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
        micro-batch.

        Raises:
            InvalidQueryError: for an invalid request.
            OverloadError: when admission control sheds the request (queue
                full, or deadline blown on arrival / while queued); maps
                to HTTP 429.
            RuntimeError: when the service is not started or already shut
                down.
            TimeoutError: when no dispatcher answers within the configured
                request timeout.
        """
        parsed = self._parse(spec)
        return self._serve(parsed)

    def submit_many(
        self, specs: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Serve a batch of request objects; responses in input order.

        All requests are validated up front (the whole batch is rejected if
        any is invalid, mirroring ``execute_many``), then enqueued together
        so they can share micro-batches.

        Batch submission is a trusted bulk surface (offline replay, the
        ``repro batch`` path) and bypasses admission control: shedding
        individual requests out of an all-or-nothing batch would break its
        contract.  Interactive traffic goes through :meth:`submit`.
        """
        parsed_list = [self._parse(spec) for spec in specs]
        pendings: List[Optional[PendingRequest]] = []
        responses: List[Optional[Dict[str, object]]] = []
        for parsed in parsed_list:
            started = time.monotonic()
            hit = self._lookup(parsed)
            if hit is not None:
                self._latency.record(time.monotonic() - started)
                pendings.append(None)
                responses.append(hit)
            else:
                pendings.append(self._enqueue(parsed, started))
                responses.append(None)
        for index, pending in enumerate(pendings):
            if pending is not None:
                responses[index] = self._await(pending)
        return [response for response in responses if response is not None]

    def _parse(self, spec: Mapping[str, object]) -> ParsedRequest:
        parsed = parse_query_spec(spec, self._defaults, ALGORITHM_CHOICES)
        self._engines[0].validate_combination(
            parsed.item.algorithm, parsed.item.score_mode
        )
        return parsed

    def _serve(self, parsed: ParsedRequest) -> Dict[str, object]:
        started = time.monotonic()
        admission = self._admission
        deadline = admission.resolve_deadline(parsed.deadline_ms)
        # Admission order: deadline first (a blown budget sheds without
        # consuming anything), then the cache (hits are goodput and never
        # occupy a slot), then the bounded queue.  With admission disabled
        # (queue_depth=0) every hook is a no-op and this is the classic
        # lookup-or-enqueue path.
        admission.on_arrival(deadline)
        hit = self._lookup(parsed)
        if hit is not None:
            self._latency.record(time.monotonic() - started)
            admission.admit_bypass()
            return hit
        admission.acquire()
        try:
            response = self._await(self._enqueue(parsed, started, deadline))
        except OverloadError:
            # Only the dispatcher's queue-expiry failure reaches here: the
            # request was admitted, then its deadline passed while queued.
            admission.release("expired")
            raise
        except BaseException:
            admission.release("failed")
            raise
        admission.release("completed", time.monotonic() - started)
        return response

    def _lookup(self, parsed: ParsedRequest) -> Optional[Dict[str, object]]:
        with self._lock:
            self._counters.submitted += 1
        if not self._result_cache.enabled:
            return None
        key = parsed.canonical_key(self._cache_version())
        payload = self._result_cache.get(key)
        if payload is None:
            return None
        payload["cached"] = True
        if not parsed.include_stats:
            payload.pop("stats", None)
        with self._lock:
            self._counters.cache_hits += 1
            self._counters.completed += 1
        return payload

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

    def _enqueue(
        self,
        parsed: ParsedRequest,
        started: float,
        deadline: Optional[float] = None,
    ) -> PendingRequest:
        return self._batcher.submit(
            _PendingPayload(
                parsed=parsed,
                submitted_monotonic=started,
                deadline_monotonic=deadline,
            )
        )

    def _await(self, pending: PendingRequest) -> Dict[str, object]:
        try:
            response = pending.wait(self.config.request_timeout_seconds)
        except BaseException:
            with self._lock:
                self._counters.failed += 1
            raise
        payload: _PendingPayload = pending.payload  # type: ignore[assignment]
        self._latency.record(time.monotonic() - payload.submitted_monotonic)
        with self._lock:
            self._counters.completed += 1
        return response  # type: ignore[return-value]

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
            # reach the engine, so they feed neither the result cache nor
            # the planner's calibration.
            live: List[PendingRequest] = []
            for pending in batch:
                payload: _PendingPayload = pending.payload  # type: ignore[assignment]
                if admission.expired_in_queue(payload.deadline_monotonic):
                    pending.fail(admission.queue_expiry_error())
                else:
                    live.append(pending)
            if not live:
                return
            batch = live
        payloads: List[_PendingPayload] = [p.payload for p in batch]  # type: ignore[misc]
        # The cache key embeds the dataset version *at execution time* (it
        # cannot change mid-batch: swaps wait for in-flight batches) plus
        # the delta snapshot pinned for the batch: writes land without
        # quiescing, so the snapshot's version -- not the live delta's --
        # is what the computed results actually reflect.
        snapshot = self._delta.snapshot()
        version = (engine.dataset_version, snapshot.version)
        try:
            results = engine.execute_many(
                [p.parsed.item for p in payloads], delta_snapshot=snapshot
            )
        except BaseException as exc:  # noqa: BLE001 - delivered to submitters
            for pending in batch:
                pending.fail(exc)
            return
        with self._lock:
            self._counters.batches += 1
            self._counters.batched_requests += len(batch)
            self._counters.max_batch = max(self._counters.max_batch, len(batch))
        for pending, payload, result in zip(batch, payloads, results):
            # Cache the stats-bearing payload, answer with what was asked:
            # a later stats-requesting hit can then still see them.
            stats_parsed = ParsedRequest(item=payload.parsed.item, include_stats=True)
            full = result_payload(stats_parsed, result)
            self._result_cache.put(payload.parsed.canonical_key(version), full)
            response = dict(full)
            if not payload.parsed.include_stats:
                response.pop("stats", None)
            pending.complete(response)

    # ------------------------------------------------------------------ #
    # introspection

    def stats(self) -> Dict[str, object]:
        """Aggregate serving statistics (the ``GET /stats`` payload)."""
        with self._lock:
            counters = _ServiceCounters(**vars(self._counters))
            uptime = (
                time.monotonic() - self._started_monotonic
                if self._started_monotonic is not None
                else 0.0
            )
        mean_batch = (
            counters.batched_requests / counters.batches if counters.batches else 0.0
        )
        engine = self._engines[0]
        stats: Dict[str, object] = {
            "uptime_seconds": uptime,
            "started": self._started,
            "closed": self._closed,
            "requests": {
                "submitted": counters.submitted,
                "completed": counters.completed,
                "failed": counters.failed,
                "result_cache_hits": counters.cache_hits,
            },
            "latency": self._latency.snapshot(),
            "batching": {
                "batches": counters.batches,
                "batched_requests": counters.batched_requests,
                "max_batch_observed": counters.max_batch,
                "mean_batch": mean_batch,
                "max_batch": self.config.max_batch,
                "window_seconds": self.config.batch_window_seconds,
                "queue_depth": self._batcher.queue_depth(),
            },
            "result_cache": {
                "capacity": self._result_cache.capacity,
                "size": len(self._result_cache),
                **self._result_cache.stats.as_dict(),
            },
            "admission": self._admission.snapshot(),
            "index_cache": self._index_cache.stats.as_dict(),
            "engines": {
                "count": len(self._engines),
                "backend_configured": engine.config.backend,
                "backends_active": [
                    e.active_backend_name for e in self._engines
                ],
            },
            "dataset": {
                "version": engine.dataset_version,
                "data_objects": len(engine.data_objects),
                "feature_objects": len(engine.feature_objects),
                "swaps": counters.swaps,
            },
            "ingest": {
                "delta": self._delta.snapshot().counts(),
                "cumulative": dict(vars(self._delta.counters)),
                "write_batches": counters.write_batches,
                "compactions": counters.compactions,
                "compact_threshold": self.config.compact_threshold,
                "last_compaction_unix": counters.last_compaction_unix,
                "last_compaction_error": counters.compaction_error,
            },
            "defaults": vars(self._defaults),
        }
        planner_stats: Dict[str, object] = {"mode": self.planner_mode}
        if self._planner is not None:
            planner_stats["decisions"] = self._planner.decisions
            planner_stats["calibration"] = self._planner.calibrator.snapshot()
            planner_stats["persistence"] = {
                "path": self.config.calibration_path,
                "seed_path": self.config.calibration_seed_path,
                "restored": counters.calibration_restored,
                "seeded": counters.calibration_seeded,
                "rejected": counters.calibration_rejected,
                "checkpoints": counters.checkpoints,
                "last_checkpoint_unix": counters.last_checkpoint_unix,
                "last_error": counters.checkpoint_error,
                "checkpoint_interval_seconds": (
                    self.config.checkpoint_interval_seconds
                ),
            }
        stats["planner"] = planner_stats
        return stats

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (disabled when ``queue_depth=0``).

        The HTTP front-end duck-types on this attribute for its fast-shed
        probe (answer 429 before reading the body when the queue is full);
        routers expose their own controller under the same name so every
        deployment mode sheds with one contract.
        """
        return self._admission

    @property
    def planner(self) -> Optional[QueryPlanner]:
        """The shared planner (None when the planner is disabled)."""
        return self._planner

    @property
    def engines(self) -> List[SPQEngine]:
        """The warm engine pool (shared index cache and planner)."""
        return self._engines
