"""Scatter-gather query routing: the router core and the in-process shard router.

:class:`ScatterGatherRouter` is the executor both sharded deployment modes
serve through -- gate, scatter, gather, store -- behind the request
lifecycle every mode shares (:class:`~repro.server.frontdoor.FrontDoor`:
parse, admit, cache probe, record), written against the small
:class:`ShardTarget` protocol:

* at build time the dataset is split by :func:`~repro.sharding.partition.
  partition_datasets`; every shard target serves its slice but grids over
  the *full* dataset extent, so every shard engine's query grid is
  cell-for-cell the unsharded engine's grid;
* a request is parsed and resolved once at the router, answered from the
  router's result cache when possible (before the gate, without taking an
  admission slot), and otherwise *scattered* -- in parallel -- to every
  shard that owns data (the routing rule; feature reach is Lemma 1 at
  shard granularity, ``MINDIST(f, box) <= r``: resolved at partition time
  up to ``max_radius`` and, per query, by each shard engine's scope -- its
  box -- for the query's own radius);
* the per-shard top-k partials are *gathered* through
  :func:`~repro.model.result.merge_top_k` -- the same merge, with the same
  ``(-score, oid)`` tie order, the engine uses for per-cell lists -- which
  is associative, so the merged result equals a single unsharded engine's
  (see :meth:`~repro.sharding.partition.ShardingPlan.grid_aligned` for the
  exact tie contract); a shard whose target reports no answer makes the
  response *degraded* (explicitly marked, never cached);
* every state change -- hot swap (``POST /datasets``), rebalance, routed
  write batch (``POST /objects``) -- holds the router's
  :class:`~repro.server.gate.QuiesceGate` paused, so every scatter-gather
  sees one whole dataset state on every shard: what makes the merge exact.

:class:`ShardRouter` (``repro serve --shards N``) is the core over one
in-process :class:`QueryService` per shard (:class:`LocalShardTarget`) plus
what is sharding-only: skew layouts, **rebalancing** (``POST /rebalance``
or the ``--rebalance-threshold`` controller: a fresh layout is derived from
the live data histogram and applied through the swap path, content
unchanged, so answers stay bit-for-bit identical) and per-shard
compaction.  :class:`~repro.cluster.router.ClusterRouter` is the
same core over remote targets.

``benchmarks/bench_sharding.py --check`` gates result identity, 4-shard
throughput and loss-free hot swaps under load;
``benchmarks/bench_rebalance.py --check`` gates the skew layout's p99 win
on clustered data plus loss-free rebalancing under load.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.core.engine import (
    ALGORITHM_CHOICES,
    EngineConfig,
    validate_algorithm_combination,
)
from repro.exceptions import InvalidQueryError
from repro.index.delta import DatasetDelta, materialize
from repro.model.objects import DataObject, FeatureObject
from repro.model.result import QueryResult, merge_top_k
from repro.planner.core import AUTO_ALGORITHM
from repro.server.frontdoor import FrontDoor
from repro.server.gate import QuiesceGate
from repro.server.protocol import (
    ParsedRequest,
    parse_query_spec,
    resolved_spec,
    result_payload,
    scored_entries,
)
from repro.server.service import (
    QueryService,
    ServiceConfig,
    resolve_request_defaults,
)
from repro.sharding.layout import LAYOUT_CHOICES
from repro.sharding.partition import ShardingPlan, partition_datasets
from repro.spatial.geometry import BoundingBox

#: Seconds between two samples of the rebalance controller.
REBALANCE_INTERVAL_SECONDS = 2.0
#: Fewest scatter requests a controller window must see before its
#: imbalance verdict is trusted (a handful of requests make a meaningless
#: p99).
REBALANCE_MIN_REQUESTS = 50


@dataclass
class ShardingConfig:
    """Router-level knobs of one :class:`ShardRouter`.

    Attributes:
        shards: Number of shards (>= 1).
        max_radius: Largest query radius the shards answer exactly; the
            feature replication radius of the partitioner.  ``None``
            replicates every feature to every shard and accepts any radius.
        layout: Initial shard layout kind: ``"uniform"`` (the historical
            most-square extent split) or ``"skew"`` (count-balancing kd
            split over the data histogram; see
            :mod:`repro.sharding.layout`).  A skew layout snaps to the
            served default query grid, which keeps that grid
            layout-aligned (the score-tie contract).
        rebalance_threshold: Per-shard p99 imbalance ratio (slowest shard
            p99 over the median shard p99, measured over the controller's
            observation window) above which the background controller
            triggers a skew rebalance.  ``None`` disables the controller;
            :meth:`ShardRouter.rebalance` stays available either way.
            The controller samples every :data:`REBALANCE_INTERVAL_SECONDS`
            and trusts a window of :data:`REBALANCE_MIN_REQUESTS` requests.
    """

    shards: int = 2
    max_radius: Optional[float] = None
    layout: str = "uniform"
    rebalance_threshold: Optional[float] = None


class CacheVersion(NamedTuple):
    """The router result-cache version: swaps and rebalances bump
    ``dataset``, routed write batches bump ``write``; both only grow, so a
    cached response can never outlive the state change that changed its
    answer."""

    dataset: int = 0
    write: int = 0


class ShardTarget(Protocol):
    """One shard as the router core sees it."""

    def query(self, spec: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """Answer one fully resolved spec; None when no replica answered."""

    def swap(self, plan: ShardingPlan, shard_id: int) -> None:
        """Start serving this shard's slice of the router's new snapshot."""

    def apply(self, update: Mapping[str, Sequence]) -> None:
        """Absorb this shard's slice of one validated, routed write batch."""


def _shard_slice(plan: ShardingPlan, shard_id: int) -> Dict[str, object]:
    """``shard_id``'s slice of ``plan`` as shard-service arguments: its data
    and features, the full extent to grid over and its box as the scope
    (empty and unscoped past the plan's end)."""
    if shard_id < len(plan.shards):
        shard = plan.shards[shard_id]
        return dict(
            data_objects=shard.data_objects,
            feature_objects=shard.feature_objects,
            extent=plan.extent,
            scope=shard.box,
        )
    return dict(data_objects=[], feature_objects=[], extent=plan.extent, scope=None)


class LocalShardTarget:
    """A shard served by an in-process :class:`QueryService`; it never reports
    a missing answer (a failing service raises and fails the whole request)."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def query(self, spec: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """The shard service's answer for ``spec``."""
        return self.service.submit(spec)

    def swap(self, plan: ShardingPlan, shard_id: int) -> None:
        """Swap the service onto its slice, gridding over the full extent."""
        self.service.swap_datasets(**_shard_slice(plan, shard_id))

    def apply(self, update: Mapping[str, Sequence]) -> None:
        """Apply the sub-update, unless the batch routed nothing here."""
        if any(update.values()):
            self.service.apply_objects(**update)


class ScatterGatherRouter(FrontDoor):
    """The scatter-gather executor and state-change protocol of a sharded
    front-end, behind the :class:`~repro.server.frontdoor.FrontDoor`
    request lifecycle.

    With the ``submit`` / ``apply_objects`` / ``stats`` its subclasses add
    it duck-types the :class:`QueryService` serving surface, so
    :func:`repro.server.http.make_server` serves a router and a plain
    service interchangeably.  Subclasses fill ``_targets`` with one
    :class:`ShardTarget` per shard and override the ``_on_start`` /
    ``_stop_targets`` / ``_*_targets`` hooks for what their deployment
    mode adds.
    """

    #: Name of the subtree this mode's per-request stats are reported under.
    _stats_key = "sharding"

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        shards: int,
        max_radius: Optional[float],
        result_cache_capacity: int,
        engine_config: Optional[EngineConfig],
        service_config: Optional[ServiceConfig],
        layout: str = "uniform",
    ) -> None:
        """Partition the dataset and build the serving structures.

        Raises:
            ValueError: for a non-positive shard count.
            InvalidQueryError: for a negative ``max_radius``.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._shards = shards
        self._max_radius = max_radius
        self._engine_config = engine_config or EngineConfig()
        self._service_config = service_config or ServiceConfig()
        super().__init__(
            self._service_config.admission_queue_depth,
            self._service_config.default_deadline_ms,
            result_cache_capacity,
        )
        #: Skew layouts snap to this grid; following the served default
        #: query grid keeps the default grid layout-aligned.
        self._layout_resolution = (
            self._service_config.default_grid_size or self._engine_config.grid_size
        )
        #: One per shard, in shard-id order; filled by the subclass.
        self._targets: List[ShardTarget] = []
        #: Router-level mirror of the incremental write stream: the single
        #: atomic validator of a write batch (duplicate oids, extent)
        #: *before* anything is pushed to a shard -- a batch that would
        #: fail on shard 2 after succeeding on shard 1 must be rejected
        #: whole, up front.  Kept incrementally, so a write costs O(batch).
        self._delta = DatasetDelta()
        self._adopt(
            self._partition(data_objects, feature_objects, layout),
            data_objects,
            feature_objects,
        )
        #: One attribute, so a reader takes both components in one step;
        #: replaced only with the gate paused.
        self._version = CacheVersion()
        #: Serializes state changes (swaps, rebalances, writes, resyncs).
        self._swap_lock = threading.Lock()
        self._gate = QuiesceGate()  # over scatter-gathers
        #: One task per shard but the first per in-flight request (threads
        #: spawn lazily).
        self._pool = ThreadPoolExecutor(
            max_workers=min(64, shards * 8),
            thread_name_prefix="repro-scatter",
        )

    def _partition(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        layout: str,
        extent: Optional[BoundingBox] = None,
    ) -> ShardingPlan:
        return partition_datasets(
            data_objects,
            feature_objects,
            self._shards,
            max_radius=self._max_radius,
            extent=extent,
            layout=layout,
            layout_resolution=self._layout_resolution,
        )

    def _adopt(
        self,
        plan: ShardingPlan,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
    ) -> None:
        """Make ``plan`` over this base snapshot the router's current state."""
        self._plan = plan
        self._layout_kind = plan.stats.kind
        #: The base snapshot behind the shards, in storage order; together
        #: with the delta mirror this is the full current dataset in
        #: bulk-swap order (what a rebalance or a node resync materializes).
        self._base_data = list(data_objects)
        self._base_features = list(feature_objects)
        self._base_data_oids = {obj.oid for obj in data_objects}
        self._base_feature_oids = {obj.oid for obj in feature_objects}
        self._defaults = resolve_request_defaults(
            plan.extent, self._engine_config.grid_size, self._service_config
        )
        #: The shards a request scatters to: those owning data objects
        #: (nothing to rank elsewhere).  Data appends extend it.
        self._data_bearing = {s.shard_id for s in plan.shards if not s.is_empty}

    # ------------------------------------------------------------------ #
    # lifecycle

    def _on_start(self) -> None:
        """Start what the targets need and any background thread."""

    def _on_shutdown(self) -> None:
        """Drain in-flight requests, then tear everything down.

        A request that passed the submission check races shutdown; tearing
        the scatter pool down under it would fail an accepted request (the
        close-while-serving race class).  Instead the gate is drained first
        -- accepted requests complete, requests that reach the gate after
        it closed are rejected cleanly -- and only then are the pool and
        whatever the targets own stopped (serialized against a concurrent
        state change via the swap lock).
        """
        self._gate.drain_and_close()
        with self._swap_lock:
            self._pool.shutdown(wait=True)
            self._stop_targets()

    def _stop_targets(self) -> None:
        """Stop what the router owns behind its targets, after the drain."""

    # ------------------------------------------------------------------ #
    # serving (the executor side of the front-door lifecycle)

    def _parse(self, spec: Mapping[str, object]) -> ParsedRequest:
        parsed = parse_query_spec(spec, self._defaults, ALGORITHM_CHOICES)
        validate_algorithm_combination(
            parsed.item.algorithm, parsed.item.score_mode
        )
        max_radius = self._max_radius
        if max_radius is not None and parsed.item.query.radius > max_radius:
            raise InvalidQueryError(
                f"query radius {parsed.item.query.radius} exceeds the shard "
                f"replication radius (max_radius={max_radius}); features "
                "beyond it were not replicated across shard boundaries, so "
                "the shards cannot answer this query exactly"
            )
        return parsed

    def _cache_version(self) -> CacheVersion:
        """``(dataset version, write version)``, read in one step.

        What makes the front door's probe-before-the-gate sound here: an
        entry is only ever stored inside the gate under the pair it was
        computed at, both components only grow, a write bumps its component
        under the paused gate *before* the first target is touched, and
        degraded answers are never stored.
        """
        return self._version

    def _execute(
        self, parsed: ParsedRequest, deadline: Optional[float]
    ) -> Dict[str, object]:
        """One scatter-gather inside the quiesce gate."""
        with self._gate.enter():
            # A state change may have held the gate long enough to blow the
            # request's budget; shedding it here (explicit 429) instead of
            # serving a too-late answer is what "quiesce under overload
            # loses nothing" means -- every request still gets a definite
            # outcome.
            if self._admission.expired_in_queue(deadline):
                raise self._admission.queue_expiry_error()
            version = self._version
            answered, missing = self._scatter(parsed)
            full = self._gather(parsed, answered, missing)
            if not missing:
                # A degraded (partial) answer must never be served to a
                # later healthy request from the cache.
                self._store(parsed, version, full)
            return self._answer(parsed, full)

    def _execute_many(
        self, parsed_list: Sequence[ParsedRequest]
    ) -> Iterator[Dict[str, object]]:
        """Scatter-gather the misses one after another on the calling
        thread; each scatter still fans out across the shards.  Per-batch
        threads bought no overlap: the shards' CPUs are the bottleneck."""
        return map(functools.partial(self._execute, deadline=None), parsed_list)

    def _scatter(
        self, parsed: ParsedRequest
    ) -> Tuple[List[Tuple[int, Dict[str, object]]], List[int]]:
        """Fan out to every data-bearing shard; returns (answered, missing).

        The scattered spec is fully resolved (:func:`~repro.server.protocol.
        resolved_spec`), so the targets' own defaults can never reinterpret
        it, and it always asks for stats: the router caches the
        stats-bearing merged payload (the same trick ``QueryService`` uses)
        and strips on answer.
        """
        spec = resolved_spec(parsed.item)
        shard_ids = sorted(self._data_bearing)
        # The calling thread queries the first shard itself while the pool
        # takes the rest: one thread hand-off fewer per request.
        futures = [
            self._pool.submit(self._targets[s].query, spec)
            for s in shard_ids[1:]
        ]
        outcomes = [self._targets[s].query(spec) for s in shard_ids[:1]]
        outcomes += [future.result() for future in futures]
        answered: List[Tuple[int, Dict[str, object]]] = []
        missing: List[int] = []
        for s, response in zip(shard_ids, outcomes):
            if response is None:
                missing.append(s)
            else:
                answered.append((s, response))
        return answered, missing

    def _gather(
        self,
        parsed: ParsedRequest,
        answered: List[Tuple[int, Dict[str, object]]],
        missing: List[int],
    ) -> Dict[str, object]:
        """Merge per-shard partials into the stats-bearing response payload."""
        partials = [scored_entries(response["results"]) for _, response in answered]
        entries = merge_top_k(partials, parsed.item.query.k)
        stats = self._aggregate_stats(parsed, answered, missing)
        stats_parsed = ParsedRequest(item=parsed.item, include_stats=True)
        payload = result_payload(stats_parsed, QueryResult(entries, stats=stats))
        if missing:
            payload["degraded"] = True
            payload["shards_answered"] = sorted(s for s, _ in answered)
            payload["shards_missing"] = sorted(missing)
            self._bump("degraded_responses")
        return payload

    def _aggregate_stats(
        self,
        parsed: ParsedRequest,
        answered: List[Tuple[int, Dict[str, object]]],
        missing: List[int],
    ) -> Dict[str, object]:
        """Router-level stats tree: sums of shard work, makespan of shard time.

        ``simulated_seconds`` is the *maximum* over shards -- they execute
        in parallel, so the simulated sharded job time is the slowest
        shard's -- while the work counters are sums.  An ``auto`` request
        runs no simulated job, so it reports no ``simulated_seconds``, and
        its ``planned_algorithm`` is the one its shards name, when they
        agree.
        """
        stats: Dict[str, object] = {
            "algorithm": parsed.item.algorithm,
            "grid_size": parsed.item.grid_size,
        }
        summed = (
            "shuffled_records",
            "features_pruned",
            "features_examined",
            "score_computations",
        )
        totals: Dict[str, float] = dict.fromkeys(summed, 0)
        makespan = 0.0
        for _, response in answered:
            shard_stats = response.get("stats", {})
            for name in summed:
                if name in shard_stats:
                    totals[name] += shard_stats[name]
            makespan = max(makespan, shard_stats.get("simulated_seconds", 0.0))
        stats.update(totals)
        if parsed.item.algorithm != AUTO_ALGORITHM:
            stats["simulated_seconds"] = makespan
        stats[self._stats_key] = self._scatter_stats(len(answered), missing)
        planned = {response.get("planned_algorithm") for _, response in answered}
        if len(planned) == 1 and None not in planned:
            stats["planned_algorithm"] = planned.pop()
        return stats

    def _scatter_stats(self, queried: int, missing: List[int]) -> Dict[str, object]:
        """The mode's per-request stats subtree."""
        return {
            "shards_queried": queried,
            "dataset_version": self._version.dataset,
        }

    # ------------------------------------------------------------------ #
    # datasets

    def swap_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
    ) -> Dict[str, object]:
        """Hot-swap the dataset across every shard; returns new snapshot info.

        The two-level quiesce protocol:

        1. the router gate pauses: in-flight scatter-gather requests drain
           (each sees one consistent shard generation), new requests queue
           at the gate instead of failing;
        2. the new dataset is repartitioned over its new extent;
        3. the router dataset version is bumped -- every cached result
           becomes unreachable -- and defaults re-derive from the new
           extent;
        4. every shard target swaps (an in-process shard service's own
           quiesce is trivially idle: all router traffic has drained; a
           remote target pushes the snapshot to its replicas), and the
           gate reopens.

        No request is lost: requests queued at the gate are served from the
        new snapshot once the gate reopens.
        """
        with self._swap_lock:
            self._install_plan_locked(
                data_objects, feature_objects, self._layout_kind
            )
            self._bump("swaps")
        return self.dataset_info()

    def _install_plan_locked(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        layout: str,
        extent: Optional[BoundingBox] = None,
    ) -> ShardingPlan:
        """Repartition + apply a dataset under the quiesce gate (the shared
        tail of a swap and a rebalance; the caller holds ``_swap_lock``).
        The write mirror was relative to the old base, so it is reset."""
        with self._gate.paused():
            plan = self._partition(data_objects, feature_objects, layout, extent)
            self._adopt(plan, data_objects, feature_objects)
            self._delta.reset()
            self._version = self._version._replace(
                dataset=self._version.dataset + 1
            )
            self._cache.invalidate()
            self._swap_targets(plan)
        return plan

    def _swap_targets(self, plan: ShardingPlan) -> None:
        """Hand every target its slice (empty past a shorter plan's end)."""
        for shard_id, target in enumerate(self._targets):
            target.swap(plan, shard_id)

    def dataset_info(self) -> Dict[str, object]:
        """Version and sizes of the current (full) base snapshot."""
        return {
            "version": self._version.dataset,
            "data_objects": len(self._base_data),
            "feature_objects": len(self._base_features),
        }

    # ------------------------------------------------------------------ #
    # incremental ingest (write routing; see docs/ingest.md)

    def _apply_write(
        self,
        append_data: Sequence[DataObject],
        append_features: Sequence[FeatureObject],
        delete_data_oids: Sequence[str],
        delete_feature_oids: Sequence[str],
    ) -> Dict[str, int]:
        """Validate, route and apply one write batch; returns its counts.

        The batch is validated atomically against the write mirror (a batch
        any shard would reject is rejected whole, before any shard sees it
        and without pausing serving), routed, and applied to the targets
        **with the gate paused**: per-shard applies are not atomic across
        shards, and a scatter overlapping them would merge -- and cache --
        one shard's pre-write answer with another's post-write answer, a
        state the dataset was never in.  The write version moves before the
        first target is touched, so even a write that fails half-way leaves
        no pre-write cache entry reachable.
        """
        self._require_serving()
        append_data = list(append_data)
        append_features = list(append_features)
        with self._swap_lock:
            counts = self._delta.apply(
                append_data=append_data,
                append_features=append_features,
                delete_data_oids=delete_data_oids,
                delete_feature_oids=delete_feature_oids,
                base_data_oids=self._base_data_oids,
                base_feature_oids=self._base_feature_oids,
                extent=self._plan.extent,
            )
            updates = self._route_update(
                append_data, append_features,
                list(delete_data_oids), list(delete_feature_oids),
            )
            with self._gate.paused():
                self._version = self._version._replace(
                    write=self._version.write + 1
                )
                self._data_bearing.update(
                    s for s, update in enumerate(updates) if update["append_data"]
                )
                self._apply_targets(updates)
            self._bump("write_batches")
        return counts

    def _route_update(
        self,
        append_data: Sequence[DataObject],
        append_features: Sequence[FeatureObject],
        delete_data_oids: List[str],
        delete_feature_oids: List[str],
    ) -> List[Dict[str, list]]:
        """Slice one validated batch into per-shard sub-updates.

        A data append goes to the one shard whose extent contains it, a
        feature append is replicated to every shard within ``max_radius``
        of it (all shards when unbounded) and deletes are broadcast (shard
        deltas are idempotent, so non-owners simply ignore them).
        """
        layout = self._plan.layout
        assert layout is not None  # partition_datasets always sets it
        max_radius = self._max_radius
        everywhere = range(layout.num_shards)
        updates: List[Dict[str, list]] = [
            {
                "append_data": [],
                "append_features": [],
                "delete_data_oids": delete_data_oids,
                "delete_feature_oids": delete_feature_oids,
            }
            for _ in everywhere
        ]
        for obj in append_data:
            updates[layout.locate(obj.x, obj.y)]["append_data"].append(obj)
        for feature in append_features:
            reach = (
                everywhere
                if max_radius is None
                else layout.shards_within(feature.x, feature.y, max_radius)
            )
            for shard_id in reach:
                updates[shard_id]["append_features"].append(feature)
        return updates

    def _apply_targets(self, updates: List[Dict[str, list]]) -> None:
        """Hand every plan shard's target its sub-update."""
        for target, update in zip(self._targets, updates):
            target.apply(update)

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def plan(self) -> ShardingPlan:
        """The current sharding plan (replaced wholesale by hot swaps)."""
        return self._plan


class ShardRouter(ScatterGatherRouter):
    """Scatter-gather front-end over one in-process :class:`QueryService` per shard."""

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        engine_config: Optional[EngineConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        sharding: Optional[ShardingConfig] = None,
    ) -> None:
        """Partition the dataset and build (but do not start) shard services.

        Per-shard :class:`ServiceConfig` adjustments: the shard services run
        with their result caches disabled (responses are cached once, at the
        router, keyed by the router dataset version) and without admission
        control (the router admits once, at the front).

        Raises:
            ValueError: for a non-positive shard count or engine pool.
            InvalidQueryError: for a negative ``max_radius``.
            JobConfigurationError: for invalid engine configuration.
        """
        self.sharding = sharding or ShardingConfig()
        if self.sharding.layout not in LAYOUT_CHOICES:
            raise ValueError(
                f"unknown layout {self.sharding.layout!r}; "
                f"expected one of {LAYOUT_CHOICES}"
            )
        service_config = service_config or ServiceConfig()
        super().__init__(
            data_objects,
            feature_objects,
            shards=self.sharding.shards,
            max_radius=self.sharding.max_radius,
            result_cache_capacity=service_config.result_cache_capacity,
            engine_config=engine_config,
            service_config=service_config,
            layout=self.sharding.layout,
        )
        # One service per *configured* shard, even when a degenerate
        # layout produced fewer: a later swap or rebalance may grow the
        # plan back, and extra services idle over empty slices until then
        # (the scatter path only targets plan shards).
        self._services: List[QueryService] = [
            QueryService(
                **_shard_slice(self._plan, shard_id),
                engine_config=self._engine_config,
                config=self._shard_service_config(),
            )
            for shard_id in range(self.sharding.shards)
        ]
        self._targets = [LocalShardTarget(s) for s in self._services]
        #: Background imbalance watcher (started only with a threshold).
        self._rebalance_thread: Optional[threading.Thread] = None
        self._last_rebalance_unix: Optional[float] = None
        self._last_observed_imbalance: Optional[float] = None

    def _shard_service_config(self) -> ServiceConfig:
        # Shards disable their result caches (the router caches merged
        # responses) and their admission control (the router admission-
        # gates the front; a shard shedding one leg of a scatter would
        # tear the merged answer).
        return dataclasses.replace(
            self._service_config,
            result_cache_capacity=0,
            admission_queue_depth=0,
            default_deadline_ms=None,
        )

    def _on_start(self) -> None:
        for service in self._services:
            service.start()
        if self.sharding.rebalance_threshold is not None:
            self._rebalance_thread = self._start_background(
                self._run_rebalance_controller, "repro-rebalance"
            )

    def _stop_targets(self) -> None:
        for service in self._services:
            service.shutdown()

    # ------------------------------------------------------------------ #
    # serving + ingest

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Serve one request object; returns its response payload.

        Identical request/response contract to :meth:`QueryService.submit`;
        see :mod:`repro.server.protocol`.  Additionally rejects queries
        whose radius exceeds the configured ``max_radius`` (the shards'
        feature replication cannot answer them exactly).

        Raises:
            InvalidQueryError: for an invalid request or an over-radius one.
            RuntimeError: when the router is not started or already shut
                down.
        """
        return self._serve(self._parse(spec))

    def apply_objects(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Sequence[str] = (),
        delete_feature_oids: Sequence[str] = (),
    ) -> Dict[str, object]:
        """Route one incremental write batch to the owning shards.

        Validated whole against the router's write mirror, routed like
        :func:`~repro.sharding.partition.partition_datasets` would have
        placed the objects, and applied to the shard services with the
        scatter gate briefly paused, so no read can straddle the per-shard
        applies (see :meth:`ScatterGatherRouter._apply_write`).

        Returns:
            The applied counts plus the router delta's size summary.

        Raises:
            DatasetUpdateError: for an invalid batch (no shard is touched).
            RuntimeError: when the router is not started or shut down.
        """
        counts = self._apply_write(
            append_data, append_features, delete_data_oids, delete_feature_oids
        )
        return {**counts, "delta": self._delta.snapshot().counts()}

    def compact(self) -> Dict[str, object]:
        """Fold every shard's delta into its base snapshot now.

        Each shard compacts independently under its own write lock and
        quiesce (the shard extent stays pinned to the full-dataset extent,
        so grids never drift).  Compaction changes no result, so the
        router's cache and write mirror are left untouched -- the mirror
        keeps validating against the same live oid set either way.
        """
        shards = [service.compact() for service in self._services]
        return {
            "compacted": any(info["compacted"] for info in shards),
            "folded_ops": sum(info["folded_ops"] for info in shards),
            "shards": [
                {"shard": shard_id, "compacted": info["compacted"],
                 "folded_ops": info["folded_ops"]}
                for shard_id, info in enumerate(shards)
            ],
        }

    # ------------------------------------------------------------------ #
    # rebalancing (see docs/sharding.md)

    def rebalance(self, layout: str = "skew") -> Dict[str, object]:
        """Re-derive the shard layout from the live data distribution.

        The current dataset -- base snapshot plus delta overlay -- is
        materialized in bulk-swap order (the identity contract's storage
        order), a fresh ``layout`` (skew by default) is derived from its
        per-cell histogram, and the result is applied through the same
        quiesce path as a hot swap, with the extent pinned so the query
        grids never drift.  The dataset *content* is unchanged, so every
        answer after the rebalance is bit-for-bit the answer before it;
        only the per-shard work distribution moves.

        Returns:
            A summary of the new layout: kind, shard count, per-shard data
            share and imbalance ratio.

        Raises:
            ValueError: for an unknown layout kind.
            RuntimeError: when the router is not started or shut down.
        """
        if layout not in LAYOUT_CHOICES:
            raise ValueError(
                f"unknown layout {layout!r}; expected one of {LAYOUT_CHOICES}"
            )
        self._require_serving()
        with self._swap_lock:
            data_objects, feature_objects = materialize(
                self._base_data, self._base_features, self._delta.snapshot()
            )
            plan = self._install_plan_locked(
                data_objects, feature_objects, layout, extent=self._plan.extent
            )
            self._bump("rebalances")
            self._last_rebalance_unix = time.time()
        counts = [len(shard.data_objects) for shard in plan.shards]
        return {
            "layout": plan.stats.kind,
            "shards": plan.stats.num_shards,
            "empty_shards": plan.stats.empty_shards,
            "data_share": self._data_share(counts),
            "imbalance": self._imbalance(counts),
            "dataset": self.dataset_info(),
        }

    @staticmethod
    def _data_share(counts: Sequence[int]) -> List[float]:
        total = sum(counts)
        if not total:
            return [0.0 for _ in counts]
        return [count / total for count in counts]

    @staticmethod
    def _imbalance(counts: Sequence[int]) -> float:
        """Max-over-mean data-count ratio (1.0 = perfectly balanced)."""
        total = sum(counts)
        if not counts or not total:
            return 1.0
        return max(counts) / (total / len(counts))

    # -- the background controller ------------------------------------- #

    def _run_rebalance_controller(self) -> None:
        """Watch per-shard p99 latencies; rebalance on sustained imbalance.

        Every interval the controller snapshots each data-bearing shard's
        latency histogram buckets and computes the *windowed* p99 -- the
        p99 of only the requests served since the previous sample, from
        bucket-count deltas (the histograms themselves are cumulative).
        When the slowest shard's windowed p99 exceeds the median shard's
        by the configured threshold (and the window saw enough requests to
        mean anything), it triggers :meth:`rebalance` and restarts its
        observation window.
        """
        interval = REBALANCE_INTERVAL_SECONDS
        previous: Optional[List[Dict[object, int]]] = None
        while not self._background_stop.wait(interval):
            try:
                current = self._shard_bucket_counts()
                if previous is not None and self._should_rebalance(
                    previous, current
                ):
                    self.rebalance()
                    current = None  # fresh window over the new layout
                previous = current
            except RuntimeError:
                return  # raced shutdown
            except Exception:  # pragma: no cover - keep watching
                previous = None

    def _shard_bucket_counts(self) -> List[Dict[object, int]]:
        """Cumulative latency bucket counts per data-bearing shard."""
        return [
            {
                bucket["le_ms"]: bucket["count"]
                for bucket in self._services[shard_id].stats()["latency"][
                    "buckets"
                ]
            }
            for shard_id in sorted(self._data_bearing)
        ]

    def _should_rebalance(
        self,
        previous: List[Dict[object, int]],
        current: List[Dict[object, int]],
    ) -> bool:
        if len(previous) != len(current):
            return False  # the shard set changed under the window
        windows = [
            self._windowed_p99(before, after)
            for before, after in zip(previous, current)
        ]
        total = sum(count for count, _ in windows)
        p99s = sorted(p99 for count, p99 in windows if count and p99 is not None)
        if total < REBALANCE_MIN_REQUESTS or len(p99s) < 2:
            self._last_observed_imbalance = None
            return False
        # Lower median: for an even shard count the upper-middle element
        # can *be* the slowest shard (2 shards: median == max, ratio
        # pegged at 1.0), which would blind the controller entirely.
        median = p99s[(len(p99s) - 1) // 2]
        imbalance = p99s[-1] / median if median > 0 else 1.0
        self._last_observed_imbalance = imbalance
        threshold = self.sharding.rebalance_threshold
        return threshold is not None and imbalance >= threshold

    @staticmethod
    def _windowed_p99(
        before: Dict[object, int], after: Dict[object, int]
    ) -> Tuple[int, Optional[float]]:
        """(request count, p99 ms) of one window from bucket-count deltas."""

        def bound(le_ms: object) -> float:
            return float("inf") if le_ms == "inf" else float(le_ms)

        deltas = [
            (bound(le_ms), after[le_ms] - before.get(le_ms, 0))
            for le_ms in sorted(after, key=bound)
        ]
        count = sum(delta for _, delta in deltas)
        if count <= 0:
            return (0, None)
        rank = 0.99 * count
        seen = 0
        largest_finite = 0.0
        for le_ms, delta in deltas:
            if le_ms != float("inf"):
                largest_finite = le_ms
            seen += delta
            if seen >= rank:
                # The overflow bucket has no upper bound; report past the
                # last finite one so it still dominates any finite p99.
                return (count, le_ms if le_ms != float("inf")
                        else largest_finite * 2.0)
        return (count, largest_finite * 2.0)  # pragma: no cover - defensive

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def services(self) -> List[QueryService]:
        """The per-shard query services, in shard-id order."""
        return self._services

    def stats(self) -> Dict[str, object]:
        """Aggregate router statistics (the sharded ``GET /stats`` payload).

        The common router tree plus a ``sharding`` subtree, the write
        mirror under ``ingest`` and one slim per-shard entry -- including
        each shard's own latency histogram -- under ``"shards"``.
        """
        counters = self._snapshot_counters()
        sharding = self.sharding
        plan_stats = self._plan.stats
        shard_data_counts = [
            len(shard.data_objects) for shard in self._plan.shards
        ]
        shard_trees: List[Dict[str, object]] = []
        for shard, service in zip(self._plan.shards, self._services):
            shard_stats = service.stats()
            shard_trees.append({
                "shard": shard.shard_id,
                "box": [shard.box.min_x, shard.box.min_y,
                        shard.box.max_x, shard.box.max_y],
                "data_objects": len(shard.data_objects),
                "feature_objects": len(shard.feature_objects),
                "requests": shard_stats["requests"],
                "latency": shard_stats["latency"],
                "batching": {
                    "batches": shard_stats["batching"]["batches"],
                    "mean_batch": shard_stats["batching"]["mean_batch"],
                },
                "index_cache": shard_stats["index_cache"],
                "ingest": {
                    "delta": shard_stats["ingest"]["delta"],
                    "compactions": shard_stats["ingest"]["compactions"],
                },
            })
        return {
            **self._common_stats(counters),
            "sharding": {
                "shards": plan_stats.num_shards,
                "layout": list(plan_stats.layout),
                "layout_kind": plan_stats.kind,
                "max_radius": sharding.max_radius,
                "active_shards": plan_stats.num_shards - plan_stats.empty_shards,
                "empty_shards": plan_stats.empty_shards,
                "feature_replication_factor": plan_stats.replication_factor,
                "grid_aligned_default": self._plan.grid_aligned(
                    self._defaults.grid_size
                ),
                "balance": {
                    "kind": plan_stats.kind,
                    "data_share": self._data_share(shard_data_counts),
                    "imbalance": self._imbalance(shard_data_counts),
                    "rebalances": counters["rebalances"],
                    "last_rebalance_unix": self._last_rebalance_unix,
                    "controller": {
                        "enabled": sharding.rebalance_threshold is not None,
                        "threshold": sharding.rebalance_threshold,
                        "interval_seconds": REBALANCE_INTERVAL_SECONDS,
                        "min_requests": REBALANCE_MIN_REQUESTS,
                        "last_observed_imbalance": self._last_observed_imbalance,
                    },
                },
            },
            "ingest": {
                "delta": self._delta.snapshot().counts(),
                "cumulative": dict(vars(self._delta.counters)),
                "write_batches": counters["write_batches"],
                "compact_threshold": self._service_config.compact_threshold,
            },
            "shards": shard_trees,
        }


__all__ = [
    "LocalShardTarget", "ScatterGatherRouter", "ShardRouter", "ShardTarget",
    "ShardingConfig",
]
