"""Scatter-gather over process-isolated shard nodes, with failover.

:class:`ClusterRouter` is the scale-out front door of ``repro serve
--cluster N``: the :class:`~repro.sharding.router.ScatterGatherRouter`
core -- request lifecycle, quiesce gate, swap and write paths -- scattering
to :class:`RemoteShardTarget`, which speaks the existing JSON-over-HTTP
protocol to the *node endpoints* of one shard, each a
:class:`~repro.cluster.node.ShardNodeService` in its own OS process.  What
that buys over the in-process :class:`~repro.sharding.router.ShardRouter`:

* **no single-process ceiling** -- every shard has its own interpreter
  (its own GIL) and its own crash domain;
* **liveness tracking** -- a heartbeat thread probes every node's
  ``GET /heartbeat`` on a fixed cadence; :data:`MAX_MISSES` consecutive
  misses or :data:`LIVENESS_TIMEOUT` seconds of silence mark a node dead,
  one success re-admits it (:mod:`repro.cluster.membership`);
* **failover** -- each scattered sub-request carries a deadline and one
  retry: when the primary replica of a shard fails (connection refused,
  reset, timeout, 5xx), the request is retried on the next live replica of
  the *same extent slice*.  Replicas exist because ``--replication R``
  runs R node processes per shard, each slicing the same snapshot with the
  same Lemma-1 :func:`~repro.sharding.partition.partition_datasets` call,
  so any replica's answer is bit-for-bit any other's;
* **degraded mode** -- when a shard has no live replica at all, the
  response is still returned from the shards that answered, explicitly
  marked ``"degraded": true`` with ``"shards_answered"`` /
  ``"shards_missing"`` listed (and never cached);
* **epochs** -- every swap and every write batch mints a fleet-wide
  dataset epoch that travels with the push and comes back in heartbeats.
  Nodes that were unreachable during a push keep reporting their old epoch
  and are excluded from routing until the heartbeat loop resynchronises
  them with a full snapshot.

``benchmarks/bench_cluster.py --check`` gates healthy-fleet bit-for-bit
identity against the unsharded oracle and zero lost/wrong responses while
a node is SIGKILLed under load with replication >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.membership import (
    NODE_DEAD,
    ClusterMembership,
    MembershipConfig,
)
from repro.cluster.node import BOOT_EPOCH
from repro.cluster.transport import (
    NodeTransportError,
    close_connections,
    get_json,
    post_json,
)
from repro.core.engine import EngineConfig
from repro.exceptions import InvalidQueryError
from repro.index.delta import materialize
from repro.model.objects import DataObject, FeatureObject
# Not called here: ``benchmarks/e2e/trace.py`` patches these names in this
# module's namespace as well as in the router core's.
from repro.model.result import merge_top_k  # noqa: F401
from repro.server.protocol import parse_query_spec, result_payload  # noqa: F401
from repro.server.protocol import dataset_body, objects_body
from repro.server.service import ServiceConfig
from repro.sharding.partition import ShardingPlan
from repro.sharding.router import ScatterGatherRouter

#: Extra attempts per shard after the primary fails (the "one retry"
#: contract; each attempt goes to the next live replica).
FAILOVER_RETRIES = 1
#: Consecutive failures (heartbeats or requests) after which a node is dead.
MAX_MISSES = 3
#: Silence (seconds) after which a node is dead.
LIVENESS_TIMEOUT = 6.0


@dataclass(frozen=True)
class NodeSpec:
    """One node endpoint the router should route to.

    Attributes:
        url: Base URL (``http://host:port``) of a running shard node.
        shard_index: The shard slice that node serves.
    """

    url: str
    shard_index: int


@dataclass
class ClusterConfig:
    """Router-level knobs of one :class:`ClusterRouter`.

    Attributes:
        shards: Shard count of the cluster partitioning (>= 1); must match
            what every node was booted with.
        heartbeat_interval: Seconds between fleet heartbeat rounds
            (0 disables the background thread; probes can still be driven
            explicitly via :meth:`ClusterRouter.probe_now`).
        node_deadline: Per-sub-request socket deadline (seconds).
        result_cache_capacity: Router response LRU entries (0 disables).
    """

    shards: int = 2
    heartbeat_interval: float = 2.0
    node_deadline: float = 10.0
    result_cache_capacity: int = 256


class RemoteShardTarget:
    """One shard's replica set behind ``post_json``.

    Reads fail over across the shard's routing-eligible replicas in
    membership rank order; swaps and writes are pushed to every replica
    that is not dead.  The fleet-wide state (membership, current epoch,
    snapshot) stays on the router.
    """

    def __init__(self, router: "ClusterRouter", shard_index: int) -> None:
        self._router = router
        self._shard_index = shard_index

    def query(self, spec: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """One shard's sub-request: deadline per attempt, failover retries.

        Tries the shard's routing-eligible replicas in replica-rank order,
        at most ``1 + FAILOVER_RETRIES`` attempts.  A transport failure (refused,
        reset, timeout, 5xx) demotes the node in the membership and moves
        on; an application-level 400 is raised to the caller unchanged (a
        replica would reject it identically).  Returns None when no
        eligible replica answered -- the degraded case.
        """
        router = self._router
        membership = router.membership
        candidates = membership.candidates(
            self._shard_index, router.dataset_epoch
        )
        failed: List[str] = []
        for url in candidates[: 1 + FAILOVER_RETRIES]:
            try:
                response = post_json(
                    f"{url}/query", spec, timeout=router.cluster.node_deadline
                )
            except NodeTransportError:
                membership.mark_failure(url)
                failed.append(url)
                continue
            membership.mark_success(url)
            if failed:
                for loser in failed:
                    membership.record_failover(loser)
                router._bump("failovers")
            return response
        return None

    def swap(self, plan: ShardingPlan, shard_id: int) -> None:
        """Push the router's full snapshot: each node slices it locally."""
        self._push_all("datasets", self._router._dataset_body())

    def apply(self, update: Mapping[str, Sequence]) -> None:
        """Push the sub-update -- a pure epoch bump when it is empty, so
        the whole fleet moves epochs together."""
        self._push_all(
            "objects", objects_body(update, self._router.dataset_epoch)
        )

    def _push_all(self, endpoint: str, payload: Mapping[str, object]) -> None:
        router = self._router
        for replica in router.membership.replicas(self._shard_index):
            if replica.state != NODE_DEAD:
                router._push(replica.url, endpoint, payload)


class ClusterRouter(ScatterGatherRouter):
    """HTTP scatter-gather front-end over process-isolated shard nodes."""

    _stats_key = "cluster"

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        nodes: Sequence[NodeSpec],
        cluster: Optional[ClusterConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        """Register the fleet and derive request defaults from the dataset.

        The router holds the full current snapshot -- the boot dataset plus
        the incremental write mirror; it needs it to resync stale nodes and
        to repartition on swaps -- but runs no engine of its own: all query
        work happens on the nodes.

        Args:
            data_objects: The full object dataset the fleet booted with.
            feature_objects: The full feature dataset.
            nodes: One spec per node endpoint; every shard index in
                ``[0, shards)`` should appear at least once (a shard with
                no node can only ever be answered in degraded mode).
            cluster: Cluster knobs (defaults to :class:`ClusterConfig`).
            engine_config: Used only to resolve request defaults (grid
                size) identically to the nodes'.
            service_config: Used for request defaults and admission (the
                router result-cache capacity is ``cluster``'s).

        Raises:
            ValueError: for an empty fleet, a bad shard count, or a node
                spec outside ``[0, shards)``.
        """
        self.cluster = cluster or ClusterConfig()
        if self.cluster.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.cluster.shards}")
        if not nodes:
            raise ValueError("a cluster router needs at least one node")
        for spec in nodes:
            if not 0 <= spec.shard_index < self.cluster.shards:
                raise ValueError(
                    f"node {spec.url!r} serves shard {spec.shard_index}, "
                    f"outside [0, {self.cluster.shards})"
                )
        super().__init__(
            data_objects,
            feature_objects,
            shards=self.cluster.shards,
            result_cache_capacity=self.cluster.result_cache_capacity,
            engine_config=engine_config,
            service_config=service_config,
        )
        self._membership = ClusterMembership(
            MembershipConfig(
                max_misses=MAX_MISSES,
                liveness_timeout=LIVENESS_TIMEOUT,
            )
        )
        for spec in nodes:
            self._membership.register(
                spec.url, spec.shard_index, dataset_epoch=BOOT_EPOCH
            )
        self._epoch = BOOT_EPOCH
        self._targets = [
            RemoteShardTarget(self, shard_index)
            for shard_index in range(self.cluster.shards)
        ]

    # ------------------------------------------------------------------ #
    # heartbeats / membership
    #
    # The node processes are *not* owned by the router (``repro serve
    # --cluster`` owns the subprocesses it spawned; remote nodes are
    # somebody else's): shutting the router down leaves them serving.

    def _on_start(self) -> None:
        # A synchronous first round: node identities and epochs are known
        # before the first request is routed.
        self.probe_now()
        if self.cluster.heartbeat_interval > 0:
            self._start_background(
                self._run_heartbeats, "repro-cluster-heartbeat"
            )

    def _stop_targets(self) -> None:
        # The scatter pool and the heartbeat thread are stopped by now: close
        # their keep-alive connections, and every other thread's to these nodes.
        close_connections(self._membership.urls())

    def _run_heartbeats(self) -> None:
        interval = self.cluster.heartbeat_interval
        while not self._background_stop.wait(interval):
            try:
                self.probe_now()
            except Exception:  # noqa: BLE001 - the loop must survive
                # A probe round never raises by construction; this is the
                # belt-and-braces keeping liveness tracking alive anyway.
                pass

    def probe_now(self) -> Dict[str, str]:
        """One full heartbeat round; returns ``{url: state}`` afterwards.

        Probes every registered node, applies the liveness timeout, and
        resynchronises stale-epoch nodes (alive nodes whose last reported
        dataset epoch is not the router's current one -- they were dead
        through a swap or a write, or restarted from their boot file).
        Called by the heartbeat thread on its cadence, and directly by
        tests/operators for a deterministic round.
        """
        for url in self._membership.urls():
            self._probe_node(url)
        self._membership.sweep()
        self._resync_stale_nodes()
        return {
            row["url"]: row["state"] for row in self._membership.snapshot()
        }

    def _probe_node(self, url: str) -> None:
        # Read before the probe is sent: a push acknowledged while the reply
        # is in flight outranks the epoch the reply carries.
        as_of_push = self._membership.push_count(url)
        try:
            payload = get_json(
                f"{url}/heartbeat", timeout=self.cluster.node_deadline
            )
        except NodeTransportError:
            self._membership.mark_failure(url)
            return
        self._membership.mark_success(
            url,
            node_id=str(payload.get("node_id")),
            dataset_epoch=str(payload.get("dataset_epoch")),
            dataset_version=payload.get("dataset_version"),
            as_of_push=as_of_push,
        )

    def _resync_stale_nodes(self) -> None:
        """Push the current snapshot to alive nodes reporting an old epoch."""
        if not self._membership.stale_nodes(self._epoch):
            return
        with self._swap_lock:
            # Re-check under the lock: a concurrent swap or write may have
            # moved the epoch (and pushed it to these nodes itself).
            stale = self._membership.stale_nodes(self._epoch)
            payload = self._dataset_body() if stale else {}
            for url in stale:
                if self._push(url, "datasets", payload):
                    self._bump("resyncs")

    def _dataset_body(self) -> Dict[str, object]:
        """The inline ``POST /datasets`` body: current snapshot + epoch.

        The one place the full dataset (base + write mirror, in bulk-swap
        order) is materialized -- per swap or resync, never per write.
        """
        return dataset_body(
            *materialize(
                self._base_data, self._base_features, self._delta.snapshot()
            ),
            epoch=self._epoch,
        )

    def _push(
        self, url: str, endpoint: str, payload: Mapping[str, object]
    ) -> bool:
        """POST one epoch-tagged state change to one node; True on success."""
        try:
            post_json(
                f"{url}/{endpoint}", payload, timeout=self.cluster.node_deadline
            )
        except NodeTransportError:
            self._membership.mark_failure(url)
            return False
        except InvalidQueryError:
            # A node that rejects the push (4xx) is misconfigured or has
            # diverged from the router's snapshot, not merely unreachable;
            # its stale epoch keeps it out of routing until a full-snapshot
            # resync succeeds.
            return False
        self._membership.mark_success(
            url, dataset_epoch=payload["epoch"], pushed=True
        )
        return True

    @property
    def membership(self) -> ClusterMembership:
        """The live membership registry (shared with the heartbeat loop)."""
        return self._membership

    @property
    def dataset_epoch(self) -> str:
        """The epoch tag of the snapshot the fleet should be serving."""
        return self._epoch

    # ------------------------------------------------------------------ #
    # serving

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Serve one request object; returns its response payload.

        Identical request/response contract to ``QueryService.submit``
        plus the cluster addition: when one or more shards have no live
        replica the payload carries ``"degraded": true`` with
        ``"shards_answered"`` / ``"shards_missing"`` listed.

        Raises:
            InvalidQueryError: for an invalid request.
            RuntimeError: when the router is not started or already shut
                down.
        """
        return self._serve(self._parse(spec))

    def _scatter_stats(self, queried: int, missing: List[int]) -> Dict[str, object]:
        return {
            **super()._scatter_stats(queried, missing),
            "shards_missing": sorted(missing),
            "degraded": bool(missing),
            "dataset_epoch": self._epoch,
        }

    # ------------------------------------------------------------------ #
    # datasets + incremental ingest (see docs/cluster.md, docs/ingest.md)

    def _swap_targets(self, plan: ShardingPlan) -> None:
        """The cluster extension of the hot swap: mint a new epoch and push
        the full snapshot with it to every non-dead node (each repartitions
        deterministically and swaps its slice under its own quiesce gate).

        A node the push could not reach keeps its old epoch: it is
        excluded from routing (its shard's other replicas answer, or the
        shard goes degraded) until the heartbeat loop resynchronises it.
        """
        self._epoch = f"v{self._version.dataset}"
        super()._swap_targets(plan)

    def _apply_targets(self, updates: List[Dict[str, list]]) -> None:
        """Every write batch mints a fresh epoch and is pushed to **every**
        non-dead node -- nodes the batch routes nothing to get a pure epoch
        bump -- so the whole fleet moves epochs together; a node the push
        cannot reach is handled exactly like one that slept through a swap.
        """
        self._epoch = f"v{self._version.dataset}w{self._version.write}"
        super()._apply_targets(updates)

    def dataset_info(self) -> Dict[str, object]:
        """Version, epoch and sizes of the current (full, live) dataset."""
        delta = self._delta.snapshot()
        return {
            "version": self._version.dataset,
            "dataset_epoch": self._epoch,
            "data_objects": len(self._base_data)
            - len(delta.deleted_data_oids) + len(delta.data),
            "feature_objects": len(self._base_features)
            - len(delta.deleted_feature_oids) + len(delta.features),
        }

    def apply_objects(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Sequence[str] = (),
        delete_feature_oids: Sequence[str] = (),
    ) -> Dict[str, object]:
        """Route one incremental write batch to the whole fleet.

        Validated whole against the router's write mirror (the resync
        source of truth), routed like :func:`~repro.sharding.partition.
        partition_datasets` would have placed the objects, and pushed --
        with a freshly minted epoch -- to the nodes with the scatter gate
        briefly paused, so no read can straddle the per-node applies (see
        :meth:`~repro.sharding.router.ScatterGatherRouter._apply_write`).
        The node-local deltas keep each push tiny next to a snapshot push,
        which is where the incremental win lives.

        Returns:
            The applied counts plus the new epoch and write version.

        Raises:
            DatasetUpdateError: for an invalid batch (no node is touched,
                serving is not paused).
            RuntimeError: when the router is not started or shut down.
        """
        counts = self._apply_write(
            append_data, append_features, delete_data_oids, delete_feature_oids
        )
        counts.pop("delta_version", None)
        return {
            **counts,
            "dataset_epoch": self._epoch,
            "write_version": self._version.write,
        }

    # ------------------------------------------------------------------ #
    # introspection

    def stats(self) -> Dict[str, object]:
        """Aggregate router statistics (the cluster ``GET /stats`` payload).

        Local-only by design: the tree is built from the router's own
        counters and the membership registry -- no node round-trips, so
        ``/stats`` stays cheap and answers even with the fleet down.
        Per-node counter trees live on the nodes' own ``GET /stats``.
        """
        counters = self._snapshot_counters()
        plan_stats = self._plan.stats
        stats = self._common_stats(counters)
        stats["requests"]["failovers"] = counters["failovers"]
        stats["requests"]["degraded_responses"] = counters["degraded_responses"]
        stats["cluster"] = {
            "shards": plan_stats.num_shards,
            "layout": list(plan_stats.layout),
            "nodes": self._membership.snapshot(),
            "alive_nodes": self._membership.alive_count(),
            "dataset_epoch": self._epoch,
            "heartbeat_interval_seconds": self.cluster.heartbeat_interval,
            "liveness_timeout_seconds": self._membership.config.liveness_timeout,
            "max_misses": self._membership.config.max_misses,
            "node_deadline_seconds": self.cluster.node_deadline,
            "retries": FAILOVER_RETRIES,
            "resyncs": counters["resyncs"],
            "feature_replication_factor": plan_stats.replication_factor,
            "grid_aligned_default": self._plan.grid_aligned(
                self._defaults.grid_size
            ),
        }
        stats["ingest"] = {
            "write_batches": counters["write_batches"],
            "write_version": self._version.write,
        }
        return stats


__all__ = ["ClusterConfig", "ClusterRouter", "NodeSpec", "RemoteShardTarget"]
