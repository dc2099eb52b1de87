"""One cluster node: a shard-sliced :class:`QueryService` in its own process.

``repro shard-node --shard-index i --shards N`` boots exactly one
:class:`ShardNodeService`: the full dataset file is loaded, partitioned
with the *same* deterministic :func:`~repro.sharding.partition.
partition_datasets` call every other node (and the router) makes, and the
node keeps only shard ``i``'s slice (:meth:`~repro.sharding.partition.
ShardingPlan.shard_slice`) -- data objects disjoint, every feature object,
per query scoped to the shard box (a feature farther than the query's
radius from it is never mapped).  The inner
:class:`~repro.server.service.QueryService` grids over the *full* dataset
extent, so this node's partial answers merge bit-for-bit with its peers'
exactly like in-process shard services do (see ``docs/sharding.md``);
process isolation changes where the service runs, not what it answers.

The node serves the existing JSON-over-HTTP protocol unchanged
(:mod:`repro.server.http` treats it as a drop-in service) plus:

* ``GET /heartbeat`` -- the liveness/identity probe the router polls:
  node id (fresh per process, so a restart is visible), shard index,
  dataset epoch and version, uptime;
* ``POST /datasets`` -- receives the **full** dataset (path or inline)
  with an optional ``"epoch"`` tag, repartitions it locally and swaps in
  its own shard's slice under the inner service's quiesce gate, so a
  cluster-wide hot swap is N independent node-local swaps that all slice
  the same snapshot the same way.

The *dataset epoch* is an opaque router-assigned tag ("boot" until the
first swap).  It exists because node-local version counters cannot detect
a node that restarted from a stale boot file or slept through a swap; the
epoch travels with every swap and comes back in every heartbeat, and the
router only routes to nodes reporting the current one.
"""

from __future__ import annotations

import os
import threading
import uuid
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.engine import EngineConfig
from repro.model.objects import DataObject, FeatureObject
from repro.server.service import QueryService, ServiceConfig
from repro.sharding.partition import ShardingPlan, partition_datasets

#: The epoch every node boots with (before any router-driven swap).
BOOT_EPOCH = "boot"


@dataclass
class NodeConfig:
    """Identity and partitioning knobs of one :class:`ShardNodeService`.

    Attributes:
        shard_index: Which shard slice this node serves (0-based).
        shards: Total shard count of the cluster partitioning.
        dataset_epoch: The epoch tag of the boot dataset.
    """

    shard_index: int = 0
    shards: int = 1
    dataset_epoch: str = BOOT_EPOCH


class ShardNodeService:
    """One shard's slice of the dataset behind the service HTTP surface.

    Duck-types :class:`QueryService` for :func:`repro.server.http.
    make_server` (``submit``, ``submit_many``, ``stats``,
    ``uptime_seconds``, ``swap_datasets``, ``dataset_info``, lifecycle)
    and adds :meth:`heartbeat`, which is what makes the HTTP front-end
    expose ``GET /heartbeat``.
    """

    #: Tells the HTTP ``/datasets`` handler this service accepts the
    #: optional ``"epoch"`` body field (plain services do not).
    accepts_dataset_epoch = True

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        node_config: Optional[NodeConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        """Partition the full dataset and build this node's shard service.

        Args:
            data_objects: The **full** object dataset ``O`` (the node
                slices it itself; every node slicing the same snapshot
                deterministically is what keeps the fleet consistent).
            feature_objects: The full feature dataset ``F``.
            node_config: Shard identity and partitioning knobs.
            engine_config: Engine knobs of the inner service's pool.
            service_config: Service knobs; the result cache defaults stay
                as given (the router disables its nodes' caches the same
                way the in-process shard router does, via its own config).

        Raises:
            ValueError: for an out-of-range shard index or bad pool size.
        """
        self.node_config = node_config or NodeConfig()
        if not 0 <= self.node_config.shard_index < self.node_config.shards:
            raise ValueError(
                f"shard_index must be in [0, {self.node_config.shards}), "
                f"got {self.node_config.shard_index}"
            )
        #: Stable for the process: a fresh UUID plus the PID, so a
        #: restarted process is distinguishable.
        self.node_id = f"node-{uuid.uuid4().hex[:8]}-pid{os.getpid()}"
        self._engine_config = engine_config or EngineConfig()
        self._service_config = service_config or ServiceConfig()
        self._epoch_lock = threading.Lock()
        self._dataset_epoch = self.node_config.dataset_epoch
        self._plan = partition_datasets(
            data_objects, feature_objects, self.node_config.shards
        )
        self._service = QueryService(
            **self._plan.shard_slice(self.node_config.shard_index),
            engine_config=self._engine_config,
            config=self._service_config,
        )

    # ------------------------------------------------------------------ #
    # lifecycle (delegated)

    def start(self) -> "ShardNodeService":
        """Start the inner shard service (idempotent)."""
        self._service.start()
        return self

    def shutdown(self) -> None:
        """Shut the inner shard service down (idempotent)."""
        self._service.shutdown()

    def __enter__(self) -> "ShardNodeService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has been called."""
        return self._service.closed

    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before it); lock-free."""
        return self._service.uptime_seconds()

    # ------------------------------------------------------------------ #
    # serving (delegated -- the node answers for its slice only)

    def submit(self, spec: Mapping[str, object]) -> Dict[str, object]:
        """Serve one request object against this node's shard slice."""
        return self._service.submit(spec)

    def submit_many(
        self, specs: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Serve a batch of request objects against this node's slice."""
        return self._service.submit_many(specs)

    # ------------------------------------------------------------------ #
    # datasets

    def swap_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        epoch: Optional[str] = None,
    ) -> Dict[str, object]:
        """Hot-swap from a **full** dataset snapshot: repartition, slice, swap.

        The inner service's quiesce gate makes the slice swap atomic with
        respect to serving; the epoch tag (when given) becomes visible to
        heartbeats only after the swap succeeded, so the router can never
        see the new epoch on a node still serving the old slice.
        """
        plan = partition_datasets(
            data_objects, feature_objects, self.node_config.shards
        )
        info = self._service.swap_datasets(
            **plan.shard_slice(self.node_config.shard_index)
        )
        self._plan = plan
        if epoch is not None:
            with self._epoch_lock:
                self._dataset_epoch = epoch
        info["dataset_epoch"] = self.dataset_epoch
        return info

    def apply_objects(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Sequence[str] = (),
        delete_feature_oids: Sequence[str] = (),
        epoch: Optional[str] = None,
    ) -> Dict[str, object]:
        """Absorb one router-routed write batch into this node's delta.

        The router already sliced the batch for this shard (data appends
        belonging to the slice, feature appends replicated by the Lemma-1
        rule, deletes broadcast -- idempotent when this node holds no such
        oid), so the inner service applies it as-is.  An *empty* batch with
        an epoch is a pure epoch bump: every write batch mints a fresh
        cluster epoch and is pushed to every live node so none of them
        looks stale afterwards.  The epoch only becomes visible after the
        update landed -- a node that failed the write keeps its old epoch
        and is resynchronised with a full snapshot by the heartbeat loop.
        """
        info: Dict[str, object] = {}
        if append_data or append_features or delete_data_oids or (
            delete_feature_oids
        ):
            info = self._service.apply_objects(
                append_data=append_data,
                append_features=append_features,
                delete_data_oids=delete_data_oids,
                delete_feature_oids=delete_feature_oids,
            )
        if epoch is not None:
            with self._epoch_lock:
                self._dataset_epoch = epoch
        info["dataset_epoch"] = self.dataset_epoch
        return info

    def compact(self) -> Dict[str, object]:
        """Fold this node's delta into its base slice (epoch unchanged).

        Node-local compaction changes no answer and no logical dataset
        state, so the cluster epoch deliberately stays as-is; only the
        node-local dataset version (visible in heartbeats) moves.
        """
        info = self._service.compact()
        info["dataset_epoch"] = self.dataset_epoch
        return info

    def dataset_info(self) -> Dict[str, object]:
        """Version and sizes of this node's current shard slice."""
        info = self._service.dataset_info()
        info["dataset_epoch"] = self.dataset_epoch
        return info

    @property
    def dataset_epoch(self) -> str:
        """The router-assigned epoch of the snapshot this node serves."""
        with self._epoch_lock:
            return self._dataset_epoch

    # ------------------------------------------------------------------ #
    # introspection

    def heartbeat(self) -> Dict[str, object]:
        """The ``GET /heartbeat`` payload: identity, epoch, liveness.

        Deliberately cheap (no counter-tree walk): the router polls this
        every couple of seconds for the whole fleet.
        """
        return {
            "status": "ok",
            "node_id": self.node_id,
            "shard_index": self.node_config.shard_index,
            "shards": self.node_config.shards,
            "dataset_epoch": self.dataset_epoch,
            "dataset_version": self._service.dataset_info()["version"],
            "uptime_seconds": self.uptime_seconds(),
        }

    def stats(self) -> Dict[str, object]:
        """The inner service's counter tree plus a ``node`` identity block."""
        stats = self._service.stats()
        shard = self._plan.shards[self.node_config.shard_index]
        stats["node"] = {
            "node_id": self.node_id,
            "shard_index": self.node_config.shard_index,
            "shards": self.node_config.shards,
            "dataset_epoch": self.dataset_epoch,
            "box": [
                shard.box.min_x, shard.box.min_y,
                shard.box.max_x, shard.box.max_y,
            ],
            "data_objects": len(shard.data_objects),
            "feature_objects": len(shard.feature_objects),
        }
        return stats

    @property
    def admission(self):
        """The inner service's admission controller (disabled by default).

        Forwarded so the HTTP front-end's duck-typed fast-shed probe works
        on a node configured with its own admission queue; a cluster-
        spawned fleet leaves it disabled and admission-gates at the router.
        """
        return self._service.admission

    @property
    def plan(self) -> ShardingPlan:
        """The partitioning plan this node last sliced (full-fleet view)."""
        return self._plan

    @property
    def service(self) -> QueryService:
        """The inner per-shard query service."""
        return self._service


__all__ = ["BOOT_EPOCH", "NodeConfig", "ShardNodeService"]
