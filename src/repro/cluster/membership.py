"""Cluster membership registry: node liveness, epochs, replica ordering.

One :class:`ClusterMembership` instance is owned by the
:class:`~repro.cluster.router.ClusterRouter` and is the single source of
truth about the fleet: which node serves which shard slice, which nodes are
currently believed alive, and which dataset epoch each node last reported.
Three inputs feed it, all through the same thread-safe accounting:

* **registration** -- every node endpoint is registered once, with its
  shard index and replica rank (the rank fixes the primary/backup order of
  a shard's replicas);
* **heartbeats** -- the router's heartbeat thread probes ``GET /heartbeat``
  on every node and reports success (with the node's self-described
  identity and dataset epoch) or failure here;
* **request outcomes** -- a scatter request that fails against a node
  counts exactly like a missed heartbeat, so a crashed node is usually
  demoted by the very traffic it failed, faster than the next heartbeat
  tick.

Liveness is the classic heartbeat/timeout rule (the HDFS dead-node
criterion at a small scale): a node is marked ``dead`` after
``max_misses`` consecutive failures *or* when nothing has been heard from
it for ``liveness_timeout`` seconds (:meth:`ClusterMembership.sweep`).
One success re-admits it -- rejoin is the same code path as the initial
registration becoming healthy.

A node is **eligible** for routing only when it is alive *and* its last
reported dataset epoch matches the cluster's current epoch: a node that
was dead through a hot swap (or was restarted from a stale boot file)
answers heartbeats again but keeps serving the old snapshot, and routing
to it would silently mix dataset versions.  The router's heartbeat loop
resynchronises such nodes (``POST /datasets`` with the current snapshot)
and eligibility follows automatically once the node reports the new epoch.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Node states reported under ``stats()["cluster"]["nodes"]``.
NODE_ALIVE = "alive"
NODE_SUSPECT = "suspect"
NODE_DEAD = "dead"


@dataclass
class NodeStatus:
    """Mutable per-node record (guarded by the membership lock).

    Attributes:
        url: The node's base URL (``http://host:port``) -- the registry key.
        shard_index: The shard slice this node serves.
        replica_rank: Order among the shard's replicas (0 = primary).
        state: ``alive`` / ``suspect`` / ``dead``.
        node_id: The node's self-reported identity (changes when the
            process restarts; None until the first successful probe).
        dataset_epoch: The dataset epoch the node last reported.
        dataset_version: The node-local swap counter it last reported.
        misses: Consecutive failed probes/requests since the last success.
        last_success_monotonic: ``time.monotonic`` of the last success
            (None before any).
        failovers: Requests this node failed that a replica then answered.
        pushes: Epoch pushes (swaps, writes, resyncs) this node has
            acknowledged; orders a heartbeat reply against them and is not
            part of the ``stats()`` row.
    """

    url: str
    shard_index: int
    replica_rank: int
    state: str = NODE_ALIVE
    node_id: Optional[str] = None
    dataset_epoch: Optional[str] = None
    dataset_version: Optional[int] = None
    misses: int = 0
    last_success_monotonic: Optional[float] = None
    failovers: int = 0
    pushes: int = 0

    def as_dict(self) -> Dict[str, object]:
        """The ``stats()`` row of this node."""
        return {
            "url": self.url,
            "shard": self.shard_index,
            "replica": self.replica_rank,
            "state": self.state,
            "node_id": self.node_id,
            "dataset_epoch": self.dataset_epoch,
            "dataset_version": self.dataset_version,
            "consecutive_misses": self.misses,
            "seconds_since_contact": (
                time.monotonic() - self.last_success_monotonic
                if self.last_success_monotonic is not None
                else None
            ),
            "failovers": self.failovers,
        }


@dataclass
class MembershipConfig:
    """Liveness knobs of one :class:`ClusterMembership`.

    Attributes:
        max_misses: Consecutive failures after which a node is ``dead``
            (the first failure already demotes it to ``suspect``).
        liveness_timeout: Seconds of silence after which :meth:`sweep`
            marks a node ``dead`` even without ``max_misses`` explicit
            failures (covers a hung node that accepts connections but
            never answers its heartbeat in time).
    """

    max_misses: int = 3
    liveness_timeout: float = 6.0


class ClusterMembership:
    """Thread-safe registry of shard-node endpoints and their liveness."""

    def __init__(self, config: Optional[MembershipConfig] = None) -> None:
        """An empty registry; populate with :meth:`register`."""
        self.config = config or MembershipConfig()
        if self.config.max_misses < 1:
            raise ValueError(
                f"max_misses must be >= 1, got {self.config.max_misses}"
            )
        if self.config.liveness_timeout <= 0:
            raise ValueError(
                "liveness_timeout must be > 0, "
                f"got {self.config.liveness_timeout}"
            )
        self._lock = threading.Lock()
        self._nodes: Dict[str, NodeStatus] = {}
        #: Shard index -> node URLs in replica-rank order.
        self._by_shard: Dict[int, List[str]] = {}

    # ------------------------------------------------------------------ #
    # registration

    def register(
        self, url: str, shard_index: int, dataset_epoch: Optional[str] = None
    ) -> NodeStatus:
        """Add one node endpoint; replica rank is assigned in call order.

        Nodes start ``alive`` with the given epoch (the router registers
        endpoints it has just health-checked); the first heartbeat fills in
        the node identity.

        Raises:
            ValueError: when ``url`` is already registered.
        """
        with self._lock:
            if url in self._nodes:
                raise ValueError(f"node {url!r} is already registered")
            rank = len(self._by_shard.get(shard_index, []))
            status = NodeStatus(
                url=url,
                shard_index=shard_index,
                replica_rank=rank,
                dataset_epoch=dataset_epoch,
                last_success_monotonic=time.monotonic(),
            )
            self._nodes[url] = status
            self._by_shard.setdefault(shard_index, []).append(url)
            return status

    # ------------------------------------------------------------------ #
    # accounting

    def mark_success(
        self,
        url: str,
        node_id: Optional[str] = None,
        dataset_epoch: Optional[str] = None,
        dataset_version: Optional[int] = None,
        pushed: bool = False,
        as_of_push: Optional[int] = None,
    ) -> None:
        """Record one successful probe/request: re-admits a dead node.

        ``pushed`` marks the acknowledgement of an epoch push.  A heartbeat
        reply passes, as ``as_of_push``, the :meth:`push_count` read before
        the probe was sent: when a push was acknowledged in between, the
        reply may describe the node as it was *before* that push, so it
        still counts as a sign of life but no longer says which epoch the
        node serves -- the pushed epoch stands (a stale one would get a
        healthy node resynchronised with a full snapshot).
        """
        with self._lock:
            status = self._nodes[url]
            status.state = NODE_ALIVE
            status.misses = 0
            status.last_success_monotonic = time.monotonic()
            if node_id is not None:
                status.node_id = node_id
            if as_of_push is not None and as_of_push != status.pushes:
                return
            if pushed:
                status.pushes += 1
            if dataset_epoch is not None:
                status.dataset_epoch = dataset_epoch
            if dataset_version is not None:
                status.dataset_version = dataset_version

    def push_count(self, url: str) -> int:
        """Epoch pushes ``url`` has acknowledged so far (see :meth:`mark_success`)."""
        with self._lock:
            return self._nodes[url].pushes

    def mark_failure(self, url: str) -> str:
        """Record one failed probe/request; returns the resulting state."""
        with self._lock:
            status = self._nodes[url]
            status.misses += 1
            if status.misses >= self.config.max_misses:
                status.state = NODE_DEAD
            elif status.state == NODE_ALIVE:
                status.state = NODE_SUSPECT
            return status.state

    def record_failover(self, url: str) -> None:
        """Count one request this node failed that a replica answered."""
        with self._lock:
            self._nodes[url].failovers += 1

    def sweep(self) -> List[str]:
        """Apply the liveness timeout; returns URLs newly marked dead."""
        deadline = time.monotonic() - self.config.liveness_timeout
        newly_dead: List[str] = []
        with self._lock:
            for status in self._nodes.values():
                if status.state == NODE_DEAD:
                    continue
                last = status.last_success_monotonic
                if last is not None and last < deadline:
                    status.state = NODE_DEAD
                    newly_dead.append(status.url)
        return newly_dead

    # ------------------------------------------------------------------ #
    # routing views

    def replicas(self, shard_index: int) -> List[NodeStatus]:
        """All replicas of one shard, in replica-rank order (copies)."""
        with self._lock:
            return [
                self._copy(self._nodes[url])
                for url in self._by_shard.get(shard_index, [])
            ]

    def candidates(
        self, shard_index: int, dataset_epoch: Optional[str]
    ) -> List[str]:
        """Routing-eligible node URLs for one shard, primary first.

        Eligible = not ``dead`` and (when an epoch is required) last
        reported exactly that dataset epoch.  ``suspect`` nodes stay
        eligible -- one transient miss must not black-hole a shard that
        has no other replica.
        """
        with self._lock:
            urls = self._by_shard.get(shard_index, [])
            return [
                url
                for url in urls
                if self._nodes[url].state != NODE_DEAD
                and (
                    dataset_epoch is None
                    or self._nodes[url].dataset_epoch == dataset_epoch
                )
            ]

    def stale_nodes(self, dataset_epoch: str) -> List[str]:
        """Non-dead nodes whose last reported epoch is not ``dataset_epoch``."""
        with self._lock:
            return [
                status.url
                for status in self._nodes.values()
                if status.state != NODE_DEAD
                and status.dataset_epoch != dataset_epoch
            ]

    def urls(self) -> List[str]:
        """Every registered node URL, in registration order."""
        with self._lock:
            return list(self._nodes)

    def shard_indexes(self) -> List[int]:
        """Every shard index with at least one registered node, sorted."""
        with self._lock:
            return sorted(self._by_shard)

    def status_of(self, url: str) -> NodeStatus:
        """A copy of one node's status row.

        Raises:
            KeyError: for an unregistered URL.
        """
        with self._lock:
            return self._copy(self._nodes[url])

    def snapshot(self) -> List[Dict[str, object]]:
        """The ``stats()`` rows of every node, in registration order."""
        with self._lock:
            return [status.as_dict() for status in self._nodes.values()]

    def alive_count(self) -> int:
        """Nodes currently not marked dead."""
        with self._lock:
            return sum(
                1 for s in self._nodes.values() if s.state != NODE_DEAD
            )

    @staticmethod
    def _copy(status: NodeStatus) -> NodeStatus:
        return NodeStatus(**vars(status))


__all__ = [
    "ClusterMembership",
    "MembershipConfig",
    "NodeStatus",
    "NODE_ALIVE",
    "NODE_DEAD",
    "NODE_SUSPECT",
]
