"""Tests for cluster mode: membership, node service, router, failover.

The HTTP fleet used here is in-process: every shard node is a real
:class:`ShardNodeService` behind a real :func:`make_server` HTTP server
(bound to **port 0**, so no port is ever guessed), served from a daemon
thread -- real sockets and the real wire protocol, without subprocess
startup cost.  The subprocess path (``repro shard-node``) is covered by
``TestShardNodeProcess`` and, at full depth, by
``benchmarks/bench_cluster.py --check``.
"""

from __future__ import annotations

import marshal
import os
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro
from invariants import child_pids, dataset_memfds, standing_invariants
from raw_oracle import reference_execute
from repro.cluster import (
    BOOT_EPOCH,
    ClusterConfig,
    ClusterMembership,
    ClusterRouter,
    MembershipConfig,
    NodeConfig,
    NodeSpec,
    ShardNodeService,
    spawn_local_nodes,
    terminate_nodes,
)
from repro.cluster import router as cluster_router
from repro.cluster.transport import (
    NodeTransportError,
    close_pooled_connections,
    get_json,
    pool_stats,
    post_json,
    reset_pool_stats,
)
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.exceptions import InvalidQueryError
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig, make_server
from repro.sharding import ShardRouter, ShardingConfig
from test_sharding import assert_batch_misses_on_the_calling_thread

GRID = 10


# --------------------------------------------------------------------- #
# in-process fleet plumbing


class NodeHandle:
    """One in-process shard node: its service, HTTP server, and URL."""

    def __init__(self, node, server):
        self.node = node
        self.server = server
        self.thread = threading.Thread(target=server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    @property
    def port(self) -> int:
        return self.server.port

    def stop_server(self):
        """Stop answering HTTP (the node "crashes") without closing the service."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()

    def restart_server(self, port):
        """Rebind the same node service, e.g. on its old port (a rejoin)."""
        self.server = make_server(self.node, port=port)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self):
        if self.thread.is_alive():
            self.stop_server()
        self.node.shutdown()


def start_node(dataset, shard_index, shards, grid=GRID):
    data, features = dataset
    node = ShardNodeService(
        data,
        features,
        node_config=NodeConfig(shard_index=shard_index, shards=shards),
        engine_config=EngineConfig(grid_size=grid),
        service_config=ServiceConfig(
            engines=1, result_cache_capacity=0, default_grid_size=grid
        ),
    )
    node.start()
    return NodeHandle(node, make_server(node))


class Fleet:
    """A router plus its in-process nodes, cleaned up as one unit."""

    def __init__(self, dataset, shards=2, replication=1, grid=GRID,
                 **cluster_kwargs):
        data, features = dataset
        self.handles = []
        specs = []
        for shard_index in range(shards):
            for _ in range(replication):
                handle = start_node(dataset, shard_index, shards, grid=grid)
                self.handles.append(handle)
                specs.append(NodeSpec(url=handle.url, shard_index=shard_index))
        # Heartbeats are driven explicitly (probe_now) for determinism.
        cluster_kwargs.setdefault("heartbeat_interval", 0)
        cluster_kwargs.setdefault("node_deadline", 5.0)
        self.router = ClusterRouter(
            data,
            features,
            specs,
            cluster=ClusterConfig(shards=shards, **cluster_kwargs),
            engine_config=EngineConfig(grid_size=grid),
            service_config=ServiceConfig(engines=1, default_grid_size=grid),
        )

    def handle(self, shard_index, replica=0):
        matches = [
            handle for handle in self.handles
            if handle.node.node_config.shard_index == shard_index
        ]
        return matches[replica]

    def __enter__(self):
        self.router.start()
        return self

    def __exit__(self, *exc_info):
        self.router.shutdown()
        for handle in self.handles:
            handle.close()


def offline_entries(dataset, spec, grid=GRID):
    """(oid, score) oracle from a fresh unsharded engine for one request."""
    data, features = dataset
    query = SpatialPreferenceQuery.create(
        k=spec.get("k", 10),
        radius=spec["radius"],
        keywords=set(spec["keywords"]),
    )
    with SPQEngine(data, features, config=EngineConfig(grid_size=grid)) as engine:
        result = reference_execute(
            engine, query, algorithm=spec.get("algorithm", "espq-sco"), grid_size=grid
        )
    return [(entry.obj.oid, entry.score) for entry in result]


def response_entries(response):
    return [(entry["oid"], entry["score"]) for entry in response["results"]]


# --------------------------------------------------------------------- #
# membership registry


class TestMembership:
    def test_register_assigns_replica_ranks_per_shard(self):
        membership = ClusterMembership()
        a = membership.register("http://n0", 0)
        b = membership.register("http://n1", 0)
        c = membership.register("http://n2", 1)
        assert (a.replica_rank, b.replica_rank, c.replica_rank) == (0, 1, 0)
        assert membership.shard_indexes() == [0, 1]

    def test_register_rejects_duplicates(self):
        membership = ClusterMembership()
        membership.register("http://n0", 0)
        with pytest.raises(ValueError, match="already registered"):
            membership.register("http://n0", 1)

    def test_failure_path_suspect_then_dead_then_readmitted(self):
        membership = ClusterMembership(MembershipConfig(max_misses=3))
        membership.register("http://n0", 0)
        assert membership.mark_failure("http://n0") == "suspect"
        assert membership.mark_failure("http://n0") == "suspect"
        assert membership.mark_failure("http://n0") == "dead"
        assert membership.candidates(0, None) == []
        membership.mark_success("http://n0", node_id="fresh")
        status = membership.status_of("http://n0")
        assert status.state == "alive"
        assert status.misses == 0
        assert status.node_id == "fresh"
        assert membership.candidates(0, None) == ["http://n0"]

    def test_suspect_nodes_stay_routing_eligible(self):
        membership = ClusterMembership(MembershipConfig(max_misses=3))
        membership.register("http://n0", 0)
        membership.mark_failure("http://n0")
        assert membership.status_of("http://n0").state == "suspect"
        assert membership.candidates(0, None) == ["http://n0"]

    def test_sweep_applies_liveness_timeout(self):
        membership = ClusterMembership(
            MembershipConfig(max_misses=3, liveness_timeout=0.05)
        )
        membership.register("http://n0", 0)
        assert membership.sweep() == []
        time.sleep(0.1)
        assert membership.sweep() == ["http://n0"]
        assert membership.status_of("http://n0").state == "dead"
        # A sweep is idempotent: an already-dead node is not re-reported.
        assert membership.sweep() == []

    def test_candidates_filter_by_epoch(self):
        membership = ClusterMembership()
        membership.register("http://n0", 0, dataset_epoch="v1")
        membership.register("http://n1", 0, dataset_epoch="v2")
        assert membership.candidates(0, "v1") == ["http://n0"]
        assert membership.candidates(0, "v2") == ["http://n1"]
        assert sorted(membership.candidates(0, None)) == [
            "http://n0", "http://n1",
        ]
        assert membership.stale_nodes("v2") == ["http://n0"]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_misses"):
            ClusterMembership(MembershipConfig(max_misses=0))
        with pytest.raises(ValueError, match="liveness_timeout"):
            ClusterMembership(MembershipConfig(liveness_timeout=0))


# --------------------------------------------------------------------- #
# node service


class TestShardNodeService:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_uniform(SyntheticDatasetConfig(num_objects=400, seed=7))

    def test_node_serves_its_slice_with_full_extent_grid(self, dataset):
        data, features = dataset
        nodes = [
            ShardNodeService(
                data, features,
                node_config=NodeConfig(shard_index=i, shards=2),
                engine_config=EngineConfig(grid_size=GRID),
                service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            )
            for i in range(2)
        ]
        slice_sizes = []
        try:
            for node in nodes:
                node.start()
                slice_sizes.append(node.dataset_info()["data_objects"])
            assert sum(slice_sizes) == len(data)
            spec = {"keywords": ["w0001"], "k": 5, "radius": 5.0,
                    "grid_size": GRID}
            partials = [node.submit(spec)["results"] for node in nodes]
            oids = [entry["oid"] for partial in partials for entry in partial]
            assert len(oids) == len(set(oids))  # disjoint slices, no dupes
        finally:
            for node in nodes:
                node.shutdown()

    def test_rejects_out_of_range_shard_index(self, dataset):
        data, features = dataset
        with pytest.raises(ValueError, match="shard_index"):
            ShardNodeService(
                data, features, node_config=NodeConfig(shard_index=2, shards=2)
            )

    def test_heartbeat_payload_and_epoch_swap(self, dataset):
        data, features = dataset
        node = ShardNodeService(
            data, features, node_config=NodeConfig(shard_index=0, shards=2)
        )
        with node:
            beat = node.heartbeat()
            assert beat["status"] == "ok"
            assert beat["shard_index"] == 0
            assert beat["shards"] == 2
            assert beat["dataset_epoch"] == BOOT_EPOCH
            assert beat["dataset_version"] == 0
            assert beat["node_id"] == node.node_id
            info = node.swap_datasets(data, features, epoch="v1")
            assert info["dataset_epoch"] == "v1"
            assert node.heartbeat()["dataset_epoch"] == "v1"
            assert node.heartbeat()["dataset_version"] == 1
            # A swap without an epoch keeps the current tag.
            node.swap_datasets(data, features)
            assert node.dataset_epoch == "v1"

    def test_stats_carry_node_identity_block(self, dataset):
        data, features = dataset
        node = ShardNodeService(
            data, features, node_config=NodeConfig(shard_index=1, shards=2)
        )
        with node:
            block = node.stats()["node"]
        assert block["shard_index"] == 1
        assert block["shards"] == 2
        assert block["node_id"] == node.node_id
        assert block["data_objects"] == node.dataset_info()["data_objects"]


# --------------------------------------------------------------------- #
# router: healthy-fleet identity


class TestClusterIdentity:
    @pytest.mark.parametrize("algorithm", [
        "pspq", "espq-len", "espq-sco", "auto", "centralized",
    ])
    def test_identity_across_algorithms(self, small_uniform_dataset, algorithm):
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0,
                "algorithm": algorithm}
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            assert fleet.router.plan.grid_aligned(GRID)
            got = response_entries(fleet.router.submit(spec))
        assert got == offline_entries(small_uniform_dataset, spec)

    def test_zero_match_query_is_empty_everywhere(self, small_uniform_dataset):
        spec = {"keywords": ["zz-no-such-keyword"], "k": 5, "radius": 2.0}
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            response = fleet.router.submit(spec)
        assert response["results"] == []
        assert "degraded" not in response

    def test_cluster_equals_unsharded_service(self, small_uniform_dataset):
        spec = {"keywords": ["w0005"], "k": 5, "radius": 2.0}
        data, features = small_uniform_dataset
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            clustered = fleet.router.submit(spec)
        service = QueryService(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            config=ServiceConfig(engines=1, default_grid_size=GRID),
        )
        with service:
            unsharded = service.submit(spec)
        for field in ("results", "k", "radius", "keywords", "algorithm",
                      "cached"):
            assert clustered[field] == unsharded[field]

    def test_replicas_answer_identically(self, small_uniform_dataset):
        spec = {"keywords": ["w0003"], "k": 5, "radius": 2.0}
        with Fleet(small_uniform_dataset, shards=2, replication=2) as fleet:
            baseline = response_entries(fleet.router.submit(spec))
            # Kill every rank-0 replica: the rank-1 replicas now answer.
            fleet.handle(0, 0).stop_server()
            fleet.handle(1, 0).stop_server()
            failed_over = response_entries(fleet.router.submit(spec))
        assert failed_over == baseline

    def test_submit_many_preserves_order(self, small_uniform_dataset):
        specs = [
            {"keywords": ["w0001"], "k": 3, "radius": 2.0},
            {"keywords": ["w0002"], "k": 3, "radius": 2.0},
            {"keywords": ["w0003"], "k": 3, "radius": 2.0},
        ]
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            responses = fleet.router.submit_many(specs)
        assert [r["keywords"] for r in responses] == [
            ["w0001"], ["w0002"], ["w0003"],
        ]
        for spec, response in zip(specs, responses):
            assert response_entries(response) == offline_entries(
                small_uniform_dataset, spec
            )

    def test_submit_many_runs_the_misses_on_the_calling_thread(
        self, small_uniform_dataset
    ):
        with Fleet(small_uniform_dataset, shards=2, result_cache_capacity=0) as fleet:
            assert_batch_misses_on_the_calling_thread(fleet.router)

    def test_invalid_requests_rejected_locally(self, small_uniform_dataset):
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            with pytest.raises(InvalidQueryError, match="unknown request field"):
                fleet.router.submit({"keywords": ["w1"], "bogus": 1})
            with pytest.raises(InvalidQueryError, match="unknown algorithm"):
                fleet.router.submit(
                    {"keywords": ["w1"], "algorithm": "quantum"}
                )
            with pytest.raises(InvalidQueryError, match="score mode"):
                fleet.router.submit(
                    {"keywords": ["w1"], "algorithm": "espq-len",
                     "score_mode": "influence"}
                )


# --------------------------------------------------------------------- #
# router: liveness, failover, degraded mode, rejoin


class TestNodeLifecycle:
    def test_missed_heartbeats_mark_node_dead(self, small_uniform_dataset):
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            victim = fleet.handle(1)
            assert fleet.router.probe_now()[victim.url] == "alive"
            victim.stop_server()
            states = [
                fleet.router.probe_now()[victim.url] for _ in range(3)
            ]
        assert states == ["suspect", "suspect", "dead"]

    def test_request_failures_feed_membership_like_heartbeats(
        self, small_uniform_dataset, monkeypatch
    ):
        monkeypatch.setattr(cluster_router, "MAX_MISSES", 2)
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        with Fleet(
            small_uniform_dataset, shards=2, replication=2,
            result_cache_capacity=0,
        ) as fleet:
            victim = fleet.handle(0, 0)
            victim.stop_server()
            fleet.router.submit(spec)
            assert fleet.router.membership.status_of(victim.url).state == (
                "suspect"
            )
            fleet.router.submit(spec)
            assert fleet.router.membership.status_of(victim.url).state == "dead"
            stats = fleet.router.stats()
            assert stats["requests"]["failovers"] == 2
            assert stats["cluster"]["alive_nodes"] == 3

    def test_failover_to_replica_keeps_answers_correct(
        self, small_uniform_dataset
    ):
        spec = {"keywords": ["w0002"], "k": 5, "radius": 2.0}
        expected = offline_entries(small_uniform_dataset, spec)
        with Fleet(small_uniform_dataset, shards=2, replication=2) as fleet:
            fleet.handle(0, 0).stop_server()
            response = fleet.router.submit(spec)
            assert response_entries(response) == expected
            assert "degraded" not in response
            killed = fleet.handle(0, 0).url
            assert fleet.router.membership.status_of(killed).failovers == 1

    def test_degraded_response_shape_without_replicas(
        self, small_uniform_dataset
    ):
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0, "stats": True}
        with Fleet(
            small_uniform_dataset, shards=2, replication=1,
            result_cache_capacity=0,
        ) as fleet:
            healthy = fleet.router.submit(spec)
            assert "degraded" not in healthy
            fleet.handle(1).stop_server()
            degraded = fleet.router.submit(spec)
            assert degraded["degraded"] is True
            assert degraded["shards_answered"] == [0]
            assert degraded["shards_missing"] == [1]
            assert degraded["stats"]["cluster"]["degraded"] is True
            # Partial coverage: every answer comes from the shard that
            # responded (lower-ranked shard-0 objects may backfill the
            # slots the missing shard's objects held -- that is expected).
            shard0 = fleet.handle(0).node
            shard0_oids = {
                obj.oid
                for obj in shard0.plan.shards[0].data_objects
            }
            assert {
                oid for oid, _ in response_entries(degraded)
            } <= shard0_oids

    def test_degraded_responses_are_not_cached(self, small_uniform_dataset):
        spec = {"keywords": ["w0004"], "k": 5, "radius": 2.0}
        with Fleet(small_uniform_dataset, shards=2, replication=1) as fleet:
            fleet.handle(1).stop_server()
            first = fleet.router.submit(spec)
            assert first["degraded"] is True
            assert len(fleet.router._cache) == 0
            # The shard rejoins: the same request must now be computed
            # fresh (a cached degraded answer would be served as healthy).
            port = fleet.handle(1).port
            fleet.handle(1).restart_server(port)
            fleet.router.probe_now()
            healed = fleet.router.submit(spec)
            assert "degraded" not in healed
            assert healed["cached"] is False
            assert response_entries(healed) == offline_entries(
                small_uniform_dataset, spec
            )

    def test_dead_node_rejoins_on_heartbeat(self, small_uniform_dataset, monkeypatch):
        monkeypatch.setattr(cluster_router, "MAX_MISSES", 1)
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            victim = fleet.handle(0)
            port = victim.port
            victim.stop_server()
            assert fleet.router.probe_now()[victim.url] == "dead"
            assert fleet.router.membership.candidates(
                0, fleet.router.dataset_epoch
            ) == []
            victim.restart_server(port)
            assert fleet.router.probe_now()[victim.url] == "alive"
            assert fleet.router.membership.candidates(
                0, fleet.router.dataset_epoch
            ) == [victim.url]
            response = fleet.router.submit(
                {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            )
            assert "degraded" not in response

    def test_rejoined_node_resyncs_missed_swap(self, small_uniform_dataset, monkeypatch):
        """A node dead through a hot swap serves again only after resync."""
        data, features = small_uniform_dataset
        swapped = generate_uniform(
            SyntheticDatasetConfig(num_objects=600, seed=909)
        )
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0}
        monkeypatch.setattr(cluster_router, "MAX_MISSES", 1)
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            victim = fleet.handle(1)
            port = victim.port
            victim.stop_server()
            fleet.router.probe_now()  # marked dead; swap skips it
            fleet.router.swap_datasets(*swapped)
            assert fleet.router.dataset_epoch == "v1"
            degraded = fleet.router.submit(spec)
            assert degraded["degraded"] is True
            victim.restart_server(port)
            # One probe round: success re-admits the node, sees its stale
            # boot epoch, and pushes the current snapshot.
            fleet.router.probe_now()
            status = fleet.router.membership.status_of(victim.url)
            assert status.state == "alive"
            assert status.dataset_epoch == "v1"
            assert victim.node.dataset_epoch == "v1"
            healed = fleet.router.submit(spec)
            assert "degraded" not in healed
            assert response_entries(healed) == offline_entries(swapped, spec)

    def test_batches_and_short_lived_callers_share_node_connections(
        self, small_uniform_dataset
    ):
        """A ``/batch`` call's misses run on its calling thread, and a
        reconnecting client's request threads are short-lived; each queries
        the first shard itself.  They ride the pooled connections, so the
        connections opened are bounded by the requests in flight at once
        (two nodes, well under 8 each), not by the batches or threads
        served."""
        specs = [
            {"keywords": [f"w{word:04d}"], "k": 3, "radius": 2.0}
            for word in range(1, 9)
        ]
        with Fleet(
            small_uniform_dataset, shards=2, result_cache_capacity=0
        ) as fleet:
            reset_pool_stats()
            for _ in range(6):
                fleet.router.submit_many(specs)
            for spec in specs * 2:
                caller = threading.Thread(target=fleet.router.submit, args=(spec,))
                caller.start()
                caller.join()
            stats = pool_stats()
        assert stats["requests"] == 2 * (6 * len(specs) + 2 * len(specs))
        assert stats["opened"] <= 2 * 8
        assert stats["stale_retries"] == 0

    def test_shutdown_closes_every_node_connection(self, small_uniform_dataset):
        """The keep-alive connections of the scatter pool, a batch's and
        the caller's own probes close with the router: this process's fds and
        threads (the nodes' handler threads among them) are back at baseline."""
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        fleet = Fleet(small_uniform_dataset, shards=2)
        try:
            with standing_invariants():
                fleet.router.start()
                fleet.router.submit(spec)
                fleet.router.submit_many([dict(spec, k=k) for k in (4, 5, 6)])
                fleet.router.probe_now()
                fleet.router.shutdown()
        finally:
            fleet.__exit__()


# --------------------------------------------------------------------- #
# router: cluster-wide hot swap


class TestClusterHotSwap:
    def test_swap_bumps_version_epoch_and_invalidates_cache(
        self, small_uniform_dataset
    ):
        swapped = generate_uniform(
            SyntheticDatasetConfig(num_objects=600, seed=404)
        )
        spec = {"keywords": ["w0002"], "k": 5, "radius": 2.0}
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            first = fleet.router.submit(spec)
            assert fleet.router.submit(spec)["cached"] is True
            info = fleet.router.swap_datasets(*swapped)
            assert info["version"] == 1
            assert info["dataset_epoch"] == "v1"
            assert info["data_objects"] == len(swapped[0])
            after = fleet.router.submit(spec)
            assert after["cached"] is False
            assert response_entries(after) == offline_entries(swapped, spec)
            assert response_entries(after) != response_entries(first)
            for handle in fleet.handles:
                assert handle.node.dataset_epoch == "v1"

    def test_swap_quiesces_concurrent_load_without_loss(
        self, small_uniform_dataset
    ):
        swapped = generate_uniform(
            SyntheticDatasetConfig(num_objects=500, seed=505)
        )
        old_oracle = offline_entries(
            small_uniform_dataset, {"keywords": ["w0003"], "k": 5,
                                    "radius": 2.0}
        )
        new_oracle = offline_entries(
            swapped, {"keywords": ["w0003"], "k": 5, "radius": 2.0}
        )
        spec = {"keywords": ["w0003"], "k": 5, "radius": 2.0}
        with Fleet(
            small_uniform_dataset, shards=2, result_cache_capacity=0
        ) as fleet:
            answers = []
            errors = []

            def client():
                try:
                    for _ in range(10):
                        answers.append(
                            response_entries(fleet.router.submit(spec))
                        )
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            fleet.router.swap_datasets(*swapped)
            for thread in threads:
                thread.join()
        assert not errors
        assert len(answers) == 40
        # Every answer is exactly the old or the new oracle -- never a mix.
        assert all(entry in (old_oracle, new_oracle) for entry in answers)


# --------------------------------------------------------------------- #
# the HTTP surface over and under the router


class TestClusterHTTPSurface:
    def test_router_behind_make_server(self, small_uniform_dataset):
        """make_server serves a ClusterRouter exactly like a QueryService."""
        with Fleet(small_uniform_dataset, shards=2) as fleet:
            front = make_server(fleet.router)
            thread = threading.Thread(
                target=front.serve_forever, daemon=True
            )
            thread.start()
            base = f"http://127.0.0.1:{front.port}"
            try:
                response = post_json(
                    f"{base}/query",
                    {"keywords": ["w0001"], "k": 5, "radius": 2.0},
                    timeout=10,
                )
                assert response_entries(response) == offline_entries(
                    small_uniform_dataset,
                    {"keywords": ["w0001"], "k": 5, "radius": 2.0},
                )
                stats = get_json(f"{base}/stats", timeout=10)
                assert stats["cluster"]["shards"] == 2
                assert stats["cluster"]["alive_nodes"] == 2
                # The router itself is not a shard node: no heartbeat.
                with pytest.raises(InvalidQueryError, match="not a cluster"):
                    get_json(f"{base}/heartbeat", timeout=10)
            finally:
                front.shutdown()
                front.server_close()
                thread.join()

    def test_node_http_heartbeat_and_epoch_swap(self, small_uniform_dataset):
        handle = start_node(small_uniform_dataset, 0, 2)
        try:
            beat = get_json(f"{handle.url}/heartbeat", timeout=10)
            assert beat["status"] == "ok"
            assert beat["dataset_epoch"] == BOOT_EPOCH
            data, features = small_uniform_dataset
            payload = {
                "epoch": "v9",
                "data_objects": [
                    {"oid": o.oid, "x": o.x, "y": o.y} for o in data
                ],
                "feature_objects": [
                    {"oid": f.oid, "x": f.x, "y": f.y,
                     "keywords": sorted(f.keywords)}
                    for f in features
                ],
            }
            swap = post_json(f"{handle.url}/datasets", payload, timeout=10)
            assert swap["dataset"]["dataset_epoch"] == "v9"
            assert get_json(
                f"{handle.url}/heartbeat", timeout=10
            )["dataset_epoch"] == "v9"
            bad = dict(payload, epoch="")
            with pytest.raises(InvalidQueryError, match="epoch"):
                post_json(f"{handle.url}/datasets", bad, timeout=10)
        finally:
            handle.close()

    def test_plain_service_has_no_heartbeat_and_rejects_epoch(
        self, small_uniform_dataset
    ):
        data, features = small_uniform_dataset
        service = QueryService(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            config=ServiceConfig(engines=1, default_grid_size=GRID),
        )
        with service:
            server = make_server(service)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            base = f"http://127.0.0.1:{server.port}"
            try:
                with pytest.raises(
                    InvalidQueryError, match="not a cluster shard node"
                ):
                    get_json(f"{base}/heartbeat", timeout=10)
                with pytest.raises(InvalidQueryError, match="unknown field"):
                    post_json(
                        f"{base}/datasets",
                        {"epoch": "v1",
                         "data_objects": [{"oid": "a", "x": 1, "y": 1}],
                         "feature_objects": []},
                        timeout=10,
                    )
            finally:
                server.shutdown()
                server.server_close()
                thread.join()

    def test_transport_error_taxonomy(self):
        with pytest.raises(NodeTransportError):
            get_json("http://127.0.0.1:9/heartbeat", timeout=0.5)


# --------------------------------------------------------------------- #
# the real subprocess path


class TestShardNodeProcess:
    @pytest.fixture(scope="class")
    def dataset_file(self, tmp_path_factory):
        from repro.datagen.io import save_dataset

        data, features = generate_uniform(
            SyntheticDatasetConfig(num_objects=300, seed=11)
        )
        path = tmp_path_factory.mktemp("cluster") / "dataset.tsv"
        save_dataset(path, data, features)
        return path

    def test_spawn_heartbeat_query_terminate(self, dataset_file, tmp_path):
        nodes = spawn_local_nodes(
            dataset_file, shards=2, replication=1,
            grid_size=GRID, engines=1, log_dir=tmp_path,
        )
        try:
            assert len(nodes) == 2
            assert [node.shard_index for node in nodes] == [0, 1]
            beats = [
                get_json(f"{node.url}/heartbeat", timeout=10)
                for node in nodes
            ]
            assert [beat["shard_index"] for beat in beats] == [0, 1]
            assert all(beat["dataset_epoch"] == BOOT_EPOCH for beat in beats)
            assert len({beat["node_id"] for beat in beats}) == 2
            partial = post_json(
                f"{nodes[0].url}/query",
                {"keywords": ["w0001"], "k": 3, "radius": 5.0,
                 "grid_size": GRID},
                timeout=10,
            )
            assert "results" in partial
        finally:
            terminate_nodes(nodes)
        assert all(node.poll() is not None for node in nodes)

    def test_spawn_failure_reports_log_tail(self, tmp_path):
        missing = tmp_path / "no-such-dataset.tsv"
        children = child_pids(os.getpid())
        with pytest.raises(RuntimeError, match="exited with code"):
            spawn_local_nodes(missing, shards=1, log_dir=tmp_path,
                              startup_timeout=30.0)
        assert child_pids(os.getpid()) == children

    def test_one_dead_node_takes_the_whole_launch_down(
        self, dataset_file, tmp_path, monkeypatch
    ):
        """The nodes start side by side: when one dies at startup, every
        launched node is killed and reaped, the dataset memory file is
        closed, and the error carries the dead node's log tail."""
        from repro.cluster import spawn
        from repro.datagen.io import load_dataset

        launched = []
        real_popen = subprocess.Popen

        def popen(command, **kwargs):
            if command[command.index("--shard-index") + 1] == "1":
                command = [sys.executable, "-c",
                           "print('node 1 gives up'); raise SystemExit(3)"]
            launched.append(real_popen(command, **kwargs))
            return launched[-1]

        monkeypatch.setattr(spawn.subprocess, "Popen", popen)
        children = child_pids(os.getpid())
        with pytest.raises(RuntimeError) as raised:
            spawn_local_nodes(
                dataset_file, shards=3, grid_size=GRID, engines=1,
                dataset=load_dataset(dataset_file), log_dir=tmp_path,
            )
        assert "shard node 1 replica 0 exited with code 3" in str(raised.value)
        assert "node 1 gives up" in str(raised.value)
        assert len(launched) == 3
        assert all(process.returncode is not None for process in launched)
        assert child_pids(os.getpid()) == children
        assert dataset_memfds() == []

    @pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="no memfd")
    def test_unreadable_dataset_fd_falls_back_to_the_file(
        self, dataset_file, tmp_path
    ):
        """A node handed a truncated, empty, already-closed or wrong-shaped
        dataset fd warns, loads ``--input`` and answers exactly as the fd
        path does."""
        from repro.cluster.spawn import NodeProcess, _wait_for_ready, publish_dataset
        from repro.datagen.io import load_dataset

        data, features = load_dataset(dataset_file)
        published = publish_dataset(data, features)
        try:
            payload = os.pread(published, os.fstat(published).st_size, 0)
        finally:
            os.close(published)
        # Well-formed marshal, but the data rows alone: no (data, features) pair.
        wrong_shape = marshal.dumps(marshal.loads(payload)[0])
        cases = {"fd": payload, "truncated": payload[: len(payload) // 2],
                 "empty": b"", "closed": None, "wrong-shape": wrong_shape}
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        nodes = []
        try:
            for name, content in cases.items():
                fd = os.memfd_create("repro-dataset")
                os.write(fd, content or b"")
                log_path = tmp_path / f"{name}.log"
                with open(log_path, "wb") as log:
                    process = subprocess.Popen(
                        [sys.executable, "-m", "repro", "shard-node",
                         "--input", str(dataset_file), "--shard-index", "0",
                         "--shards", "2", "--port", "0", "--grid-size",
                         str(GRID), "--engines", "1", "--dataset-fd", str(fd)],
                        stdout=log, stderr=subprocess.STDOUT, env=env,
                        pass_fds=() if content is None else (fd,),
                    )
                os.close(fd)
                nodes.append(NodeProcess(process, "", 0, len(nodes), log_path))
            _wait_for_ready(nodes, timeout=30.0)
            spec = {"keywords": ["w0001", "w0042"], "k": 5, "radius": 5.0,
                    "grid_size": GRID}
            answers = [post_json(f"{node.url}/query", spec, timeout=10)["results"]
                       for node in nodes]
        finally:
            close_pooled_connections()
            terminate_nodes(nodes)
        assert answers[0] and all(answer == answers[0] for answer in answers)
        logs = {name: node.log_path.read_text()
                for name, node in zip(cases, nodes)}
        assert "dataset from inherited fd" in logs["fd"]
        for name in ("truncated", "empty", "closed", "wrong-shape"):
            assert "cannot read the dataset from fd" in logs[name], logs[name]
            assert f"dataset from file {dataset_file}" in logs[name]

    def test_sigkill_then_router_degrades(self, dataset_file, tmp_path):
        """SIGKILL (not graceful stop) of a real process degrades the shard."""
        data_features = None
        from repro.datagen.io import load_dataset

        data_features = load_dataset(dataset_file)
        nodes = spawn_local_nodes(
            dataset_file, shards=2, replication=1,
            grid_size=GRID, engines=1, log_dir=tmp_path,
        )
        router = ClusterRouter(
            data_features[0], data_features[1],
            [NodeSpec(url=n.url, shard_index=n.shard_index) for n in nodes],
            cluster=ClusterConfig(
                shards=2, heartbeat_interval=0, node_deadline=5.0,
                result_cache_capacity=0,
            ),
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
        )
        try:
            router.start()
            spec = {"keywords": ["w0001"], "k": 5, "radius": 5.0}
            healthy = router.submit(spec)
            assert "degraded" not in healthy
            nodes[1].kill()
            nodes[1].wait(timeout=10)
            degraded = router.submit(spec)
            assert degraded["degraded"] is True
            assert degraded["shards_missing"] == [1]
        finally:
            router.shutdown()
            terminate_nodes(nodes)


# --------------------------------------------------------------------- #
# spawn/terminate edge cases


class TestSpawnValidation:
    def test_rejects_bad_counts(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            spawn_local_nodes(tmp_path / "x.tsv", shards=0)
        with pytest.raises(ValueError, match="replication"):
            spawn_local_nodes(tmp_path / "x.tsv", shards=1, replication=0)

    def test_terminate_is_safe_on_empty_fleet(self):
        terminate_nodes([])


# --------------------------------------------------------------------- #
# the front-door contract: one lifecycle, whatever the deployment mode


class TestFrontDoorContract:
    #: Subtrees whose key sets are identical in every mode; ``requests``
    #: and ``dataset`` may carry mode-specific extras on top of these.
    SAME_KEYS = ("latency", "admission", "result_cache", "defaults")
    REQUESTS = {"submitted", "completed", "failed", "result_cache_hits"}
    DATASET = {"version", "data_objects", "feature_objects", "swaps"}

    @pytest.mark.parametrize("mode", ["service", "shards", "cluster"])
    def test_lifecycle_guards_and_common_stats(self, mode, small_uniform_dataset):
        data, features = small_uniform_dataset
        configs = dict(
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
        )
        reference = QueryService(data, features, config=configs["service_config"])
        fleet = None
        if mode == "service":
            door = reference
        elif mode == "shards":
            door = ShardRouter(
                data, features, sharding=ShardingConfig(shards=2), **configs
            )
        else:
            fleet = Fleet(small_uniform_dataset)
            door = fleet.router
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        try:
            with pytest.raises(RuntimeError, match="not started"):
                door.submit(spec)
            assert door.start() is door
            door.start()  # idempotent
            assert door.submit(spec)["cached"] is False
            assert door.submit(spec)["cached"] is True
            stats = door.stats()
            door.shutdown()
            door.shutdown()  # idempotent
            assert door.closed
            for call in (door.submit, lambda s: door.submit_many([s])):
                # Even for a spec the result cache still holds.
                with pytest.raises(RuntimeError, match="shut down"):
                    call(spec)
        finally:
            door.shutdown()
            reference.shutdown()
            if fleet is not None:
                fleet.__exit__()
        expected = reference.stats()
        assert stats["started"] is True and stats["closed"] is False
        assert stats["uptime_seconds"] > 0.0
        assert stats["requests"]["result_cache_hits"] == 1
        assert self.REQUESTS <= set(stats["requests"])
        assert self.DATASET <= set(stats["dataset"])
        for subtree in self.SAME_KEYS:
            assert set(stats[subtree]) == set(expected[subtree]), subtree


def _drain(url):  # pragma: no cover - debugging helper
    return urllib.request.urlopen(url, timeout=5).read()
