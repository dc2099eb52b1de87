"""A heartbeat reply must not undo an epoch push that overtook it.

``ClusterRouter`` learns a node's epoch from two sources: the push it just
acknowledged and the heartbeat replies it polls.  A reply produced *before*
a push but recorded *after* it used to overwrite the pushed epoch: the node
looked stale, dropped out of routing and got a full-snapshot resync it never
needed (``cluster.resyncs`` on a healthy fleet, ~1 benchmark run in 10).
"""

from __future__ import annotations

import contextlib
import threading

import repro.cluster.router as cluster_router
from repro.cluster import (
    ClusterConfig,
    ClusterMembership,
    ClusterRouter,
    NodeConfig,
    NodeSpec,
    ShardNodeService,
)
from repro.core.engine import EngineConfig
from repro.model.objects import DataObject
from repro.server import ServiceConfig, make_server

GRID = 10


@contextlib.contextmanager
def two_node_fleet(dataset):
    """A started router over two in-process shard nodes behind real HTTP
    servers; heartbeats are driven explicitly (``probe_now``)."""
    data, features = dataset
    engine_config = EngineConfig(grid_size=GRID)
    with contextlib.ExitStack() as stack:
        urls = []
        for shard_index in range(2):
            node = stack.enter_context(ShardNodeService(
                data, features,
                node_config=NodeConfig(shard_index=shard_index, shards=2),
                engine_config=engine_config,
                service_config=ServiceConfig(
                    engines=1, result_cache_capacity=0, default_grid_size=GRID
                ),
            ))
            server = make_server(node)
            stack.callback(server.server_close)
            stack.callback(server.shutdown)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            urls.append(f"http://127.0.0.1:{server.port}")
        router = stack.enter_context(ClusterRouter(
            data, features,
            [NodeSpec(url=url, shard_index=i) for i, url in enumerate(urls)],
            cluster=ClusterConfig(shards=2, heartbeat_interval=0, node_deadline=5.0),
            engine_config=engine_config,
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
        ))
        yield router, urls


def test_heartbeat_reply_that_predates_a_push_keeps_the_node_current(
    small_uniform_dataset, monkeypatch
):
    data, _ = small_uniform_dataset
    with two_node_fleet(small_uniform_dataset) as (router, urls):
        boot_epoch = router.dataset_epoch
        real_get_json = cluster_router.get_json
        raced = []

        def get_json_overtaken_by_a_write(url, **kwargs):
            reply = real_get_json(url, **kwargs)  # the node's pre-push state
            if not raced:
                raced.append(url)
                router.apply_objects(
                    append_data=[DataObject("raced-1", data[0].x, data[0].y)]
                )
            return reply

        monkeypatch.setattr(
            cluster_router, "get_json", get_json_overtaken_by_a_write
        )
        states = router.probe_now()

        assert raced and router.dataset_epoch != boot_epoch
        assert set(states.values()) == {"alive"}
        assert router.stats()["cluster"]["resyncs"] == 0
        for shard_index in range(2):
            assert router.membership.candidates(
                shard_index, router.dataset_epoch
            ) == [urls[shard_index]]
        # The next, un-raced round sees the pushed epoch on every node.
        router.probe_now()
        assert router.membership.stale_nodes(router.dataset_epoch) == []
        assert router.stats()["cluster"]["resyncs"] == 0


def test_push_count_orders_replies_against_pushes():
    membership = ClusterMembership()
    membership.register("http://n", 0, dataset_epoch="boot")
    as_of_push = membership.push_count("http://n")
    membership.mark_success("http://n", dataset_epoch="v0w1", pushed=True)
    # A reply sent before that push: a sign of life, not an epoch report.
    membership.mark_failure("http://n")
    membership.mark_success(
        "http://n", node_id="a", dataset_epoch="boot", as_of_push=as_of_push
    )
    status = membership.status_of("http://n")
    assert (status.state, status.misses, status.node_id) == ("alive", 0, "a")
    assert status.dataset_epoch == "v0w1"
    # A reply sent after it is believed again (e.g. the node restarted).
    membership.mark_success(
        "http://n", dataset_epoch="boot",
        as_of_push=membership.push_count("http://n"),
    )
    assert membership.status_of("http://n").dataset_epoch == "boot"
    assert "pushes" not in membership.snapshot()[0]
