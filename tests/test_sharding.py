"""Tests for the sharding layer: partitioner, scatter-gather router, hot swap."""

from __future__ import annotations

import json
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raw_oracle import reference_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import InvalidQueryError
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig
from repro.sharding import (
    ShardRouter,
    ShardingConfig,
    partition_datasets,
    shard_layout,
)

GRID = 10


def make_router(dataset, shards=2, grid=GRID, **service_kwargs):
    data, features = dataset
    service_kwargs.setdefault("engines", 1)
    service_kwargs.setdefault("default_grid_size", grid)
    return ShardRouter(
        data,
        features,
        engine_config=EngineConfig(grid_size=grid),
        service_config=ServiceConfig(**service_kwargs),
        sharding=ShardingConfig(shards=shards),
    )


def assert_batch_misses_on_the_calling_thread(router):
    """``submit_many`` of several misses on a started router (its result
    cache must be off) runs each on the calling thread and starts no thread
    beyond the long-lived scatter pool's lazily spawned workers; the answers
    equal per-request ``submit``."""
    specs = [
        {"keywords": [f"w{word:04d}"], "k": 3, "radius": 2.0} for word in range(1, 6)
    ]
    callers, started = [], []
    real_start = threading.Thread.start

    def spying_start(thread):
        started.append(thread.name)
        return real_start(thread)

    single = [router.submit(spec) for spec in specs]
    real_execute = router._execute

    def spying_execute(parsed, deadline):
        callers.append(threading.get_ident())
        return real_execute(parsed, deadline)

    router._execute = spying_execute
    threading.Thread.start = spying_start
    try:
        batch = router.submit_many(specs)
    finally:
        threading.Thread.start = real_start
        del router._execute
    assert callers == [threading.get_ident()] * len(specs)
    assert all(name.startswith("repro-scatter") for name in started), started
    assert batch == single


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
# partitioner


class TestShardLayout:
    @pytest.mark.parametrize("shards, layout", [
        (1, (1, 1)), (2, (2, 1)), (3, (3, 1)), (4, (2, 2)),
        (6, (3, 2)), (8, (4, 2)), (9, (3, 3)), (12, (4, 3)),
    ])
    def test_most_square_factorization(self, shards, layout):
        assert shard_layout(shards) == layout

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_layout(0)


class TestPartitionDatasets:
    def test_data_objects_disjoint_and_complete(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        plan = partition_datasets(data, features, 4)
        seen = [obj.oid for shard in plan.shards for obj in shard.data_objects]
        assert sorted(seen) == sorted(obj.oid for obj in data)
        assert len(seen) == len(set(seen))  # each object in exactly one shard
        assert plan.stats.num_data == len(data)

    def test_data_objects_keep_storage_order_within_shard(
        self, small_uniform_dataset
    ):
        data, features = small_uniform_dataset
        position = {obj.oid: index for index, obj in enumerate(data)}
        plan = partition_datasets(data, features, 4)
        for shard in plan.shards:
            positions = [position[obj.oid] for obj in shard.data_objects]
            assert positions == sorted(positions)

    def test_unbounded_radius_replicates_everywhere(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        plan = partition_datasets(data, features, 3)
        for shard in plan.shards:
            assert len(shard.feature_objects) == len(features)
        assert plan.stats.replication_factor == 3.0

    def test_grid_alignment_rule(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        plan = partition_datasets(data, features, 4)  # 2 x 2
        assert plan.grid_aligned(10)
        assert plan.grid_aligned(50)
        assert not plan.grid_aligned(7)
        plan3 = partition_datasets(data, features, 3)  # 3 x 1
        assert plan3.grid_aligned(9)
        assert not plan3.grid_aligned(10)


# --------------------------------------------------------------------- #
# scatter-gather identity


class TestScatterGatherIdentity:
    @pytest.mark.parametrize("algorithm", [
        "pspq", "espq-len", "espq-sco", "auto", "centralized",
    ])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_identity_across_algorithms_and_shard_counts(
        self, small_uniform_dataset, algorithm, shards
    ):
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0,
                "algorithm": algorithm}
        with make_router(small_uniform_dataset, shards=shards) as router:
            assert router.plan.grid_aligned(GRID)
            got = response_entries(router.submit(spec))
        assert got == offline_entries(small_uniform_dataset, spec)

    def test_identity_on_clustered_data(self, small_clustered_dataset):
        spec = {"keywords": ["w0002", "w0003"], "k": 10, "radius": 3.0}
        with make_router(small_clustered_dataset, shards=4) as router:
            got = response_entries(router.submit(spec))
        assert got == offline_entries(small_clustered_dataset, spec)

    def test_zero_match_query_is_empty_everywhere(self, small_uniform_dataset):
        spec = {"keywords": ["zz-no-such-keyword"], "k": 5, "radius": 2.0}
        with make_router(small_uniform_dataset, shards=4) as router:
            response = router.submit(spec)
        assert response["results"] == []
        assert offline_entries(small_uniform_dataset, spec) == []

    def test_empty_shard_is_skipped_not_queried(self):
        # All data in the left half: the right shard exists but owns nothing.
        data = [DataObject(f"p{i}", 0.5 + 0.1 * i, 0.5) for i in range(5)]
        features = [
            FeatureObject("f1", 0.7, 0.5, frozenset({"w"})),
            FeatureObject("f2", 9.5, 0.5, frozenset({"w"})),
        ]
        extent_anchor = [
            DataObject("p-anchor", 9.9, 0.9),  # stretches the extent right
        ]
        dataset = (data + extent_anchor, features)
        with make_router(dataset, shards=2) as router:
            response = router.submit(
                {"keywords": ["w"], "k": 3, "radius": 0.5, "stats": True}
            )
            queried = response["stats"]["sharding"]["shards_queried"]
        assert queried == 2  # both halves own data here
        # Now drop the right-half anchor: the right shard is empty.
        with make_router((data, features), shards=2) as router:
            stats = router.stats()
            assert stats["sharding"]["empty_shards"] == 1
            assert stats["sharding"]["active_shards"] == 1
            response = router.submit(
                {"keywords": ["w"], "k": 3, "radius": 0.5, "stats": True}
            )
            assert response["results"]
            assert response["stats"]["sharding"]["shards_queried"] == 1

    def test_sharded_equals_unsharded_service(self, small_uniform_dataset):
        """Router responses equal QueryService responses field-for-field."""
        spec = {"keywords": ["w0005"], "k": 5, "radius": 2.0}
        data, features = small_uniform_dataset
        with make_router(small_uniform_dataset, shards=2) as router:
            sharded = router.submit(spec)
        service = QueryService(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            config=ServiceConfig(engines=1, default_grid_size=GRID),
        )
        with service:
            unsharded = service.submit(spec)
        for field in ("results", "k", "radius", "keywords", "algorithm", "cached"):
            assert sharded[field] == unsharded[field]


# --------------------------------------------------------------------- #
# scope: Lemma 1 at shard granularity, applied per query


SCOPE_WORDS = [f"s{i}" for i in range(8)]


def scope_dataset(seed, clustered):
    """~120 data and ~90 feature objects, uniform or around three centres."""
    rng = random.Random(seed)

    def point():
        if not clustered:
            return rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        cx, cy = rng.choice(((20.0, 25.0), (65.0, 70.0), (80.0, 20.0)))
        return (min(max(rng.gauss(cx, 9.0), 0.0), 100.0),
                min(max(rng.gauss(cy, 9.0), 0.0), 100.0))

    def keywords():
        return frozenset(rng.sample(SCOPE_WORDS, rng.randint(1, 3)))

    data = [DataObject(f"d{i}", *point()) for i in range(120)]
    data += [DataObject("d-lo", 0.0, 0.0), DataObject("d-hi", 100.0, 100.0)]
    features = [FeatureObject(f"f{i}", *point(), keywords()) for i in range(90)]
    # One live write batch: appends, tombstones and a replace of each kind
    # (the replaced oids are deleted and re-appended elsewhere).
    batch = {
        "append_data": [DataObject(f"n{i}", *point()) for i in range(4)]
        + [DataObject("d7", *point())],
        "append_features": [
            FeatureObject(f"g{i}", *point(), keywords()) for i in range(6)
        ] + [FeatureObject("f5", *point(), keywords())],
        "delete_data_oids": ["d3", "d7", "d40"],
        "delete_feature_oids": ["f5", "f11", "f60", "f61"],
    }
    return data, features, batch


def within_reach(box, features, radius):
    """The features with ``MINDIST(f, box) <= radius``: what a shard would
    hold had it been partitioned with replication radius ``radius`` (Lemma 1
    at shard granularity), in storage order."""
    return [f for f in features if box.min_distance(f.x, f.y) <= radius]


class TestScopeIdentity:
    """A shard engine holding every feature, scoped to its box, does exactly
    the work of one holding only the features within ``r`` of its box (the
    :func:`within_reach` reference): same answers, every counter in value
    and key order and the same simulated time."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        clustered=st.booleans(),
        shards=st.integers(2, 4),
        radius_cells=st.floats(0.0, 2.0),
    )
    def test_scoped_engine_equals_a_max_radius_partition(
        self, seed, clustered, shards, radius_cells
    ):
        data, features, batch = scope_dataset(seed, clustered)
        plan = partition_datasets(data, features, shards)
        radius = radius_cells * plan.extent.width / GRID
        queries = [
            SpatialPreferenceQuery.create(k=k, radius=radius, keywords=words)
            for k, words in ((5, {"s1"}), (12, {"s2", "s5"}), (3, {"s0", "s3", "s6"}))
        ]
        config = EngineConfig(grid_size=GRID)
        for shard in plan.shards:
            scoped = SPQEngine(
                shard.data_objects, shard.feature_objects, config,
                extent=plan.extent, scope=shard.box,
            )
            reference = SPQEngine(
                shard.data_objects, within_reach(shard.box, features, radius),
                config, extent=plan.extent,
            )
            # Routed as the router routes: a data append to the shard that
            # locates it, a feature append to every shard (to the reference
            # only within reach), deletes to all.
            mine = [obj for obj in batch["append_data"]
                    if plan.locate(obj.x, obj.y) == shard.shard_id]
            deletes = dict(delete_data_oids=batch["delete_data_oids"],
                           delete_feature_oids=batch["delete_feature_oids"])
            scoped.apply_updates(
                append_data=mine, append_features=batch["append_features"],
                **deletes,
            )
            reference.apply_updates(
                append_data=mine,
                append_features=within_reach(
                    shard.box, batch["append_features"], radius
                ),
                **deletes,
            )
            for query in queries:
                for algorithm in ("pspq", "espq-len", "espq-sco", "auto"):
                    got = scoped.execute(query, algorithm=algorithm, grid_size=GRID)
                    want = reference.execute(
                        query, algorithm=algorithm, grid_size=GRID
                    )
                    where = f"shard {shard.shard_id} {algorithm} {query.keywords}"
                    assert [(e.obj.oid, e.score) for e in got] == [
                        (e.obj.oid, e.score) for e in want
                    ], where
                    assert json.dumps(got.stats["counters"]) == json.dumps(
                        want.stats["counters"]
                    ), where
                    # Absent on both sides for ``auto``: no simulated job.
                    assert got.stats.get("simulated_seconds") == (
                        want.stats.get("simulated_seconds")
                    ), where
                    assert got.stats["index"]["candidate_features"] == (
                        want.stats["index"]["candidate_features"]
                    ), where

    def test_out_of_reach_features_are_absent_not_pruned(self):
        """One feature per side of a 2-shard split, radius below the gap:
        each shard maps only its own and counts no pruning for the other."""
        data = [DataObject("a", 1.0, 1.0), DataObject("b", 9.0, 1.0),
                DataObject("c", 10.0, 2.0), DataObject("o", 0.0, 0.0)]
        features = [FeatureObject("fa", 1.5, 1.0, frozenset({"w"})),
                    FeatureObject("fb", 8.5, 1.0, frozenset({"w"})),
                    FeatureObject("fz", 2.0, 1.5, frozenset({"z"}))]
        plan = partition_datasets(data, features, 2)
        query = SpatialPreferenceQuery.create(k=3, radius=1.0, keywords={"w"})
        left, right = (
            SPQEngine(s.data_objects, s.feature_objects, EngineConfig(grid_size=GRID),
                      extent=plan.extent, scope=s.box)
            for s in plan.shards
        )
        got = left.execute(query, algorithm="espq-sco", grid_size=GRID)
        assert got.stats["index"]["candidate_features"] == 1
        assert got.stats["features_pruned"] == 1  # fz: in reach, no keyword
        got = right.execute(query, algorithm="espq-sco", grid_size=GRID)
        assert got.stats["index"]["candidate_features"] == 1
        assert got.stats["features_pruned"] == 0  # fz is out of reach


class TestTieBoundaries:
    """Exact score ties straddling a shard edge (the hard identity case)."""

    @pytest.fixture()
    def tie_dataset(self):
        """Two data objects tied via identical features, one per shard.

        Extent [0,10] x [0,10]; 2 shards split at x = 5; grid 10 is aligned,
        so each tied object sits in its own grid cell on its own side of the
        shard edge.  Both score exactly 1.0 for keyword "tie".
        """
        data = [
            # oid order deliberately *opposite* to spatial order: the merge
            # must pick by (-score, oid), not by shard order.
            DataObject("pB", 4.75, 5.0),   # left shard
            DataObject("pA", 5.25, 5.0),   # right shard
            DataObject("pZ", 0.5, 0.5),    # away from the action, no score
            DataObject("p-anchor", 10.0, 10.0),
        ]
        features = [
            FeatureObject("fL", 4.7, 5.0, frozenset({"tie"})),
            FeatureObject("fR", 5.3, 5.0, frozenset({"tie"})),
            FeatureObject("f-anchor", 0.0, 0.0, frozenset({"other"})),
        ]
        return data, features

    @pytest.mark.parametrize("algorithm", [
        "pspq", "espq-len", "espq-sco", "centralized",
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ties_across_shard_edge_bit_for_bit(self, tie_dataset, algorithm, k):
        spec = {"keywords": ["tie"], "k": k, "radius": 1.0,
                "algorithm": algorithm}
        want = offline_entries(tie_dataset, spec)
        with make_router(tie_dataset, shards=2) as router:
            assert router.plan.grid_aligned(GRID)
            got = response_entries(router.submit(spec))
        assert got == want
        # The tie itself: both tied objects score 1.0 and the oid order wins.
        if k >= 2:
            assert [entry[0] for entry in got[:2]] == ["pA", "pB"]
            assert [entry[1] for entry in got[:2]] == [1.0, 1.0]

    def test_tie_on_the_shard_border_itself(self, tie_dataset):
        """A data object exactly on the shard boundary belongs to one shard."""
        data, features = tie_dataset
        data = data + [DataObject("pM", 5.0, 5.0)]
        features = features + [
            FeatureObject("fM", 5.0, 5.0, frozenset({"tie"}))
        ]
        spec = {"keywords": ["tie"], "k": 3, "radius": 1.0,
                "algorithm": "pspq"}
        want = offline_entries((data, features), spec)
        with make_router((data, features), shards=2) as router:
            got = response_entries(router.submit(spec))
        assert got == want
        assert ("pM", 1.0) in got


# --------------------------------------------------------------------- #
# router behaviour


class TestRouterServing:
    def test_result_cache_hit_and_stats_preserved(self, small_uniform_dataset):
        spec = {"keywords": ["w0006"], "k": 4, "radius": 2.0}
        with make_router(small_uniform_dataset, shards=2) as router:
            first = router.submit(spec)
            second = router.submit(spec)
            with_stats = router.submit({**spec, "stats": True})
            assert first["cached"] is False
            assert second["cached"] is True
            assert second["results"] == first["results"]
            assert with_stats["cached"] is True
            assert "sharding" in with_stats["stats"]
            assert router.stats()["requests"]["result_cache_hits"] == 2

    def test_submit_many_preserves_order_and_validates_up_front(
        self, small_uniform_dataset
    ):
        with make_router(small_uniform_dataset, shards=2) as router:
            specs = [
                {"keywords": [f"w000{i}"], "k": 3, "radius": 2.0}
                for i in (1, 2, 3)
            ]
            responses = router.submit_many(specs)
            assert [r["keywords"] for r in responses] == [
                s["keywords"] for s in specs
            ]
            with pytest.raises(InvalidQueryError):
                router.submit_many([specs[0], {"keywords": []}])

    def test_shutdown_drains_inflight_requests(self, small_uniform_dataset):
        """A request accepted before shutdown completes instead of 500ing."""
        import time

        with make_router(small_uniform_dataset, shards=2) as router:
            original = router.services[0].submit
            entered = threading.Event()

            def slow_submit(spec):
                entered.set()
                time.sleep(0.2)
                return original(spec)

            router.services[0].submit = slow_submit
            results, errors = [], []

            def client():
                try:
                    results.append(router.submit(
                        {"keywords": ["w0001"], "k": 3, "radius": 2.0}
                    ))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            thread = threading.Thread(target=client)
            thread.start()
            assert entered.wait(5.0)  # the request is in flight, mid-scatter
            router.shutdown()
            thread.join()
            assert not errors
            assert results and results[0]["results"] is not None
        with pytest.raises(RuntimeError, match="shut down"):
            router.submit({"keywords": ["w0001"]})

    def test_submit_many_runs_the_misses_on_the_calling_thread(
        self, small_uniform_dataset
    ):
        """A multi-miss batch starts no thread of its own: the misses
        scatter one after another from the caller, and answer as
        per-request submits do."""
        with make_router(
            small_uniform_dataset, shards=2, result_cache_capacity=0
        ) as router:
            assert_batch_misses_on_the_calling_thread(router)

    def test_lifecycle_guards(self, small_uniform_dataset):
        router = make_router(small_uniform_dataset, shards=2)
        with pytest.raises(RuntimeError, match="not started"):
            router.submit({"keywords": ["w0001"]})
        router.start()
        router.shutdown()
        router.shutdown()  # idempotent
        with pytest.raises(RuntimeError, match="shut down"):
            router.submit({"keywords": ["w0001"]})

    def test_invalid_requests_rejected(self, small_uniform_dataset):
        with make_router(small_uniform_dataset, shards=2) as router:
            for spec in (
                {"keywords": []},
                {"keywords": ["w0001"], "k": 0},
                {"keywords": ["w0001"], "algorithm": "bogus"},
                {"keywords": ["w0001"], "keyword": ["typo"]},
            ):
                with pytest.raises(InvalidQueryError):
                    router.submit(spec)

    def test_stats_shape_and_latency_histograms(self, small_uniform_dataset):
        import json as json_module

        with make_router(small_uniform_dataset, shards=2) as router:
            router.submit({"keywords": ["w0001"], "k": 3, "radius": 2.0})
            stats = router.stats()
        assert stats["requests"]["submitted"] == 1
        assert stats["requests"]["completed"] == 1
        assert stats["latency"]["count"] == 1
        assert stats["latency"]["p99_ms"] is not None
        assert stats["sharding"]["shards"] == 2
        assert len(stats["shards"]) == 2
        for shard_tree in stats["shards"]:
            assert "latency" in shard_tree
        assert sum(t["latency"]["count"] for t in stats["shards"]) == 2
        json_module.dumps(stats)  # the /stats payload must be JSON-clean


# --------------------------------------------------------------------- #
# hot swap


class TestHotSwap:
    def test_swap_bumps_version_and_invalidates_cache(
        self, small_uniform_dataset, small_clustered_dataset
    ):
        data_b, features_b = small_clustered_dataset
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        with make_router(small_uniform_dataset, shards=2) as router:
            before = router.submit(spec)
            info = router.swap_datasets(data_b, features_b)
            assert info["version"] == 1
            after = router.submit(spec)
            assert after["cached"] is False
            assert response_entries(after) == offline_entries(
                small_clustered_dataset, spec
            )
            assert response_entries(before) == offline_entries(
                small_uniform_dataset, spec
            )

    def test_swap_rederives_defaults_from_new_extent(self, small_uniform_dataset):
        with make_router(small_uniform_dataset, shards=2) as router:
            old_radius = router.submit({"keywords": ["w0001"], "k": 1})["radius"]
            router.swap_datasets(
                [DataObject("d1", 0.0, 0.0), DataObject("d2", 10_000.0, 10_000.0)],
                [FeatureObject("f1", 5_000.0, 5_000.0, frozenset({"w0001"}))],
            )
            new_radius = router.submit({"keywords": ["w0001"], "k": 1})["radius"]
        assert new_radius == pytest.approx(10_000.0 / GRID * 0.10)
        assert new_radius > old_radius * 50

    def test_hot_swap_under_concurrent_load_loses_nothing(
        self, small_uniform_dataset, small_clustered_dataset
    ):
        """Clients hammer across a swap: no failures, every response valid."""
        data_b, features_b = small_clustered_dataset
        specs = [
            {"keywords": [f"w000{i}"], "k": 3, "radius": 2.0} for i in (1, 2, 3)
        ]
        valid = [
            {
                tuple(offline_entries(small_uniform_dataset, spec)),
                tuple(offline_entries(small_clustered_dataset, spec)),
            }
            for spec in specs
        ]
        errors = []
        invalid = []
        stop = threading.Event()

        with make_router(small_uniform_dataset, shards=2) as router:
            def client(worker):
                turn = 0
                while not stop.is_set():
                    index = (worker + turn) % len(specs)
                    turn += 1
                    try:
                        response = router.submit(specs[index])
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    entries = tuple(
                        (e["oid"], e["score"]) for e in response["results"]
                    )
                    if entries not in valid[index]:
                        invalid.append((specs[index], entries))

            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for _ in range(3):  # several swaps back and forth under load
                router.swap_datasets(data_b, features_b)
                router.swap_datasets(*small_uniform_dataset)
            stop.set()
            for thread in threads:
                thread.join()
            stats = router.stats()

        assert not errors
        assert not invalid
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["completed"] == stats["requests"]["submitted"]
        assert stats["dataset"]["swaps"] == 6


class TestQueryServiceSwap:
    """The unsharded service's quiescing swap (the same machinery one level
    down; the router's per-shard swaps rely on it)."""

    def test_swap_under_concurrent_load_loses_nothing(
        self, small_uniform_dataset, small_clustered_dataset
    ):
        data_a, features_a = small_uniform_dataset
        data_b, features_b = small_clustered_dataset
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        valid = {
            tuple(offline_entries(small_uniform_dataset, spec)),
            tuple(offline_entries(small_clustered_dataset, spec)),
        }
        service = QueryService(
            data_a, features_a,
            engine_config=EngineConfig(grid_size=GRID),
            config=ServiceConfig(engines=2, default_grid_size=GRID),
        )
        errors, invalid = [], []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    response = service.submit(spec)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                entries = tuple(
                    (e["oid"], e["score"]) for e in response["results"]
                )
                if entries not in valid:
                    invalid.append(entries)

        with service:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for _ in range(3):
                service.swap_datasets(data_b, features_b)
                service.swap_datasets(data_a, features_a)
            stop.set()
            for thread in threads:
                thread.join()
            stats = service.stats()

        assert not errors
        assert not invalid
        assert stats["requests"]["failed"] == 0
        assert stats["dataset"]["swaps"] == 6
        assert stats["latency"]["count"] == stats["requests"]["completed"]
