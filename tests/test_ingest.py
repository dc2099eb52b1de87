"""Tests for streaming ingest: delta overlay, base+delta queries, compaction.

The identity contract under test everywhere: a query served after N
incremental ``apply_objects`` batches is **bit-for-bit identical** (ids and
scores, ties included) to the same query served after one bulk swap of the
final dataset state -- with the extent pinned, because incremental appends
must stay inside the served extent while a client-driven full swap may
widen it (``docs/ingest.md``).

Also hosts the regression tests of the hot-path bugfix sweep that shipped
with the delta layer: the ``feature_cells`` radius-cache init race, the
result-cache copy moved off the critical section, and the histogram bucket
lookup's bisect/linear-scan parity.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from raw_oracle import padded, raw_execute, reference_execute, zero_score_padding
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import DatasetUpdateError
from repro.index.delta import DatasetDelta, materialize
from repro.index.dataset_index import DatasetIndex
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig, make_server
from repro.server.cache import ResultCache
from repro.server.metrics import BUCKET_BOUNDS_SECONDS, LatencyHistogram
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner

GRID = 8
ALGORITHMS = ("pspq", "espq-len", "espq-sco")


# --------------------------------------------------------------------- #
# fixture dataset: deterministic, inside a known extent


def make_dataset(num_data=80, num_features=120, seed=7):
    import random

    rng = random.Random(seed)
    words = ["cafe", "bar", "museum", "park", "pier"]
    data = [
        DataObject(oid=f"d{i}", x=rng.uniform(10, 90), y=rng.uniform(10, 90))
        for i in range(num_data)
    ]
    features = [
        FeatureObject(
            oid=f"f{i}",
            x=rng.uniform(10, 90),
            y=rng.uniform(10, 90),
            keywords=frozenset(rng.sample(words, 2)),
        )
        for i in range(num_features)
    ]
    return data, features


def make_appends(count, prefix, seed=11):
    import random

    rng = random.Random(seed)
    words = ["cafe", "bar", "museum", "park", "pier"]
    data = [
        DataObject(
            oid=f"{prefix}d{i}", x=rng.uniform(15, 85), y=rng.uniform(15, 85)
        )
        for i in range(count)
    ]
    features = [
        FeatureObject(
            oid=f"{prefix}f{i}",
            x=rng.uniform(15, 85),
            y=rng.uniform(15, 85),
            keywords=frozenset(rng.sample(words, 2)),
        )
        for i in range(count)
    ]
    return data, features


QUERIES = [
    SpatialPreferenceQuery.create(k=k, radius=radius, keywords=keywords)
    for k, radius, keywords in (
        (5, 8.0, {"cafe"}),
        (10, 15.0, {"bar", "museum"}),
        (3, 4.0, {"park", "pier", "cafe"}),
        (40, 25.0, {"museum"}),
    )
]


def fingerprint(result):
    return tuple((e.obj.oid, e.score) for e in result.entries)


def payload_fingerprint(payload):
    return tuple((e["oid"], e["score"]) for e in payload["results"])


# --------------------------------------------------------------------- #
# delta overlay semantics


class TestDatasetDelta:
    def test_apply_and_snapshot_isolation(self):
        delta = DatasetDelta()
        before = delta.snapshot()
        counts = delta.apply(
            append_data=[DataObject(oid="a", x=1.0, y=1.0)],
            delete_feature_oids=["f1"],
            base_feature_oids={"f1", "f2"},
        )
        assert counts["data_appended"] == 1
        assert counts["features_deleted"] == 1
        assert before.is_empty  # the pinned snapshot never mutates
        after = delta.snapshot()
        assert [obj.oid for obj in after.data] == ["a"]
        assert after.deleted_feature_oids == {"f1"}
        assert after.version > before.version

    def test_delete_then_append_replaces_atomically(self):
        delta = DatasetDelta()
        delta.apply(
            append_data=[DataObject(oid="a", x=1.0, y=1.0)],
            base_data_oids=set(),
        )
        # One batch: delete the live oid and re-append it elsewhere.
        delta.apply(
            append_data=[DataObject(oid="a", x=2.0, y=2.0)],
            delete_data_oids=["a"],
            base_data_oids=set(),
        )
        snap = delta.snapshot()
        assert [(obj.oid, obj.x) for obj in snap.data] == [("a", 2.0)]
        assert not snap.deleted_data_oids  # un-append, not a tombstone

    def test_delete_of_appended_object_unappends(self):
        delta = DatasetDelta()
        delta.apply(
            append_data=[DataObject(oid="a", x=1.0, y=1.0)],
            base_data_oids=set(),
        )
        delta.apply(delete_data_oids=["a"], base_data_oids=set())
        snap = delta.snapshot()
        assert not snap.data and not snap.deleted_data_oids
        assert snap.num_ops == 0

    def test_deletes_idempotent(self):
        delta = DatasetDelta()
        for _ in range(3):
            counts = delta.apply(
                delete_data_oids=["d1", "ghost"], base_data_oids={"d1"}
            )
        assert counts["data_deleted"] == 0  # only the first delete counted
        assert delta.snapshot().deleted_data_oids == {"d1"}

    def test_duplicate_append_rejects_whole_batch(self):
        delta = DatasetDelta()
        with pytest.raises(DatasetUpdateError, match="already live"):
            delta.apply(
                append_data=[
                    DataObject(oid="new", x=1.0, y=1.0),
                    DataObject(oid="d1", x=2.0, y=2.0),
                ],
                base_data_oids={"d1"},
            )
        assert delta.snapshot().is_empty  # no partial state

    def test_out_of_extent_append_rejected(self):
        delta = DatasetDelta()
        extent = BoundingBox(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(DatasetUpdateError, match="outside the served extent"):
            delta.apply(
                append_data=[DataObject(oid="far", x=50.0, y=1.0)],
                base_data_oids=set(),
                extent=extent,
            )

    def test_reset_bumps_version(self):
        delta = DatasetDelta()
        delta.apply(append_data=[DataObject(oid="a", x=1.0, y=1.0)])
        held = delta.snapshot().version
        dropped = delta.reset()
        assert dropped.version == held
        assert delta.snapshot().is_empty
        assert delta.snapshot().version > held  # caches cannot alias

    def test_materialize_preserves_bulk_swap_order(self):
        base_data = [DataObject(oid=f"d{i}", x=float(i), y=0.0) for i in range(4)]
        delta = DatasetDelta()
        delta.apply(
            append_data=[DataObject(oid="n1", x=9.0, y=9.0)],
            delete_data_oids=["d2"],
            base_data_oids={obj.oid for obj in base_data},
        )
        data, features = materialize(base_data, [], delta.snapshot())
        assert [obj.oid for obj in data] == ["d0", "d1", "d3", "n1"]
        assert features == []


# --------------------------------------------------------------------- #
# engine: base+delta execution vs bulk-swap oracle


class TestEngineDeltaIdentity:
    @pytest.fixture()
    def base(self):
        return make_dataset()

    def _oracle(self, data, features, extent):
        return SPQEngine(
            data, features, EngineConfig(grid_size=GRID), extent=extent
        )

    def test_incremental_equals_bulk_swap(self, base):
        data, features = base
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            extent = engine.extent
            new_data, new_features = make_appends(10, "n")
            engine.apply_updates(append_data=new_data[:5])
            engine.apply_updates(
                append_features=new_features,
                delete_data_oids=[data[3].oid, data[7].oid],
            )
            engine.apply_updates(
                append_data=new_data[5:], delete_feature_oids=[features[0].oid]
            )
            final_data, final_features = engine.materialize_datasets()
            with self._oracle(final_data, final_features, extent) as oracle:
                for query in QUERIES:
                    for algorithm in ALGORITHMS:
                        got = engine.execute(
                            query, algorithm=algorithm, grid_size=GRID
                        )
                        want = raw_execute(
                            oracle, query, algorithm=algorithm, grid_size=GRID
                        )
                        assert fingerprint(got) == fingerprint(want), (
                            f"{algorithm} diverged from bulk swap"
                        )

    def test_reappended_feature_shuffles_its_new_size(self, base):
        """Delete a feature, re-append its oid with other keywords: the
        delta path shuffles the bytes a bulk swap does, for every job class.

        The base rows are sized by the index's column and appended rows by
        the objects themselves; an oid-keyed memo filled while the old
        object was served would size the new one by the old keywords.
        """
        data, features = base
        query = QUERIES[1]
        old = next(f for f in features if "bar" in f.keywords)
        new = FeatureObject(old.oid, old.x, old.y, (*old.keywords, "pier"))
        assert len(new.keywords) > len(old.keywords)
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            extent = engine.extent
            for algorithm in ALGORITHMS:
                engine.execute(query, algorithm=algorithm, grid_size=GRID)
            engine.apply_updates(delete_feature_oids=[old.oid], append_features=[new])
            final_data, final_features = engine.materialize_datasets()
            with self._oracle(final_data, final_features, extent) as oracle:
                for algorithm in ALGORITHMS:
                    got = engine.execute(query, algorithm=algorithm, grid_size=GRID)
                    want = oracle.execute(query, algorithm=algorithm, grid_size=GRID)
                    assert fingerprint(got) == fingerprint(want), algorithm
                    assert got.stats["shuffled_bytes"] == want.stats["shuffled_bytes"], (
                        algorithm
                    )
                    assert got.stats["counters"]["shuffle"] == (
                        want.stats["counters"]["shuffle"]
                    ), algorithm

    def test_centralized_path_sees_delta(self, base):
        data, features = base
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            extent = engine.extent
            engine.apply_updates(delete_data_oids=[data[0].oid])
            final_data, final_features = engine.materialize_datasets()
            with self._oracle(final_data, final_features, extent) as oracle:
                query = QUERIES[1]
                got = engine.execute(query, algorithm="centralized")
                want = oracle.execute(query, algorithm="centralized")
                assert fingerprint(got) == fingerprint(want)

    def test_tombstone_filtered_before_topk_cut(self, base):
        """Deleting the top result must promote the runner-up, not truncate."""
        data, features = base
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            query = QUERIES[1]
            before = engine.execute(query, algorithm="espq-sco", grid_size=GRID)
            assert len(before.entries) >= 2
            top = before.entries[0].obj.oid
            engine.apply_updates(delete_data_oids=[top])
            after = engine.execute(query, algorithm="espq-sco", grid_size=GRID)
            oids = [entry.obj.oid for entry in after.entries]
            assert top not in oids
            assert len(after.entries) >= len(before.entries) - 1

    def test_execute_many_pins_one_snapshot(self, base):
        data, features = base
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            engine.apply_updates(delete_data_oids=[data[1].oid])
            batched = engine.execute_many(QUERIES, algorithm="pspq", grid_size=GRID)
            sequential = [
                raw_execute(engine, query, algorithm="pspq", grid_size=GRID)
                for query in QUERIES
            ]
            assert [fingerprint(r) for r in batched] == [
                fingerprint(r) for r in sequential
            ]

    def test_append_outside_extent_rejected(self, base):
        data, features = base
        with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
            far = DataObject(oid="far", x=engine.extent.max_x + 100.0, y=0.0)
            with pytest.raises(DatasetUpdateError, match="extent"):
                engine.apply_updates(append_data=[far])


class TestReplacedDataObject:
    """A base data object deleted and re-appended under its own oid -- the
    replace ``DatasetDelta.apply`` documents, in one batch or two -- is live
    at its new position: every algorithm reports it where a bulk swap of the
    final state does, and padding pads with it.  (The merge used to treat
    every tombstoned oid as dead and raise ``ResultIntegrityError``; the
    padding skipped it.)"""

    QUERY = SpatialPreferenceQuery.create(k=40, radius=6.0, keywords={"museum"})
    ALGORITHMS = ALGORITHMS + ("auto",)

    def replace(self, data, query=QUERY):
        """The replace of a data object the query reports, moved slightly."""
        with SPQEngine(*make_dataset(), EngineConfig(grid_size=GRID)) as engine:
            reported = engine.execute(query, algorithm="pspq", grid_size=GRID)
        victim = next(obj for obj in data if obj.oid == reported.entries[0].obj.oid)
        return victim.oid, DataObject(victim.oid, victim.x + 0.05, victim.y)

    def apply(self, target, oid, moved, one_batch):
        if one_batch:
            target(delete_data_oids=[oid], append_data=[moved])
        else:
            target(delete_data_oids=[oid])
            target(append_data=[moved])

    @pytest.mark.parametrize("pad", [False, True], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("one_batch", [True, False], ids=["one-batch", "two-batches"])
    def test_engine_equals_bulk_swap(self, pad, one_batch):
        data, features = make_dataset()
        oid, moved = self.replace(data)
        config = EngineConfig(grid_size=GRID)
        with SPQEngine(data, features, config) as engine:
            self.apply(engine.apply_updates, oid, moved, one_batch)
            final_data, final_features = engine.materialize_datasets()
            assert [obj for obj in final_data if obj.oid == oid] == [moved]
            with SPQEngine(
                final_data, final_features, config, extent=engine.extent
            ) as oracle:
                for algorithm in self.ALGORITHMS:
                    got = engine.execute(self.QUERY, algorithm=algorithm, grid_size=GRID)
                    want = reference_execute(
                        oracle, self.QUERY, algorithm=algorithm, grid_size=GRID
                    )
                    if pad:
                        got = padded(got, self.QUERY.k, engine.materialize_datasets()[0])
                        want = padded(want, self.QUERY.k, oracle.data_objects)
                    assert fingerprint(got) == fingerprint(want), algorithm
                    assert oid in got.object_ids(), algorithm
                    assert len(got) == (self.QUERY.k if pad else len(want)), algorithm

    @pytest.mark.parametrize("pad", [False, True], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("one_batch", [True, False], ids=["one-batch", "two-batches"])
    def test_two_shard_router_equals_bulk_swap(self, pad, one_batch):
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = make_dataset()
        oid, moved = self.replace(data)
        router = ShardRouter(
            data, features, engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            self.apply(router.apply_objects, oid, moved, one_batch)
            final_data = [obj for obj in data if obj.oid != oid] + [moved]
            with SPQEngine(
                final_data, features, EngineConfig(grid_size=GRID),
                extent=router.plan.extent,
            ) as oracle:
                for algorithm in self.ALGORITHMS:
                    got = payload_fingerprint(
                        router.submit(spec_for(self.QUERY, algorithm))
                    )
                    want = fingerprint(reference_execute(
                        oracle, self.QUERY, algorithm=algorithm, grid_size=GRID
                    ))
                    assert oid in [entry_oid for entry_oid, _ in got], algorithm
                    if pad:
                        got += tuple(
                            (obj.oid, 0.0) for obj in zero_score_padding(
                                [entry_oid for entry_oid, _ in got], self.QUERY.k,
                                final_data,
                            )
                        )
                    assert [e for e in got if e[1] > 0.0] == list(want), algorithm
                    assert len(got) == (self.QUERY.k if pad else len(want)), algorithm


# --------------------------------------------------------------------- #
# service: writes, compaction, cache versioning


def make_service(dataset, **service_kwargs) -> QueryService:
    data, features = dataset
    service_kwargs.setdefault("engines", 1)
    service_kwargs.setdefault("default_grid_size", GRID)
    return QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=GRID),
        config=ServiceConfig(**service_kwargs),
    )


def spec_for(query, algorithm="espq-sco"):
    return {
        "keywords": sorted(query.keywords),
        "k": query.k,
        "radius": query.radius,
        "algorithm": algorithm,
        "grid_size": GRID,
    }


class TestServiceIngest:
    @pytest.fixture()
    def dataset(self):
        return make_dataset()

    def test_write_invalidates_cached_answer(self, dataset):
        with make_service(dataset) as service:
            spec = spec_for(QUERIES[1])
            first = service.submit(spec)
            assert service.submit(spec)["cached"] is True
            top = first["results"][0]["oid"]
            service.apply_objects(delete_data_oids=[top])
            fresh = service.submit(spec)
            assert fresh["cached"] is False
            assert top not in [e["oid"] for e in fresh["results"]]

    def test_incremental_equals_bulk_swap_service_level(self, dataset):
        data, features = dataset
        with make_service(dataset) as service:
            extent = service.engines[0].extent
            new_data, new_features = make_appends(8, "s")
            service.apply_objects(append_data=new_data)
            service.apply_objects(
                append_features=new_features,
                delete_data_oids=[data[5].oid],
                delete_feature_oids=[features[2].oid],
            )
            final_data, final_features = service.engines[0].materialize_datasets()
            answers = [
                payload_fingerprint(service.submit(spec_for(q, a)))
                for q in QUERIES
                for a in ALGORITHMS
            ]
        with QueryService(
            final_data,
            final_features,
            engine_config=EngineConfig(grid_size=GRID),
            config=ServiceConfig(engines=1, default_grid_size=GRID),
            extent=extent,
        ) as oracle:
            expected = [
                payload_fingerprint(oracle.submit(spec_for(q, a)))
                for q in QUERIES
                for a in ALGORITHMS
            ]
        assert answers == expected

    def test_compact_folds_delta_and_preserves_answers(self, dataset):
        with make_service(dataset) as service:
            new_data, _ = make_appends(6, "c")
            service.apply_objects(append_data=new_data)
            before = [
                payload_fingerprint(service.submit(spec_for(q))) for q in QUERIES
            ]
            info = service.compact()
            assert info["compacted"] is True
            assert info["folded_ops"] == 6
            assert service.stats()["ingest"]["delta"]["version"] > 0
            assert service.stats()["ingest"]["delta"]["appended_data"] == 0
            after = [
                payload_fingerprint(service.submit(spec_for(q))) for q in QUERIES
            ]
            assert after == before

    def test_compact_empty_delta_is_noop(self, dataset):
        with make_service(dataset) as service:
            version = service.dataset_info()["version"]
            info = service.compact()
            assert info["compacted"] is False
            assert info["folded_ops"] == 0
            assert service.dataset_info()["version"] == version

    def test_autocompaction_fires_at_threshold(self, dataset):
        with make_service(dataset, compact_threshold=4) as service:
            new_data, _ = make_appends(5, "t")
            service.apply_objects(append_data=new_data)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.stats()["ingest"]["compactions"] >= 1:
                    break
                time.sleep(0.02)
            stats = service.stats()["ingest"]
            assert stats["compactions"] >= 1
            assert stats["delta"]["appended_data"] == 0

    def test_full_swap_after_compaction_rederives_extent(self, dataset):
        data, features = dataset
        with make_service(dataset) as service:
            new_data, _ = make_appends(3, "e")
            service.apply_objects(append_data=new_data)
            service.compact()  # pins the extent internally
            wide = [DataObject(oid="wide", x=500.0, y=500.0)] + list(data)
            service.swap_datasets(wide, features)
            # The widened extent is served: the far object is appendable near.
            service.apply_objects(
                append_data=[DataObject(oid="wide2", x=499.0, y=499.0)]
            )

    def test_stats_ingest_subtree(self, dataset):
        with make_service(dataset) as service:
            new_data, _ = make_appends(2, "st")
            service.apply_objects(append_data=new_data)
            ingest = service.stats()["ingest"]
            assert ingest["write_batches"] == 1
            assert ingest["delta"]["appended_data"] == 2
            assert ingest["cumulative"]["data_appended"] == 2
            assert ingest["compact_threshold"] == 0
            assert ingest["compactions"] == 0

    def test_rejected_batch_leaves_no_state(self, dataset):
        data, _ = dataset
        with make_service(dataset) as service:
            with pytest.raises(DatasetUpdateError):
                service.apply_objects(
                    append_data=[
                        DataObject(oid="ok", x=50.0, y=50.0),
                        DataObject(oid=data[0].oid, x=51.0, y=51.0),
                    ]
                )
            ingest = service.stats()["ingest"]
            assert ingest["delta"]["appended_data"] == 0
            assert ingest["write_batches"] == 0

    def test_queries_race_compaction(self, dataset):
        """Concurrent reads during writes + compactions: never an error,
        every answer matches some staged oracle state.  eSPQsco and pSPQ
        both race the fold on a two-engine pool: pSPQ reads the data
        blocks' in-range rows, which the folded index must rebuild rather
        than carry, and a feature delete per write shifts the positions
        the fold re-keys."""
        data, features = dataset
        with make_service(dataset, result_cache_capacity=0, engines=2) as service:
            extent = service.engines[0].extent
            specs = [spec_for(QUERIES[0]), spec_for(QUERIES[0], "pspq")]
            stages = []  # staged oracle answers, appended as ops land
            with QueryService(
                data, features,
                engine_config=EngineConfig(grid_size=GRID),
                config=ServiceConfig(engines=1, default_grid_size=GRID),
                extent=extent,
            ) as oracle:
                stages.extend(payload_fingerprint(oracle.submit(s)) for s in specs)
            answers = []
            errors = []
            stop = threading.Event()

            def reader(spec):
                while not stop.is_set():
                    try:
                        answers.append(
                            payload_fingerprint(service.submit(spec))
                        )
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(specs[n % 2],)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            current_data, current_features = list(data), list(features)
            new_data, _ = make_appends(12, "r")
            for index, obj in enumerate(new_data):
                gone = current_features.pop(index)
                service.apply_objects(append_data=[obj], delete_feature_oids=[gone.oid])
                current_data.append(obj)
                with QueryService(
                    current_data, current_features,
                    engine_config=EngineConfig(grid_size=GRID),
                    config=ServiceConfig(engines=1, default_grid_size=GRID),
                    extent=extent,
                ) as oracle:
                    stages.extend(payload_fingerprint(oracle.submit(s)) for s in specs)
                if index == 6:
                    service.compact()
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors
            assert answers
            staged = set(stages)
            for answer in answers:
                assert answer in staged, "answer matches no staged state"


# --------------------------------------------------------------------- #
# HTTP surface: POST /objects


class TestHttpObjects:
    @pytest.fixture()
    def server(self):
        service = make_service(make_dataset()).start()
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, service
        server.shutdown()
        server.server_close()
        thread.join()
        service.shutdown()

    def _post(self, server, body, path="/objects"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_append_and_delete_roundtrip(self, server):
        server, service = server
        status, payload = self._post(
            server,
            {
                "append": {
                    "data_objects": [{"oid": "h1", "x": 50.0, "y": 50.0}],
                    "feature_objects": [
                        {"oid": "hf1", "x": 51.0, "y": 51.0,
                         "keywords": ["cafe"]},
                    ],
                },
                "delete": {"data_oids": ["d0"]},
            },
        )
        assert status == 200
        assert payload["applied"]["data_appended"] == 1
        assert payload["applied"]["features_appended"] == 1
        assert payload["applied"]["data_deleted"] == 1
        assert payload["applied"]["delta"]["appended_data"] == 1

    def test_empty_update_rejected(self, server):
        server, _ = server
        status, payload = self._post(server, {"append": {}, "delete": {}})
        assert status == 400
        assert "empty update" in payload["error"]

    def test_unknown_field_rejected(self, server):
        server, _ = server
        status, payload = self._post(server, {"upsert": []})
        assert status == 400
        assert "unknown field" in payload["error"]

    def test_epoch_rejected_for_plain_service(self, server):
        server, _ = server
        status, payload = self._post(
            server,
            {"epoch": "v1", "delete": {"data_oids": ["d0"]}},
        )
        # A plain service does not accept epochs; the field is unknown.
        assert status == 400

    def test_invalid_append_maps_to_400(self, server):
        server, _ = server
        status, payload = self._post(
            server,
            {"append": {"data_objects": [{"oid": "d0", "x": 50.0, "y": 50.0}]}},
        )
        assert status == 400
        assert "already live" in payload["error"]


# --------------------------------------------------------------------- #
# shard router: write routing


class TestShardRouterIngest:
    @pytest.fixture()
    def routed(self):
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = make_dataset(160, 240)
        router = ShardRouter(
            data,
            features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=4),
        ).start()
        yield router, data, features
        router.shutdown()

    def test_routed_writes_equal_unsharded_oracle(self, routed):
        router, data, features = routed
        extent = router.plan.extent
        new_data, new_features = make_appends(10, "rw")
        router.apply_objects(append_data=new_data, append_features=new_features)
        router.apply_objects(
            delete_data_oids=[data[4].oid], delete_feature_oids=[features[9].oid]
        )
        final_data = [
            obj for obj in data if obj.oid != data[4].oid
        ] + new_data
        final_features = [
            obj for obj in features if obj.oid != features[9].oid
        ] + new_features
        with SPQEngine(
            final_data, final_features, EngineConfig(grid_size=GRID),
            extent=extent,
        ) as oracle:
            for query in QUERIES:
                for algorithm in ALGORITHMS:
                    got = payload_fingerprint(
                        router.submit(spec_for(query, algorithm))
                    )
                    want = fingerprint(
                        raw_execute(oracle, query, algorithm=algorithm, grid_size=GRID)
                    )
                    assert got == want, f"{algorithm} diverged after routing"

    def test_rejected_batch_touches_no_shard(self, routed):
        router, data, _ = routed
        with pytest.raises(DatasetUpdateError):
            router.apply_objects(
                append_data=[
                    DataObject(oid="rnew", x=50.0, y=50.0),
                    DataObject(oid=data[0].oid, x=51.0, y=51.0),
                ]
            )
        for service in router.services:
            assert service.stats()["ingest"]["write_batches"] == 0

    def test_read_during_multi_shard_write_is_never_torn(self):
        """A read overlapping the per-shard applies of one write batch must
        see a whole dataset state -- and must not poison the result cache.

        Shard 1's apply is held on an event after shard 0 applied.  Before
        the write path paused the scatter gate, a read issued in that window
        merged shard 0's post-write partial with shard 1's pre-write one and
        cached the mix under the post-write version.
        """
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = make_dataset(160, 240)
        router = ShardRouter(
            data,
            features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        ).start()
        try:
            boundary = router.plan.shards[0].box.max_x
            straddler = FeatureObject(
                oid="torn-f", x=boundary, y=50.0, keywords=frozenset({"torn"})
            )
            query = SpatialPreferenceQuery.create(
                k=10, radius=15.0, keywords={"torn"}
            )
            spec = spec_for(query)

            def oracle(feature_objects):
                with SPQEngine(
                    data, feature_objects, EngineConfig(grid_size=GRID),
                    extent=router.plan.extent,
                ) as engine:
                    return fingerprint(
                        raw_execute(engine, query, algorithm="espq-sco", grid_size=GRID)
                    )

            pre, post = oracle(features), oracle(features + [straddler])
            x_of = {obj.oid: obj.x for obj in data}
            sides = {x_of[oid] < boundary for oid, _ in post}
            assert pre != post and sides == {True, False}, "vacuous scenario"

            holding, release = threading.Event(), threading.Event()
            held_shard = router.services[1]
            real_apply = held_shard.apply_objects

            def held_apply(**update):
                holding.set()
                assert release.wait(10.0)
                return real_apply(**update)

            held_shard.apply_objects = held_apply
            during = []
            writer = threading.Thread(
                target=router.apply_objects,
                kwargs={"append_features": [straddler]},
            )
            reader = threading.Thread(
                target=lambda: during.append(
                    payload_fingerprint(router.submit(spec))
                )
            )
            writer.start()
            assert holding.wait(10.0)  # shard 0 applied, shard 1 has not
            reader.start()
            reader.join(0.5)  # (queues at the paused gate)
            release.set()
            writer.join(10.0)
            reader.join(10.0)
            assert not writer.is_alive() and not reader.is_alive()
            after = router.submit(spec)
        finally:
            router.shutdown()
        assert during[0] in (pre, post), "read merged two dataset states"
        assert payload_fingerprint(after) == post

    def test_data_appended_into_an_empty_shard_is_ranked(self):
        """A shard that owned no data at partition time joins the scatter
        once a write routes a data object to it (it used to stay skipped,
        so the appended object was never ranked)."""
        from repro.sharding import ShardRouter, ShardingConfig

        data = [DataObject(oid=f"d{i}", x=10.0 + i, y=50.0) for i in range(20)]
        features = [
            FeatureObject(oid="f0", x=15.0, y=50.0, keywords=frozenset({"cafe"})),
            FeatureObject(oid="f1", x=90.0, y=50.0, keywords=frozenset({"cafe"})),
        ]
        with ShardRouter(
            data,
            features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        ) as router:
            assert [s.is_empty for s in router.plan.shards] == [False, True]
            spec = {"keywords": ["cafe"], "k": 50, "radius": 3.0}
            before = {entry["oid"] for entry in router.submit(spec)["results"]}
            router.apply_objects(
                append_data=[DataObject(oid="east", x=89.0, y=50.0)]
            )
            after = {entry["oid"] for entry in router.submit(spec)["results"]}
        assert after == before | {"east"}

    def test_compact_all_shards_preserves_answers(self, routed):
        router, data, features = routed
        new_data, _ = make_appends(8, "rc")
        router.apply_objects(append_data=new_data)
        spec = spec_for(QUERIES[1])
        before = payload_fingerprint(router.submit(spec))
        info = router.compact()
        assert info["compacted"] is True
        assert info["folded_ops"] > 0
        assert payload_fingerprint(router.submit(spec)) == before
        for service in router.services:
            assert service.stats()["ingest"]["delta"]["appended_data"] == 0


# --------------------------------------------------------------------- #
# cluster router: write push + epoch propagation (in-process fleet)


class TestClusterIngest:
    @pytest.fixture()
    def fleet(self):
        from repro.cluster import (
            ClusterConfig,
            ClusterRouter,
            NodeConfig,
            NodeSpec,
            ShardNodeService,
        )

        dataset = make_dataset(120, 180)
        data, features = dataset
        handles = []
        specs = []
        shards = 2
        for shard_index in range(shards):
            node = ShardNodeService(
                data,
                features,
                node_config=NodeConfig(shard_index=shard_index, shards=shards),
                engine_config=EngineConfig(grid_size=GRID),
                service_config=ServiceConfig(
                    engines=1, result_cache_capacity=0, default_grid_size=GRID
                ),
            ).start()
            server = make_server(node)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            handles.append((node, server, thread))
            specs.append(
                NodeSpec(
                    url=f"http://127.0.0.1:{server.port}",
                    shard_index=shard_index,
                )
            )
        router = ClusterRouter(
            data,
            features,
            specs,
            cluster=ClusterConfig(
                shards=shards, heartbeat_interval=0, node_deadline=5.0
            ),
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(default_grid_size=GRID),
        ).start()
        yield router, handles, data, features
        router.shutdown()
        for node, server, thread in handles:
            server.shutdown()
            server.server_close()
            thread.join()
            node.shutdown()

    def test_write_pushes_and_matches_oracle(self, fleet):
        router, handles, data, features = fleet
        extent = router.plan.extent
        new_data, new_features = make_appends(8, "cw")
        info = router.apply_objects(
            append_data=new_data,
            append_features=new_features,
            delete_data_oids=[data[2].oid],
        )
        assert info["dataset_epoch"] == router.dataset_epoch
        # The whole fleet moved epochs together: no node looks stale.
        states = router.probe_now()
        assert set(states.values()) == {"alive"}
        assert router.stats()["cluster"]["resyncs"] == 0
        for node, _, _ in handles:
            assert node.dataset_epoch == router.dataset_epoch
        final_data = [obj for obj in data if obj.oid != data[2].oid] + new_data
        final_features = list(features) + new_features
        with SPQEngine(
            final_data, final_features, EngineConfig(grid_size=GRID),
            extent=extent,
        ) as oracle:
            for query in QUERIES[:2]:
                response = router.submit(spec_for(query))
                assert not response.get("degraded")
                want = fingerprint(
                    raw_execute(oracle, query, algorithm="espq-sco", grid_size=GRID)
                )
                assert payload_fingerprint(response) == want

    def test_node_local_compaction_keeps_epoch(self, fleet):
        router, handles, data, features = fleet
        new_data, _ = make_appends(4, "cc")
        router.apply_objects(append_data=new_data)
        epoch = router.dataset_epoch
        spec = spec_for(QUERIES[0])
        before = payload_fingerprint(router.submit(spec))
        for node, _, _ in handles:
            info = node.compact()
            assert info["dataset_epoch"] == epoch
        assert payload_fingerprint(router.submit(spec)) == before
        assert router.stats()["cluster"]["resyncs"] == 0

    def test_rejected_batch_reaches_no_node(self, fleet):
        router, handles, data, _ = fleet
        with pytest.raises(DatasetUpdateError):
            router.apply_objects(
                append_data=[DataObject(oid=data[0].oid, x=50.0, y=50.0)]
            )
        for node, _, _ in handles:
            assert node.stats()["ingest"]["write_batches"] == 0


# --------------------------------------------------------------------- #
# bugfix sweep regressions


class TestFeatureCellsRadiusCacheRace:
    """Two engines hitting a fresh radius concurrently must converge on one
    cache dict (the ``setdefault`` fix) -- no thread's Lemma-1 work may be
    thrown away into an orphaned copy."""

    def test_concurrent_first_radius_converges(self):
        data, features = make_dataset(20, 60)
        grid = UniformGrid(BoundingBox(0.0, 0.0, 100.0, 100.0), GRID)
        for round_index in range(10):
            index = DatasetIndex(data, features, grid)
            radius = 3.0 + round_index
            num_threads = 4
            slices = [
                list(range(start, len(features), num_threads))
                for start in range(num_threads)
            ]
            barrier = threading.Barrier(num_threads)

            def hammer(positions):
                barrier.wait()
                index.feature_cells(radius, positions=positions)

            threads = [
                threading.Thread(target=hammer, args=(chunk,))
                for chunk in slices
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            cache = index._feature_cells[radius]
            # Every thread's fills landed in the ONE surviving dict.
            assert len(cache) == len(features)
            partitioner = GridPartitioner(grid, radius)
            for position in (0, len(features) // 2, len(features) - 1):
                assert cache[position] == tuple(
                    partitioner.assign_feature_object(features[position])
                )

    def test_two_engines_filling_one_radius_count_each_position_once(self):
        """Two threads assigning the *same* positions of one radius converge
        on one cache holding each position once, with the right cells."""
        import sys

        data, features = make_dataset(20, 200)
        grid = UniformGrid(BoundingBox(0.0, 0.0, 100.0, 100.0), GRID)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(8):
                index = DatasetIndex(data, features, grid)
                radius = 4.0 + round_index
                query = SpatialPreferenceQuery.create(
                    k=3, radius=radius, keywords={"alpha", "beta", "gamma"}
                )
                barrier = threading.Barrier(2)
                hits = []

                def fill(order):
                    barrier.wait()
                    for start in range(0, len(order), 25):
                        prepared = index.prepare(
                            query, candidates=order[start:start + 25]
                        )
                        hits.append(prepared.radius_cache_hit)

                everything = list(range(len(features)))
                threads = [
                    threading.Thread(target=fill, args=(everything,)),
                    threading.Thread(target=fill, args=(everything[::-1],)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                cache = index._feature_cells[radius]
                assert len(cache) == len(features)
                partitioner = GridPartitioner(grid, radius)
                assert all(
                    cells == tuple(partitioner.assign_feature_object(features[p]))
                    for p, cells in cache.items()
                )
                assert not all(hits)
                # Everything is cached now: a pure hit.
                assert index.prepare(query, candidates=everything).radius_cache_hit
        finally:
            sys.setswitchinterval(interval)

    def test_repeated_radius_hits_cache(self):
        data, features = make_dataset(20, 30)
        grid = UniformGrid(BoundingBox(0.0, 0.0, 100.0, 100.0), GRID)
        index = DatasetIndex(data, features, grid)
        first = index.feature_cells(5.0)
        second = index.feature_cells(5.0)
        assert first == second
        assert index.stats.radii_cached == [5.0]


class TestResultCacheContention:
    """``copy_payload`` runs outside the mutex; hammering get/put from many
    threads must stay correct (private copies, consistent accounting)."""

    def _payload(self, marker):
        return {
            "results": [{"oid": f"o{marker}", "score": float(marker)}],
            "stats": {"marker": marker},
        }

    def test_concurrent_get_put_yields_valid_copies(self):
        cache = ResultCache(capacity=8)
        errors = []
        rounds = 200

        def worker(worker_id):
            for i in range(rounds):
                key = ("q", i % 4)
                cache.put(key, self._payload(i % 4))
                got = cache.get(key)
                if got is None:
                    continue
                try:
                    marker = got["stats"]["marker"]
                    assert got["results"][0]["oid"] == f"o{marker}"
                    # The copy is private: mutating it cannot poison the cache.
                    got["results"].clear()
                except AssertionError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for i in range(4):
            entry = cache.get(("q", i))
            assert entry is not None and entry["results"], (
                "a caller's mutation reached the cached entry"
            )

    def test_get_returns_fresh_copy_each_time(self):
        cache = ResultCache(capacity=2)
        cache.put("k", self._payload(1))
        first = cache.get("k")
        second = cache.get("k")
        assert first == second
        assert first is not second
        assert first["results"] is not second["results"]


class TestBucketIndexParity:
    """``bisect_left`` must assign the exact bucket the linear ``<=`` scan
    did, boundary values included."""

    @staticmethod
    def _linear(seconds):
        for index, bound in enumerate(BUCKET_BOUNDS_SECONDS):
            if seconds <= bound:
                return index
        return len(BUCKET_BOUNDS_SECONDS)

    def test_exact_bounds_and_neighbourhoods(self):
        probes = [0.0]
        for bound in BUCKET_BOUNDS_SECONDS:
            probes.extend(
                (bound, bound - 1e-12, bound + 1e-12, bound * 0.999, bound * 1.001)
            )
        probes.append(BUCKET_BOUNDS_SECONDS[-1] * 10)  # overflow
        probes.append(1e9)
        for seconds in probes:
            assert LatencyHistogram._bucket_index(seconds) == self._linear(
                seconds
            ), f"bucket divergence at {seconds!r}"

    def test_overflow_lands_in_last_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(1e9)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"][-1]["le_ms"] == "inf"
        assert snapshot["count"] == 1
