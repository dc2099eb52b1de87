"""Tests for ``SPQEngine.execute_many`` and the engine's index lifecycle."""

from __future__ import annotations

import gc
import weakref

import pytest

from object_oracle import REDUCE_LOOPS, select_reduce_loop
from raw_oracle import raw_execute
from repro.core.engine import SPQEngine
from repro.exceptions import InvalidQueryError, ResultIntegrityError
from repro.index.planner import BatchQuery
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import JobResult
from repro.model.query import SpatialPreferenceQuery

DISTRIBUTED = ("pspq", "espq-len", "espq-sco")


def _workload(keyword_sets, k=5, radius=4.0, repeats=3):
    return [
        SpatialPreferenceQuery.create(k=k, radius=radius, keywords=keywords)
        for _ in range(repeats)
        for keywords in keyword_sets
    ]


@pytest.fixture(scope="module")
def uniform_engine_data(small_uniform_dataset_module):
    return small_uniform_dataset_module


@pytest.fixture(scope="module")
def small_uniform_dataset_module():
    from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform

    return generate_uniform(SyntheticDatasetConfig(num_objects=1_000, seed=101))


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("algorithm", DISTRIBUTED)
    def test_identical_results_per_algorithm(self, uniform_engine_data, algorithm):
        data, features = uniform_engine_data
        queries = _workload([
            {"w0001", "w0042"}, {"w0100"}, {"w0500", "w0501"},
        ])
        engine = SPQEngine(data, features)
        sequential = [
            raw_execute(engine, query, algorithm=algorithm, grid_size=8)
            for query in queries
        ]
        batch_engine = SPQEngine(data, features)
        batch = batch_engine.execute_many(queries, algorithm=algorithm, grid_size=8)
        assert len(batch) == len(sequential)
        for seq, bat in zip(sequential, batch):
            assert seq.object_ids() == bat.object_ids()
            assert seq.scores() == bat.scores()

    def test_paper_example_through_batch(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        sequential = raw_execute(engine, paper_query, algorithm="espq-sco", grid_size=3)
        [batch] = engine.execute_many([paper_query], algorithm="espq-sco", grid_size=3)
        assert batch.object_ids() == sequential.object_ids()
        assert batch.scores() == sequential.scores()

    def test_influence_mode_via_pspq(self, uniform_engine_data):
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=3, radius=5.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        sequential = raw_execute(
            engine, query, algorithm="pspq", grid_size=6, score_mode="influence"
        )
        [batch] = engine.execute_many(
            [query], algorithm="pspq", grid_size=6, score_mode="influence"
        )
        assert batch.object_ids() == sequential.object_ids()
        assert batch.scores() == pytest.approx(sequential.scores())

    def test_mixed_grid_sizes_and_algorithms_keep_input_order(self, uniform_engine_data):
        data, features = uniform_engine_data
        query_a = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0001"})
        query_b = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0100"})
        items = [
            BatchQuery(query_a, grid_size=10),
            BatchQuery(query_b, algorithm="pspq"),
            query_a,
            BatchQuery(query_b, grid_size=10, algorithm="espq-len"),
        ]
        engine = SPQEngine(data, features)
        results = engine.execute_many(items, algorithm="espq-sco", grid_size=6)
        assert len(results) == 4
        expected = [
            raw_execute(engine, query_a, algorithm="espq-sco", grid_size=10),
            raw_execute(engine, query_b, algorithm="pspq", grid_size=6),
            raw_execute(engine, query_a, algorithm="espq-sco", grid_size=6),
            raw_execute(engine, query_b, algorithm="espq-len", grid_size=10),
        ]
        for got, want in zip(results, expected):
            assert got.object_ids() == want.object_ids()
            assert got.scores() == want.scores()
        assert results[0].stats["grid_size"] == 10
        assert results[1].stats["algorithm"] == "pSPQ"

    def test_centralized_passthrough(self, paper_data_objects, paper_feature_objects, paper_query):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        sequential = engine.execute(paper_query, algorithm="centralized")
        [batch] = engine.execute_many([paper_query], algorithm="centralized")
        assert batch.object_ids() == sequential.object_ids()

    def test_empty_batch(self, paper_data_objects, paper_feature_objects):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        assert engine.execute_many([]) == []

    def test_validation_happens_before_execution(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        items = [paper_query, BatchQuery(paper_query, algorithm="bogus")]
        with pytest.raises(InvalidQueryError):
            engine.execute_many(items)
        # Nothing ran: the index cache was never populated.
        assert engine.index_cache_stats["misses"] == 0

    def test_pspq_bad_score_mode_rejected_up_front(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        items = [paper_query, BatchQuery(paper_query, algorithm="pspq", score_mode="bogus")]
        with pytest.raises(InvalidQueryError, match="pspq"):
            engine.execute_many(items)
        assert engine.index_cache_stats["misses"] == 0


class TestStaleDatasetGuards:
    def test_reassigning_data_objects_refreshes_merge_lookup(self, uniform_engine_data):
        from repro.model.objects import DataObject

        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=3, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        before = engine.execute(query, grid_size=8)
        # Same oids, moved coordinates: the merge lookup must not serve the
        # old instances after the attribute is reassigned.
        moved = [DataObject(obj.oid, obj.x + 1.0, obj.y) for obj in data]
        engine.data_objects = moved
        after = engine.execute(query, grid_size=8)
        lookup = {obj.oid: obj for obj in moved}
        for entry in after:
            assert entry.obj is lookup[entry.obj.oid]
        del before


class TestIndexLifecycle:
    def test_cache_hits_across_batch(self, uniform_engine_data):
        data, features = uniform_engine_data
        queries = _workload([{"w0001"}, {"w0100"}], repeats=2)
        engine = SPQEngine(data, features)
        engine.execute_many(queries, grid_size=8)
        stats = engine.index_cache_stats
        assert stats["misses"] == 1
        assert stats["hits"] == len(queries) - 1

    def test_index_reused_across_calls(self, uniform_engine_data):
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        engine.execute_many([query], grid_size=8)
        engine.execute_many([query], grid_size=8)
        assert engine.index_cache_stats["misses"] == 1
        assert engine.index_cache_stats["hits"] == 1

    def test_invalidate_indexes_bumps_version_and_clears(self, uniform_engine_data):
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        engine.execute_many([query], grid_size=8)
        version = engine.dataset_version
        engine.invalidate_indexes()
        assert engine.dataset_version == version + 1
        engine.execute_many([query], grid_size=8)
        assert engine.index_cache_stats["misses"] == 2

    def test_a_retired_index_dies_without_the_cyclic_collector(self, uniform_engine_data):
        # A served index caches a PreloadedShuffle holding its own bound
        # methods.  Retiring it must break that cycle: a whole generation
        # (features, Lemma-1 lists, blocks) waiting for the collector's next
        # full pass is peak RSS on every compaction and hot-swap.
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        engine.execute_many([query], grid_size=8)
        retired = weakref.ref(engine.get_index(8))
        gc.collect()
        gc.disable()
        try:
            engine.invalidate_indexes()
            assert retired() is None
        finally:
            gc.enable()

    def test_set_datasets_invalidates_and_changes_results(self, uniform_engine_data):
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=3, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        [before] = engine.execute_many([query], grid_size=8)

        half = len(data) // 2
        engine.set_datasets(data[:half], features[:half])
        [after] = engine.execute_many([query], grid_size=8)
        fresh = SPQEngine(data[:half], features[:half])
        [expected] = fresh.execute_many([query], grid_size=8)
        assert after.object_ids() == expected.object_ids()
        assert after.scores() == expected.scores()
        # The stale index must not have served the shrunk dataset.
        assert engine.index_cache_stats["misses"] == 2
        del before

    def test_stats_carry_index_info(self, uniform_engine_data):
        data, features = uniform_engine_data
        queries = _workload([{"w0001"}], repeats=2)
        engine = SPQEngine(data, features)
        results = engine.execute_many(queries, grid_size=8)
        assert results[0].stats["index"]["index_cache_hit"] is False
        assert results[1].stats["index"]["index_cache_hit"] is True
        assert results[1].stats["index"]["radius_cache_hit"] is True
        assert results[0].stats["features_pruned"] > 0

    def test_pruned_counter_matches_sequential(self, uniform_engine_data):
        data, features = uniform_engine_data
        query = SpatialPreferenceQuery.create(k=2, radius=4.0, keywords={"w0001"})
        engine = SPQEngine(data, features)
        sequential = raw_execute(engine, query, algorithm="espq-sco", grid_size=8)
        [batch] = engine.execute_many([query], algorithm="espq-sco", grid_size=8)
        assert batch.stats["features_pruned"] == sequential.stats["features_pruned"]
        assert batch.stats["feature_duplicates"] == sequential.stats["feature_duplicates"]


def fake_job_result(outputs):
    return JobResult(
        job_name="fake",
        outputs=outputs,
        counters=Counters(),
        reduce_reports=[],
        num_map_tasks=1,
        num_reduce_tasks=1,
    )


class TestMergeIntegrity:
    def test_unknown_oid_raises(self, paper_data_objects, paper_feature_objects, paper_query):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        fake = fake_job_result([(1, "no-such-object", 0.5)])
        with pytest.raises(ResultIntegrityError, match="no-such-object"):
            engine._merge(fake, paper_query)

    def test_known_oids_merge_normally(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        fake = fake_job_result([(1, "p1", 0.5), (2, "p2", 0.7)])
        entries = engine._merge(fake, paper_query)
        assert [entry.obj.oid for entry in entries] == ["p2"]  # k == 1


@pytest.fixture(params=REDUCE_LOOPS)
def dataplane(request, monkeypatch):
    select_reduce_loop(monkeypatch, request.param)
    return request.param


class TestMergeContract:
    """``_merge`` checks every reducer output, not just the k it materialises.

    A bad oid is slipped in *below* the k-th winner -- where a merge that
    only looked at its winners would never see it -- after real reducers
    (either data plane) produced the rest of the outputs.
    """

    def _execute_with_extra_output(self, monkeypatch, engine, query, algorithm, oid):
        clean = engine.execute(query, algorithm=algorithm)
        kth = clean.scores()[-1]
        assert len(clean) == query.k and kth > 0.0
        merge = SPQEngine._merge

        def merge_with_extra(self, job_result, query, snapshot=None):
            job_result.outputs.append((1, oid, kth / 2))
            return merge(self, job_result, query, snapshot=snapshot)

        monkeypatch.setattr(SPQEngine, "_merge", merge_with_extra)
        return engine.execute(query, algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", DISTRIBUTED)
    def test_unknown_oid_below_the_winners_raises(
        self, dataplane, algorithm, uniform_engine_data, monkeypatch
    ):
        data, features = uniform_engine_data
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=3, radius=4.0, keywords={"w0001", "w0002"})
        with pytest.raises(ResultIntegrityError, match="unknown data object 'ghost'"):
            self._execute_with_extra_output(monkeypatch, engine, query, algorithm, "ghost")

    @pytest.mark.parametrize("algorithm", DISTRIBUTED)
    def test_deleted_oid_below_the_winners_raises(
        self, dataplane, algorithm, uniform_engine_data, monkeypatch
    ):
        data, features = uniform_engine_data
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=3, radius=4.0, keywords={"w0001", "w0002"})
        winners = set(engine.execute(query, algorithm=algorithm).object_ids())
        victim = next(obj.oid for obj in data if obj.oid not in winners)
        engine.apply_updates(delete_data_oids=[victim])
        with pytest.raises(ResultIntegrityError, match=f"deleted data object '{victim}'"):
            self._execute_with_extra_output(monkeypatch, engine, query, algorithm, victim)

    def test_equal_scores_from_different_cells_resolve_by_oid(
        self, dataplane, paper_data_objects, paper_feature_objects
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        query = SpatialPreferenceQuery.create(k=2, radius=1.5, keywords={"italian"})
        fake = fake_job_result([(3, "p3", 0.5), (1, "p2", 0.5), (2, "p1", 0.5)])
        entries = engine._merge(fake, query)
        assert [(e.obj.oid, e.score) for e in entries] == [("p1", 0.5), ("p2", 0.5)]

    @pytest.mark.parametrize("best_first", (True, False))
    def test_an_oid_from_two_partials_keeps_its_best_score(
        self, dataplane, best_first, paper_data_objects, paper_feature_objects
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        query = SpatialPreferenceQuery.create(k=2, radius=1.5, keywords={"italian"})
        reports = [(1, "p2", 0.75), (2, "p1", 0.5), (3, "p2", 0.25)]
        fake = fake_job_result(reports if best_first else reports[::-1])
        entries = engine._merge(fake, query)
        assert [(e.obj.oid, e.score) for e in entries] == [("p2", 0.75), ("p1", 0.5)]
