"""Unit/integration tests for the SPQEngine public API."""

from __future__ import annotations

import pytest

from raw_oracle import padded
from repro.core.centralized import CentralizedSPQ
from repro.core.engine import ALGORITHMS, EngineConfig, SPQEngine
from repro.exceptions import InvalidQueryError
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.text.vocabulary import Vocabulary


class TestEngineBasics:
    def test_unknown_algorithm_rejected(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        with pytest.raises(InvalidQueryError):
            engine.execute(paper_query, algorithm="does-not-exist")

    def test_algorithms_constant_lists_all_variants(self):
        assert set(ALGORITHMS) == {"pspq", "espq-len", "espq-sco", "centralized"}

    def test_extent_is_cached(self, paper_data_objects, paper_feature_objects):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        assert engine.extent is engine.extent

    def test_build_grid_uses_config_default(self, paper_data_objects, paper_feature_objects):
        engine = SPQEngine(
            paper_data_objects, paper_feature_objects, config=EngineConfig(grid_size=8)
        )
        assert engine.build_grid().cells_x == 8
        assert engine.build_grid(grid_size=3).cells_x == 3


class TestEngineResults:
    @pytest.mark.parametrize("algorithm", ["pspq", "espq-len", "espq-sco"])
    def test_distributed_matches_oracle_on_uniform_data(self, algorithm, small_uniform_dataset):
        data, features = small_uniform_dataset
        vocabulary = Vocabulary.from_features(features)
        keywords = set(vocabulary.most_frequent(3))
        query = SpatialPreferenceQuery.create(k=10, radius=3.0, keywords=keywords)
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        engine = SPQEngine(data, features)
        result = engine.execute(query, algorithm=algorithm, grid_size=10)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        assert result.scores()[: len(oracle_positive)] == pytest.approx(oracle_positive)

    @pytest.mark.parametrize("grid_size", [1, 3, 7, 20])
    def test_result_independent_of_grid_size(self, grid_size, small_clustered_dataset):
        data, features = small_clustered_dataset
        vocabulary = Vocabulary.from_features(features)
        keywords = set(vocabulary.most_frequent(2))
        query = SpatialPreferenceQuery.create(k=5, radius=4.0, keywords=keywords)
        engine = SPQEngine(data, features)
        baseline = engine.execute(query, algorithm="pspq", grid_size=1)
        result = engine.execute(query, algorithm="pspq", grid_size=grid_size)
        assert result.scores() == pytest.approx(baseline.scores())

    def test_centralized_algorithm_through_engine(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        result = engine.execute(paper_query, algorithm="centralized")
        assert result.object_ids() == ["p1"]

    def test_result_objects_carry_real_coordinates(
        self, paper_data_objects, paper_feature_objects, paper_query
    ):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        result = engine.execute(paper_query, algorithm="espq-sco", grid_size=4)
        p1 = result[0].obj
        assert (p1.x, p1.y) == (4.6, 4.8)

    def test_padding_fills_result_to_k(self):
        # No feature is near the data objects -> no positive scores; the
        # test-side padding still fills the result to k entries at score 0.
        data = [DataObject(f"p{i}", float(i), 0.0) for i in range(5)]
        features = [FeatureObject("f", 50.0, 50.0, {"kw"})]
        query = SpatialPreferenceQuery.create(k=3, radius=1.0, keywords={"kw"})
        plain_engine = SPQEngine(data, features)
        plain = plain_engine.execute(query, algorithm="pspq", grid_size=4)
        assert len(plain) == 0
        result = padded(plain, query.k, data)
        assert len(result) == 3
        assert result.scores() == [0.0, 0.0, 0.0]


class TestEngineStats:
    @pytest.fixture()
    def result(self, paper_data_objects, paper_feature_objects, paper_query):
        engine = SPQEngine(paper_data_objects, paper_feature_objects)
        return engine.execute(paper_query, algorithm="espq-sco", grid_size=4)

    def test_stats_contain_simulated_time(self, result):
        assert result.stats["simulated_seconds"] > 0
        breakdown = result.stats["simulated_breakdown"]
        assert breakdown["total"] == pytest.approx(result.stats["simulated_seconds"])

    def test_stats_contain_counters(self, result):
        assert result.stats["algorithm"] == "eSPQsco"
        assert result.stats["grid_size"] == 4
        assert result.stats["num_cells"] == 16
        assert result.stats["num_reduce_tasks"] == 16
        assert result.stats["features_examined"] >= 1
        assert result.stats["shuffled_records"] >= 1
        assert result.stats["wall_seconds"] >= 0

    def test_feature_pruning_visible_in_stats(self, result):
        # 5 of the 8 example features have no "italian" keyword.
        assert result.stats["features_pruned"] == 5


class TestEngineClose:
    """Regression tests: close() is idempotent under the server's restart
    path -- double-close and close-while-pooled must not raise."""

    @pytest.fixture()
    def engine(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        return SPQEngine(data, features)

    def test_double_close(self, engine):
        engine.execute(
            SpatialPreferenceQuery.create(k=2, radius=2.0, keywords={"w0001"}),
            grid_size=8,
        )
        engine.close()
        engine.close()

    def test_close_unused_engine(self, engine):
        engine.close()
        engine.close()

    def test_close_then_reuse_then_close(self, engine):
        query = SpatialPreferenceQuery.create(k=2, radius=2.0, keywords={"w0001"})
        first = engine.execute(query, grid_size=8)
        engine.close()
        second = engine.execute(query, grid_size=8)  # released index rebuilds
        engine.close()
        assert second.scores() == first.scores()

    def test_concurrent_close_calls(self, engine):
        import threading

        engine.execute(
            SpatialPreferenceQuery.create(k=2, radius=2.0, keywords={"w0001"}),
            grid_size=8,
        )
        errors = []

        def close() -> None:
            try:
                engine.close()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_close_while_another_thread_queries(self, engine):
        """A pooled engine closed mid-query: both sides must survive."""
        import threading

        query = SpatialPreferenceQuery.create(k=3, radius=2.0, keywords={"w0001"})
        errors = []

        def run_queries() -> None:
            try:
                for _ in range(5):
                    engine.execute(query, grid_size=8)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        worker = threading.Thread(target=run_queries)
        worker.start()
        for _ in range(5):
            engine.close()
        worker.join()
        engine.close()
        assert not errors

    @pytest.mark.parametrize("mode", ["execute", "execute-auto", "execute-many"])
    def test_close_races_queries_on_every_entry_point(self, engine, mode):
        """close() releases the cached indexes while queries run through
        every entry point: each query keeps the shuffle handle it took, the
        next one rebuilds it, and no ``/dev/shm`` segment appears."""
        import glob
        import threading

        query = SpatialPreferenceQuery.create(k=3, radius=2.0, keywords={"w0001"})
        run = {
            "execute": lambda: engine.execute(query, grid_size=8),
            "execute-auto": lambda: engine.execute(
                query, algorithm="auto", grid_size=8
            ),
            "execute-many": lambda: engine.execute_many([query], grid_size=8),
        }[mode]
        segments_before = sorted(glob.glob("/dev/shm/repro_dp_*"))
        errors = []

        def run_queries() -> None:
            try:
                for _ in range(20):
                    run()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        worker = threading.Thread(target=run_queries)
        worker.start()
        while worker.is_alive():
            engine.close()
            worker.join(0.002)
        engine.close()
        assert not errors
        assert sorted(glob.glob("/dev/shm/repro_dp_*")) == segments_before

    def test_context_manager_exit_is_idempotent_with_close(
        self, small_uniform_dataset
    ):
        data, features = small_uniform_dataset
        with SPQEngine(data, features) as engine:
            engine.close()
        engine.close()
