"""End-to-end integration tests across the full stack.

These tests run realistic (small-scale) versions of the paper's experimental
pipeline: generate a dataset, store it in the simulated HDFS, build a query
workload from the dataset vocabulary, execute all algorithms, and check both
correctness and the qualitative behaviours the paper reports (early
termination examines fewer features; the cost model ranks pSPQ as slowest on
demanding queries; results are stable across grid sizes).
"""

from __future__ import annotations

import pytest

from repro.core.centralized import CentralizedSPQ, dataset_extent
from repro.core.engine import SPQEngine
from repro.datagen.io import load_dataset, save_dataset
from repro.datagen.queries import QueryWorkload
from repro.datagen.realistic import RealisticDatasetConfig, generate_twitter_like
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_clustered, generate_uniform
from repro.paper.hdfs import HDFS
from repro.model.query import SpatialPreferenceQuery
from repro.text.vocabulary import Vocabulary


@pytest.fixture(scope="module")
def uniform_dataset():
    return generate_uniform(SyntheticDatasetConfig(num_objects=3_000, seed=77))


@pytest.fixture(scope="module")
def uniform_workload(uniform_dataset):
    data, features = uniform_dataset
    return QueryWorkload.from_features(features, dataset_extent(data, features), seed=5)


class TestFullPipelineUniform:
    @pytest.mark.parametrize("algorithm", ["pspq", "espq-len", "espq-sco"])
    def test_algorithms_agree_with_oracle_on_workload_queries(
        self, algorithm, uniform_dataset, uniform_workload
    ):
        data, features = uniform_dataset
        engine = SPQEngine(data, features)
        for query in uniform_workload.make_batch(
            3, k=10, num_keywords=3, grid_size=15, radius_fraction=0.10
        ):
            oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
            oracle_positive = [s for s in oracle.scores() if s > 0]
            result = engine.execute(query, algorithm=algorithm, grid_size=15)
            assert result.scores()[: len(oracle_positive)] == pytest.approx(oracle_positive)

    def test_early_termination_reduces_examined_features(self, uniform_dataset, uniform_workload):
        data, features = uniform_dataset
        engine = SPQEngine(data, features)
        query = uniform_workload.make_query(
            k=10, num_keywords=3, grid_size=15, radius_fraction=0.10
        )
        stats = {
            algorithm: engine.execute(query, algorithm=algorithm, grid_size=15).stats
            for algorithm in ("pspq", "espq-len", "espq-sco")
        }
        assert stats["espq-sco"]["features_examined"] <= stats["espq-len"]["features_examined"]
        assert stats["espq-len"]["features_examined"] <= stats["pspq"]["features_examined"]

    def test_simulated_time_favours_espqsco_on_demanding_query(self, uniform_dataset):
        """Many query keywords make pSPQ expensive (more relevant features);
        eSPQsco should not be slower than pSPQ in simulated time."""
        data, features = uniform_dataset
        vocabulary = Vocabulary.from_features(features)
        keywords = set(vocabulary.most_frequent(10))
        extent = dataset_extent(data, features)
        radius = max(extent.width, extent.height) / 15 * 0.25
        query = SpatialPreferenceQuery.create(k=10, radius=radius, keywords=keywords)
        engine = SPQEngine(data, features)
        pspq = engine.execute(query, algorithm="pspq", grid_size=15)
        sco = engine.execute(query, algorithm="espq-sco", grid_size=15)
        pspq_time = pspq.stats["simulated_seconds"]
        sco_time = sco.stats["simulated_seconds"]
        assert sco_time <= pspq_time


class TestFullPipelineClustered:
    def test_clustered_data_end_to_end(self):
        data, features = generate_clustered(SyntheticDatasetConfig(num_objects=2_000, seed=31))
        vocabulary = Vocabulary.from_features(features)
        query = SpatialPreferenceQuery.create(
            k=5, radius=3.0, keywords=set(vocabulary.most_frequent(3))
        )
        engine = SPQEngine(data, features)
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        for algorithm in ("espq-len", "espq-sco"):
            result = engine.execute(query, algorithm=algorithm, grid_size=10)
            assert result.scores()[: len(oracle_positive)] == pytest.approx(oracle_positive)

    def test_skew_concentrates_reduce_work(self):
        """On clustered data some reducers do much more work than others --
        the observation motivating the paper's Figure 9 discussion."""
        data, features = generate_clustered(SyntheticDatasetConfig(num_objects=4_000, seed=13))
        vocabulary = Vocabulary.from_features(features)
        query = SpatialPreferenceQuery.create(
            k=10, radius=2.0, keywords=set(vocabulary.most_frequent(5))
        )
        engine = SPQEngine(data, features)
        result = engine.execute(query, algorithm="pspq", grid_size=10)
        counters = result.stats["counters"]
        # Work exists and the shuffle carried duplicated features.
        assert counters["work"]["score_computations"] > 0
        assert result.stats["feature_duplicates"] >= 0


class TestTwitterLikePipeline:
    def test_twitter_like_end_to_end(self):
        config = RealisticDatasetConfig(
            num_objects=2_000, vocabulary_size=3_000, mean_keywords=9.8, seed=3
        )
        data, features = generate_twitter_like(config=config)
        vocabulary = Vocabulary.from_features(features)
        extent = dataset_extent(data, features)
        workload = QueryWorkload(vocabulary, extent, seed=1)
        query = workload.make_query(k=10, num_keywords=5, grid_size=20, radius_fraction=0.10)
        engine = SPQEngine(data, features)
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        result = engine.execute(query, algorithm="espq-sco", grid_size=20)
        assert result.scores()[: len(oracle_positive)] == pytest.approx(oracle_positive)


class TestHDFSBackedExecution:
    def test_dataset_stored_in_hdfs_and_processed(self, uniform_dataset):
        """Mimic the deployment: write the dataset into the simulated HDFS,
        read the records back block-by-block, and run a query over them."""
        data, features = uniform_dataset
        hdfs = HDFS(num_datanodes=16, block_records=500, replication=3)
        hdfs.write("/datasets/un.tsv", [obj.to_record() for obj in data + features])
        stored = hdfs.read("/datasets/un.tsv")
        assert stored.num_records == len(data) + len(features)
        assert stored.num_blocks == (len(data) + len(features) + 499) // 500

        from repro.model.objects import DataObject, FeatureObject

        parsed_data, parsed_features = [], []
        for record in stored.records():
            if record.count("\t") == 2:
                parsed_data.append(DataObject.from_record(record))
            else:
                parsed_features.append(FeatureObject.from_record(record))
        assert len(parsed_data) == len(data)
        assert len(parsed_features) == len(features)

        vocabulary = Vocabulary.from_features(parsed_features)
        query = SpatialPreferenceQuery.create(
            k=5, radius=3.0, keywords=set(vocabulary.most_frequent(2))
        )
        engine = SPQEngine(parsed_data, parsed_features)
        oracle = CentralizedSPQ(parsed_data, parsed_features).evaluate_exhaustive(query)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        result = engine.execute(query, algorithm="espq-sco", grid_size=10)
        assert result.scores()[: len(oracle_positive)] == pytest.approx(oracle_positive)


class TestFileBackedExecution:
    def test_save_load_query_roundtrip(self, tmp_path, uniform_dataset):
        data, features = uniform_dataset
        path = tmp_path / "dataset.tsv"
        save_dataset(path, data, features)
        loaded_data, loaded_features = load_dataset(path)
        vocabulary = Vocabulary.from_features(loaded_features)
        query = SpatialPreferenceQuery.create(
            k=5, radius=2.0, keywords=set(vocabulary.most_frequent(3))
        )
        result = SPQEngine(loaded_data, loaded_features).execute(
            query, algorithm="espq-len", grid_size=12
        )
        original = SPQEngine(data, features).execute(query, algorithm="espq-len", grid_size=12)
        assert result.scores() == pytest.approx(original.scores())
