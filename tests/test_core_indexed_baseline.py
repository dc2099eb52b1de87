"""Tests for the indexed centralized baseline (inverted index + R-tree)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.centralized import CentralizedSPQ
from repro.paper.indexed_baseline import IndexedCentralizedSPQ
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.text.vocabulary import Vocabulary

WORDS = st.sampled_from([f"kw{i}" for i in range(10)])
COORDS = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)


class TestPaperExample:
    def test_returns_p1(self, paper_data_objects, paper_feature_objects, paper_query):
        baseline = IndexedCentralizedSPQ(paper_data_objects, paper_feature_objects)
        result = baseline.evaluate(paper_query)
        assert result.object_ids() == ["p1"]
        assert result.scores() == [pytest.approx(1.0)]

    def test_stats_report_index_usage(self, paper_data_objects, paper_feature_objects, paper_query):
        baseline = IndexedCentralizedSPQ(paper_data_objects, paper_feature_objects)
        stats = baseline.evaluate(paper_query).stats
        assert stats["algorithm"] == "centralized-indexed"
        assert stats["features_examined"] >= 1
        assert stats["candidate_features"] == 3   # f1, f4, f7 contain "italian"
        assert stats["rtree_nodes_accessed"] >= 1
        assert stats["rtree_height"] >= 1

    def test_examines_fewer_features_than_candidates_when_possible(
        self, paper_data_objects, paper_feature_objects
    ):
        baseline = IndexedCentralizedSPQ(paper_data_objects, paper_feature_objects)
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        stats = baseline.evaluate(query).stats
        # f4 has score 1.0 and a hotel within range, so the scan stops there.
        assert stats["features_examined"] == 1


class TestAgainstOracle:
    def test_matches_oracle_on_generated_data(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        vocabulary = Vocabulary.from_features(features)
        baseline = IndexedCentralizedSPQ(data, features)
        oracle = CentralizedSPQ(data, features)
        for num_keywords in (1, 3, 5):
            query = SpatialPreferenceQuery.create(
                k=10, radius=4.0, keywords=set(vocabulary.most_frequent(num_keywords))
            )
            expected = oracle.evaluate_exhaustive(query)
            actual = baseline.evaluate(query)
            assert actual.scores() == pytest.approx(expected.scores())

    def test_result_padded_to_k_with_zero_scores(self):
        data = [DataObject(f"p{i}", float(i), 0.0) for i in range(6)]
        features = [FeatureObject("f", 100.0, 100.0, {"kw"})]
        baseline = IndexedCentralizedSPQ(data, features)
        query = SpatialPreferenceQuery.create(k=4, radius=1.0, keywords={"kw"})
        result = baseline.evaluate(query)
        assert len(result) == 4
        assert result.scores() == [0.0, 0.0, 0.0, 0.0]

    def test_index_reused_across_queries(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        baseline = IndexedCentralizedSPQ(data, features)
        first_tree = baseline.rtree
        baseline.evaluate(SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"w0001"}))
        baseline.evaluate(SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"w0002"}))
        assert baseline.rtree is first_tree


class TestPropertyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        num_data=st.integers(min_value=1, max_value=25),
        num_features=st.integers(min_value=1, max_value=25),
        coords=st.data(),
        k=st.integers(min_value=1, max_value=5),
        radius=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        keywords=st.frozensets(WORDS, min_size=1, max_size=4),
    )
    def test_indexed_baseline_matches_oracle(
        self, num_data, num_features, coords, k, radius, keywords
    ):
        data = [
            DataObject(f"p{i}", coords.draw(COORDS), coords.draw(COORDS))
            for i in range(num_data)
        ]
        features = [
            FeatureObject(
                f"f{i}", coords.draw(COORDS), coords.draw(COORDS),
                coords.draw(st.frozensets(WORDS, min_size=1, max_size=5)),
            )
            for i in range(num_features)
        ]
        query = SpatialPreferenceQuery(k=k, radius=radius, keywords=keywords)
        expected = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        actual = IndexedCentralizedSPQ(data, features).evaluate(query)
        assert actual.scores() == pytest.approx(expected.scores())
