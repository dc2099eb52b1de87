"""Unit tests for the UN/CL synthetic dataset generators."""

from __future__ import annotations


import pytest

from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.spatial.geometry import BoundingBox


class TestConfigValidation:
    def test_rejects_too_few_objects(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(num_objects=1)

    def test_rejects_bad_keyword_range(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(min_keywords=10, max_keywords=5)

    def test_rejects_zero_vocabulary(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(vocabulary_size=0)

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(num_clusters=0)

    def test_vocabulary_has_requested_size(self):
        config = SyntheticDatasetConfig(vocabulary_size=50)
        assert len(config.vocabulary()) == 50
        assert len(set(config.vocabulary())) == 50


class TestUniformGeneration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_uniform(SyntheticDatasetConfig(num_objects=2_000, seed=5))

    def test_half_data_half_features(self, dataset):
        data, features = dataset
        assert len(data) == 1_000
        assert len(features) == 1_000

    def test_all_objects_inside_extent(self, dataset):
        data, features = dataset
        extent = SyntheticDatasetConfig().extent
        for obj in list(data) + list(features):
            assert extent.contains(obj.x, obj.y)

    def test_keyword_counts_within_configured_range(self, dataset):
        _, features = dataset
        for feature in features:
            assert 10 <= feature.keyword_count <= 100

    def test_keywords_come_from_vocabulary(self, dataset):
        _, features = dataset
        vocabulary = set(SyntheticDatasetConfig().vocabulary())
        for feature in features[:100]:
            assert vocabulary.issuperset(feature.keywords)

    def test_object_ids_are_unique(self, dataset):
        data, features = dataset
        ids = [o.oid for o in data] + [f.oid for f in features]
        assert len(set(ids)) == len(ids)

    def test_generation_is_deterministic_under_seed(self):
        config = SyntheticDatasetConfig(num_objects=200, seed=9)
        assert generate_uniform(config) == generate_uniform(config)

    def test_different_seeds_differ(self):
        first = generate_uniform(SyntheticDatasetConfig(num_objects=200, seed=1))
        second = generate_uniform(SyntheticDatasetConfig(num_objects=200, seed=2))
        assert first != second

    def test_positions_cover_the_space(self, dataset):
        """Uniform data should spread across all four quadrants of the extent."""
        data, _ = dataset
        quadrants = {(obj.x > 50.0, obj.y > 50.0) for obj in data}
        assert len(quadrants) == 4


class TestClusteredGeneration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_clustered(SyntheticDatasetConfig(num_objects=2_000, seed=5))

    def test_half_data_half_features(self, dataset):
        data, features = dataset
        assert len(data) == 1_000
        assert len(features) == 1_000

    def test_all_objects_inside_extent(self, dataset):
        data, features = dataset
        extent = SyntheticDatasetConfig().extent
        for obj in list(data) + list(features):
            assert extent.contains(obj.x, obj.y)

    def test_clustered_is_more_concentrated_than_uniform(self):
        """Clustered positions have a much smaller average nearest-cluster spread
        than uniform ones; compare dispersion via coordinate stdev within the
        busiest 10x10 bucket."""
        config = SyntheticDatasetConfig(num_objects=2_000, seed=5)
        uniform_data, _ = generate_uniform(config)
        clustered_data, _ = generate_clustered(config)

        def occupancy(points):
            buckets = {}
            for obj in points:
                key = (int(obj.x // 10), int(obj.y // 10))
                buckets[key] = buckets.get(key, 0) + 1
            return max(buckets.values()) / len(points)

        assert occupancy(clustered_data) > 2 * occupancy(uniform_data)

    def test_custom_extent_respected(self):
        config = SyntheticDatasetConfig(
            num_objects=500, extent=BoundingBox(-10, -10, 10, 10), seed=3
        )
        data, features = generate_clustered(config)
        for obj in list(data) + list(features):
            assert config.extent.contains(obj.x, obj.y)

    def test_deterministic_under_seed(self):
        config = SyntheticDatasetConfig(num_objects=300, seed=21)
        assert generate_clustered(config) == generate_clustered(config)
