"""Unit tests for the data/feature object model."""

from __future__ import annotations

import pytest

from repro.model.objects import DataObject, FeatureObject, SpatialObject


class TestSpatialObject:
    def test_location_tuple(self):
        obj = SpatialObject("o1", 1.5, -2.0)
        assert obj.location == (1.5, -2.0)

    def test_distance_is_euclidean(self):
        a = SpatialObject("a", 0.0, 0.0)
        b = SpatialObject("b", 3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a = SpatialObject("a", 1.0, 2.0)
        b = SpatialObject("b", -3.0, 7.5)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        a = SpatialObject("a", 1.0, 2.0)
        assert a.distance_to(a) == 0.0

    def test_objects_are_immutable(self):
        obj = SpatialObject("o1", 0.0, 0.0)
        with pytest.raises(AttributeError):
            obj.x = 5.0


class TestDataObject:
    def test_round_trip_through_record(self):
        obj = DataObject("p42", 12.25, -3.5)
        assert DataObject.from_record(obj.to_record()) == obj

    def test_from_record_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            DataObject.from_record("p1\t1.0")

    def test_from_record_rejects_non_numeric_coordinates(self):
        with pytest.raises(ValueError):
            DataObject.from_record("p1\tfoo\t2.0")

    def test_equality_and_hash(self):
        assert DataObject("p1", 1.0, 2.0) == DataObject("p1", 1.0, 2.0)
        assert hash(DataObject("p1", 1.0, 2.0)) == hash(DataObject("p1", 1.0, 2.0))
        assert DataObject("p1", 1.0, 2.0) != DataObject("p2", 1.0, 2.0)


class TestFeatureObject:
    def test_keywords_are_normalised_to_sorted_tuple(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords=["b", "a", "b"])
        assert feature.keywords == ("a", "b")
        assert type(feature.keywords) is tuple

    def test_keyword_count(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords={"x", "y", "z"})
        assert feature.keyword_count == 3

    def test_has_common_keyword_true(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords={"italian", "cheap"})
        assert feature.has_common_keyword({"italian", "sushi"})

    def test_has_common_keyword_false(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords={"greek"})
        assert not feature.has_common_keyword({"italian"})

    def test_has_common_keyword_empty_query(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords={"greek"})
        assert not feature.has_common_keyword(set())

    def test_round_trip_through_record(self):
        feature = FeatureObject("f9", 1.25, 2.5, keywords={"wine", "sushi"})
        assert FeatureObject.from_record(feature.to_record()) == feature

    def test_record_keywords_sorted_for_determinism(self):
        feature = FeatureObject("f9", 1.0, 2.0, keywords={"zeta", "alpha"})
        assert feature.to_record().endswith("alpha,zeta")

    def test_from_record_rejects_missing_keywords_field(self):
        with pytest.raises(ValueError):
            FeatureObject.from_record("f1\t1.0\t2.0")

    def test_from_record_with_empty_keyword_field(self):
        feature = FeatureObject.from_record("f1\t1.0\t2.0\t")
        assert feature.keywords == ()

    def test_feature_is_hashable(self):
        feature = FeatureObject("f1", 0.0, 0.0, keywords={"a"})
        assert feature in {feature}
