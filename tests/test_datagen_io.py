"""Unit tests for dataset file IO."""

from __future__ import annotations

import pytest

from repro.datagen.io import load_dataset, load_features, load_objects, save_dataset
from repro.exceptions import DatasetFormatError
from repro.model.objects import DataObject, FeatureObject


@pytest.fixture()
def sample():
    data = [DataObject("p1", 1.0, 2.0), DataObject("p2", 3.5, -1.25)]
    features = [
        FeatureObject("f1", 0.5, 0.5, {"italian", "pizza"}),
        FeatureObject("f2", 9.0, 9.0, {"sushi"}),
    ]
    return data, features


class TestRoundTrip:
    def test_save_and_load(self, tmp_path, sample):
        data, features = sample
        path = tmp_path / "dataset.tsv"
        written = save_dataset(path, data, features)
        assert written == 4
        loaded_data, loaded_features = load_dataset(path)
        assert loaded_data == data
        assert sorted(loaded_features, key=lambda f: f.oid) == features

    def test_load_objects_and_features_separately(self, tmp_path, sample):
        data, features = sample
        path = tmp_path / "dataset.tsv"
        save_dataset(path, data, features)
        assert load_objects(path) == data
        assert len(load_features(path)) == 2

    def test_parent_directories_created(self, tmp_path, sample):
        data, features = sample
        path = tmp_path / "nested" / "dir" / "dataset.tsv"
        save_dataset(path, data, features)
        assert path.exists()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.tsv"
        save_dataset(path, [], [])
        assert load_dataset(path) == ([], [])


class TestParsing:
    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        path.write_text("# comment\n\np1\t1.0\t2.0\n")
        data, features = load_dataset(path)
        assert len(data) == 1
        assert features == []

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\t1.0\t2.0\nbroken line without tabs\n")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_dataset(path)
        assert "line 2" in str(excinfo.value)

    def test_non_numeric_coordinates_raise(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\tNOT_A_NUMBER\t2.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_too_many_fields_raise(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("f1\t1.0\t2.0\ta,b\textra\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_unicode_keywords_round_trip(self, tmp_path):
        features = [FeatureObject("f1", 0.0, 0.0, {"café", "ristorante"})]
        path = tmp_path / "unicode.tsv"
        save_dataset(path, [], features)
        _, loaded = load_dataset(path)
        assert loaded[0].keywords == ("café", "ristorante")
