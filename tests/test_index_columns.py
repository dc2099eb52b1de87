"""Columnar data plane: framed sections, column groups, blocks."""

from __future__ import annotations

import random
from array import array

import pytest

from repro.index.columns import (
    ColumnStore,
    DataBlock,
    DataColumns,
    FeatureColumns,
    pack_sections,
    unpack_sections,
)
from repro.model.objects import DataObject, FeatureObject


def make_data(count: int, seed: int = 7):
    rng = random.Random(seed)
    return [
        DataObject(f"p{i:04d}", rng.uniform(-50, 50), rng.uniform(-50, 50))
        for i in range(count)
    ]


def make_features(count: int, seed: int = 8):
    rng = random.Random(seed)
    vocabulary = [f"w{n}" for n in range(30)]
    return [
        FeatureObject(
            f"f{i:04d}",
            rng.uniform(-50, 50),
            rng.uniform(-50, 50),
            frozenset(rng.sample(vocabulary, rng.randint(0, 5))),
        )
        for i in range(count)
    ]


class TestSectionFraming:
    def test_round_trip_and_alignment(self):
        sections = [
            (b"AAAA", b"hello"),
            (b"BBBB", array("d", [1.5, -2.25])),
            (b"CCCC", b""),
        ]
        blob = pack_sections(sections)
        views = unpack_sections(blob)
        assert bytes(views[b"AAAA"]) == b"hello"
        assert views[b"BBBB"].cast("d").tolist() == [1.5, -2.25]
        assert bytes(views[b"CCCC"]) == b""
        # Every section starts 8-byte aligned so memoryview casts are legal.
        for tag in views:
            # A cast to doubles requires alignment; 'd' casts must not raise.
            assert len(bytes(views[tag])) == len(views[tag])

    def test_double_sections_cast_zero_copy(self):
        xs = array("d", [0.1, 0.2, 0.3])
        blob = pack_sections([(b"ODDS", b"xyz"), (b"DBLS", xs)])
        view = unpack_sections(blob)[b"DBLS"].cast("d")
        assert list(view) == xs.tolist()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_sections(b"NOPE" + b"\x00" * 32)

    def test_truncated_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_sections(b"RP")

    def test_bad_tag_length_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            pack_sections([(b"TOOLONG", b"x")])


class TestDataColumns:
    def test_round_trip_is_exact(self):
        objects = make_data(40)
        columns = DataColumns.from_objects(objects)
        rebuilt = ColumnStore.attach(
            ColumnStore(data=columns).to_bytes()
        ).data.to_objects()
        assert rebuilt == objects
        # Bit-for-bit doubles, not approximate equality.
        assert [o.x for o in rebuilt] == [o.x for o in objects]

    def test_empty_dataset(self):
        columns = DataColumns.from_objects([])
        assert len(columns) == 0
        attached = ColumnStore.attach(ColumnStore(data=columns).to_bytes())
        assert attached.data.to_objects() == []

    def test_unicode_oids(self):
        objects = [DataObject("pé-中文", 1.0, 2.0)]
        attached = ColumnStore.attach(
            ColumnStore(data=DataColumns.from_objects(objects)).to_bytes()
        )
        assert attached.data.to_objects() == objects

    def test_object_at_matches_source(self):
        objects = make_data(10)
        columns = DataColumns.from_objects(objects)
        assert [columns.object_at(i) for i in range(10)] == objects


class TestFeatureColumns:
    def test_round_trip_rebuilds_equal_keyword_sets(self):
        objects = make_features(40)
        attached = ColumnStore.attach(
            ColumnStore(features=FeatureColumns.from_objects(objects)).to_bytes()
        )
        rebuilt = attached.features.to_objects()
        assert rebuilt == objects
        assert [o.keywords for o in rebuilt] == [o.keywords for o in objects]

    def test_keyword_count_avoids_materialization(self):
        objects = make_features(25)
        columns = FeatureColumns.from_objects(objects)
        for index, obj in enumerate(objects):
            assert columns.keyword_count(index) == len(obj.keywords)

    def test_vocabulary_is_sorted_union(self):
        objects = make_features(25)
        columns = FeatureColumns.from_objects(objects)
        expected = sorted({w for o in objects for w in o.keywords})
        assert columns.vocabulary == expected

    def test_empty_keyword_sets_round_trip(self):
        objects = [FeatureObject("f0", 0.0, 0.0, frozenset())]
        columns = FeatureColumns.from_objects(objects)
        assert columns.to_objects() == objects


class TestColumnStore:
    def test_partial_stores(self):
        data = make_data(12)
        features = make_features(9)
        only_data = ColumnStore.attach(
            ColumnStore.from_datasets(data_objects=data).to_bytes()
        )
        assert only_data.data is not None
        assert only_data.features is None
        both = ColumnStore.attach(
            ColumnStore.from_datasets(
                data_objects=data, feature_objects=features
            ).to_bytes()
        )
        assert both.data.to_objects() == data
        assert both.features.to_objects() == features

    def test_detach_drops_views(self):
        store = ColumnStore.attach(
            ColumnStore.from_datasets(data_objects=make_data(5)).to_bytes()
        )
        store.detach()
        assert store.data is None and store.features is None


class TestDataBlock:
    def test_candidate_rows_is_exact_window(self):
        rng = random.Random(11)
        objects = [
            DataObject(f"p{i}", rng.uniform(-10, 10), 0.0) for i in range(300)
        ]
        block = DataBlock.from_objects(1, objects)
        for _ in range(25):
            low = rng.uniform(-12, 10)
            high = low + rng.uniform(0, 5)
            rows = block.candidate_rows(low, high)
            expected = {i for i, o in enumerate(objects) if low <= o.x <= high}
            assert set(rows) == expected
            # Returned in x-sorted order for cache-friendly scans.
            assert [objects[r].x for r in rows] == sorted(
                objects[r].x for r in rows
            )

    def test_columns_parallel_to_objects(self):
        objects = make_data(20)
        block = DataBlock.from_objects(3, objects)
        assert block.group == 3
        assert len(block) == 20
        assert block.xs == [o.x for o in objects]
        assert block.ys == [o.y for o in objects]
        assert block.oids == [o.oid for o in objects]
