"""A feature's keywords are a sorted tuple of distinct, interned words.

``FeatureObject.keywords`` is the canonical form of ``f.W``: every producer
(the generators, the record parser, the wire decoder, the cluster's
dataset hand-off) emits it, and the constructor normalises anything else to it.  These tests
pin that contract, what it costs in memory, that the renderings of a
feature did not change, and that a bare string is refused rather than
split into its characters.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc
from operator import is_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.spawn import attach_dataset, publish_dataset
from repro.datagen import generate_uniform, load_dataset, save_dataset
from repro.datagen.synthetic import SyntheticDatasetConfig
from repro.model.objects import FeatureObject, keyword_tuple
from repro.model.query import SpatialPreferenceQuery
from repro.server.protocol import decode_objects, encode_objects

#: Words a record can carry: no field or keyword separator, no line break,
#: no lone surrogate (records are UTF-8).
WORDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=",\t\r\n"),
    min_size=1,
    max_size=6,
)
WORD_LISTS = st.lists(WORDS, max_size=12)


class TestCanonicalForm:
    @given(WORD_LISTS, st.sampled_from([list, tuple, set, frozenset, iter]))
    def test_any_iterable_normalises_to_the_sorted_distinct_tuple(self, words, kind):
        feature = FeatureObject("f", 0.0, 0.0, kind(words))
        assert type(feature.keywords) is tuple
        assert feature.keywords == tuple(sorted(set(words)))

    @given(WORD_LISTS, WORD_LISTS)
    def test_equal_exactly_when_the_keyword_sets_are_equal(self, left, right):
        a = FeatureObject("f", 1.0, 2.0, left)
        b = FeatureObject("f", 1.0, 2.0, reversed(right))
        assert (a == b) == (set(left) == set(right))
        if a == b:
            assert hash(a) == hash(b)

    @given(WORD_LISTS, st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_renderings_are_those_of_the_sorted_frozenset(self, words, x, y):
        feature = FeatureObject("f7", x, y, words)
        old_words = sorted(frozenset(words))
        old_record = f"f7\t{x!r}\t{y!r}\t{','.join(old_words)}"
        assert feature.to_record().encode("utf-8") == old_record.encode("utf-8")
        old_wire = [{"oid": "f7", "x": x, "y": y, "keywords": old_words}]
        assert json.dumps(encode_objects([feature])) == json.dumps(old_wire)
        assert FeatureObject.from_record(feature.to_record()) == feature
        assert decode_objects(encode_objects([feature]), True) == [feature]

    def test_parsing_drops_empty_words(self):
        assert FeatureObject.from_record("f\t0\t0\t,b,,a,").keywords == ("a", "b")

    def test_has_common_keyword_bisects_instead_of_scanning(self):
        comparisons = []

        class Word(str):
            def __lt__(self, other):
                comparisons.append(self)
                return str.__lt__(self, other)

            def __eq__(self, other):
                comparisons.append(self)
                return str.__eq__(self, other)

            __hash__ = str.__hash__

        words = tuple(Word(f"w{i:05d}") for i in range(4096))
        feature = FeatureObject("f", 0.0, 0.0, words)
        assert feature.keywords is words
        comparisons.clear()
        assert feature.has_common_keyword(["a", "w02000", "zz"])
        # ~log2(4096) = 12 comparisons per bisection, plus one equality
        # test; a scan would make thousands.
        assert len(comparisons) <= 3 * 14


class TestInterning:
    def test_equal_words_parsed_from_two_records_are_one_object(self):
        first = FeatureObject.from_record("f1\t0\t0\tbar,cafe")
        second = FeatureObject.from_record("f2\t1\t1\tcafe,zoo")
        assert first.keywords[1] is second.keywords[0]

    def test_wire_and_columns_share_the_parsed_words(self):
        fresh = "".join(["pi", "er"])  # built at run time, so not interned
        row = {"oid": "f2", "x": 0, "y": 0, "keywords": [fresh]}
        (decoded,) = decode_objects([row], True)
        _, (attached,) = attach_dataset(publish_dataset([], [decoded]))
        parsed = FeatureObject.from_record("f1\t0\t0\tpier")
        assert decoded.keywords[0] is parsed.keywords[0]
        assert attached.keywords[0] is parsed.keywords[0]
        assert attached.keywords[0] is sys.intern("pier")


class TestBareStringIsRefused:
    def test_feature_object(self):
        with pytest.raises(TypeError, match="not the string 'cafe'"):
            FeatureObject("f", 0, 0, "cafe")
        with pytest.raises(TypeError):
            keyword_tuple("cafe")

    def test_query_create(self):
        with pytest.raises(TypeError, match="'cafe'"):
            SpatialPreferenceQuery.create(k=1, radius=1.0, keywords="cafe")
        with pytest.raises(TypeError, match="'cafe'"):
            SpatialPreferenceQuery(k=1, radius=1.0, keywords="cafe")

    def test_wire_objects(self):
        row = {"oid": "f1", "x": 1, "y": 2, "keywords": "cafe,bar"}
        with pytest.raises(ValueError, match="malformed inline object"):
            decode_objects([row], True)


#: Bytes a materialised keyword may cost (a tuple slot is 8), and bytes a
#: materialised object may cost besides its keywords (instance, attribute
#: dict, oid, two floats, tuple header).  A frozenset costs ~68 B a word.
BYTES_PER_KEYWORD = 16
BYTES_PER_OBJECT = 400


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform(SyntheticDatasetConfig(num_objects=2000, seed=5))


def _retained(build):
    """Bytes still allocated after ``build()`` returns (its result kept)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, retained


class TestResidentCost:
    def test_features_from_columns(self, dataset):
        # The dataset as a cluster node builds it from the spawner's file.
        data, features = dataset
        fd = publish_dataset(data, features)
        rebuilt, retained = _retained(lambda: attach_dataset(fd))
        assert rebuilt == (data, features)
        # Each keyword is the interned word itself, not an equal copy.
        for got, want in zip(rebuilt[1], features):
            assert all(map(is_, got.keywords, want.keywords))
        keywords = sum(len(f.keywords) for f in features)
        objects = len(data) + len(features)
        assert retained <= BYTES_PER_KEYWORD * keywords + BYTES_PER_OBJECT * objects

    def test_objects_from_a_dataset_file(self, dataset, tmp_path):
        data, features = dataset
        path = tmp_path / "dataset.tsv"
        save_dataset(path, data, features)
        loaded, retained = _retained(lambda: load_dataset(path))
        assert loaded == (data, features)
        keywords = sum(len(f.keywords) for f in features)
        objects = len(data) + len(features)
        assert retained <= BYTES_PER_KEYWORD * keywords + BYTES_PER_OBJECT * objects
