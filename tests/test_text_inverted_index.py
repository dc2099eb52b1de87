"""Unit tests for the inverted keyword index."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, strategies as st

from repro.model.objects import FeatureObject
from repro.text import inverted_index
from repro.text.inverted_index import InvertedIndex, PositionalInvertedIndex
from repro.text.similarity import non_spatial_score


@pytest.fixture()
def features():
    return [
        FeatureObject("f1", 0, 0, {"italian", "gourmet"}),
        FeatureObject("f2", 1, 1, {"chinese", "cheap"}),
        FeatureObject("f3", 2, 2, {"italian"}),
        FeatureObject("f4", 3, 3, {"italian", "cheap", "family"}),
    ]


@pytest.fixture()
def index(features):
    return InvertedIndex(features)


class TestConstruction:
    def test_len_counts_features(self, index):
        assert len(index) == 4

    def test_vocabulary_size(self, index):
        # Distinct keywords: italian, gourmet, chinese, cheap, family.
        assert index.vocabulary_size == 5

    def test_incremental_add(self, features):
        index = InvertedIndex()
        for feature in features:
            index.add(feature)
        assert len(index) == 4
        assert index.document_frequency("italian") == 3


class TestLookups:
    def test_postings(self, index):
        assert {f.oid for f in index.postings("italian")} == {"f1", "f3", "f4"}

    def test_unknown_keyword_empty_postings(self, index):
        assert index.postings("sushi") == []
        assert index.document_frequency("sushi") == 0

    def test_postings_are_copies(self, index):
        postings = index.postings("italian")
        postings.clear()
        assert index.document_frequency("italian") == 3

    def test_candidates_union(self, index):
        candidates = index.candidates({"italian", "cheap"})
        assert {f.oid for f in candidates} == {"f1", "f2", "f3", "f4"}

    def test_candidates_of_unknown_keywords(self, index):
        assert index.candidates({"sushi"}) == set()


class TestScoredCandidates:
    def test_sorted_by_decreasing_score(self, index):
        query = {"italian"}
        ranked = index.scored_candidates(query)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0][0].oid == "f3"  # exact match -> Jaccard 1.0

    def test_scores_are_exact_jaccard(self, index):
        query = {"italian", "cheap"}
        for feature, score in index.scored_candidates(query):
            assert score == pytest.approx(non_spatial_score(feature.keywords, query))

    def test_ties_broken_by_object_id(self, index):
        # f1 ({italian, gourmet}) and a same-shaped competitor tie at 0.5.
        ranked = index.scored_candidates({"italian"})
        tied = [feature.oid for feature, score in ranked if score == pytest.approx(1 / 2)]
        assert tied == sorted(tied)

    def test_empty_query_returns_nothing(self, index):
        assert index.scored_candidates(set()) == []


class TestSizeOrder:
    """Posting lists in ``(|f.W|, position)`` order, searched by size."""

    BISECTIONS = [inverted_index._bisect_size_loop] + (
        [inverted_index._bisect_size_keyed] if sys.version_info >= (3, 10) else []
    )

    @pytest.mark.parametrize("bisect", BISECTIONS, ids=lambda f: f.__name__)
    @given(
        sizes=st.lists(st.integers(1, 6), max_size=30),
        size=st.integers(0, 7),
        lo=st.integers(0, 30),
    )
    def test_bisection_ends_the_prefix_of_at_most_size(self, bisect, sizes, size, lo):
        postings = sorted(range(len(sizes)), key=sizes.__getitem__)
        lo = min(lo, len(postings))
        end = bisect(postings, sizes, size, lo)
        assert all(sizes[p] <= size for p in postings[lo:end])
        assert all(sizes[p] > size for p in postings[end:])

    def test_add_goes_last_among_its_size(self, features):
        index = PositionalInvertedIndex(features[:3])
        index.add(features[3])
        f5 = FeatureObject("f5", 4, 4, {"italian", "cheap"})
        index.add(f5)
        fresh = PositionalInvertedIndex([*features, f5])
        assert dict(index._postings) == dict(fresh._postings)
        assert index._postings["italian"] == [2, 0, 4, 3]
