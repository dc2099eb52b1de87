"""``TopKList`` and ``merge_top_k`` against the parent versions (``topk_oracle``).

Every reducer, the centralized oracle and the raw record stream share the
production list, so this differential is the only gate that can catch a bug
in it.  Inputs are built to hit what a cached ``tau`` and native ordering
could get wrong: a small oid pool (re-offers that improve and re-offers that
do not), scores from a small set (ties at ``tau``, ``0.0`` against ``-0.0``),
and sequences long enough to cross the ``4k`` prune.  Floats are compared by
``repr``, so the sign of a zero counts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.model.objects import DataObject
from repro.model.result import ScoredObject, TopKList, merge_top_k
from topk_oracle import TopKList as OracleTopKList
from topk_oracle import merge_top_k as oracle_merge_top_k

SCORES = st.sampled_from([-0.0, 0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0])


@st.composite
def offer_sequences(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    # Up to 5k + 4 distinct oids: enough live entries to pass 4k and prune.
    pool = draw(st.integers(min_value=1, max_value=5 * k + 4))
    objects = [DataObject(f"o{index:02d}", 0.0, 0.0) for index in range(pool)]
    offers = draw(st.lists(
        st.tuples(st.sampled_from(objects), SCORES), min_size=1, max_size=12 * k + 20,
    ))
    return k, offers


class TestTopKListMatchesOracle:
    @settings(max_examples=600, deadline=None)
    @given(case=offer_sequences())
    def test_every_offer_and_the_final_top_match(self, case):
        k, offers = case
        mine, oracle = TopKList(k), OracleTopKList(k)
        for obj, score in offers:
            assert mine.offer(obj, score) is oracle.offer(obj, score)
            assert len(mine) == len(oracle)
            assert repr(mine.threshold) == repr(oracle.threshold)
        expected = [(e.obj.oid, repr(e.score)) for e in oracle.top()]
        assert [(e.obj.oid, repr(e.score)) for e in mine.top()] == expected
        assert [(oid, repr(score)) for oid, score in mine.ranked()] == expected

    @settings(max_examples=200, deadline=None)
    @given(case=offer_sequences())
    def test_threshold_read_only_at_the_end_matches(self, case):
        # No read between offers: the cache must not depend on being polled.
        k, offers = case
        mine, oracle = TopKList(k), OracleTopKList(k)
        for obj, score in offers:
            mine.offer(obj, score)
            oracle.offer(obj, score)
        assert repr(mine.threshold) == repr(oracle.threshold)
        assert [e.obj.oid for e in mine.top()] == [e.obj.oid for e in oracle.top()]


@st.composite
def partial_lists(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    objects = [DataObject(f"o{index:02d}", 0.0, 0.0) for index in range(3 * k + 2)]
    entry = st.builds(ScoredObject, st.sampled_from(objects), SCORES)
    partials = draw(st.lists(st.lists(entry, max_size=2 * k), max_size=8))
    return k, partials


class TestMergeMatchesOracle:
    @settings(max_examples=500, deadline=None)
    @given(case=partial_lists())
    def test_scored_partials_and_plain_pairs_merge_like_the_heap(self, case):
        # Oids repeat across partials (and within one), scores tie in bulk.
        k, partials = case
        expected = [
            (e.obj.oid, repr(e.score)) for e in oracle_merge_top_k(partials, k)
        ]
        as_pairs = [[(e.obj, e.score) for e in partial] for partial in partials]
        for given_partials in (partials, as_pairs):
            merged = merge_top_k(given_partials, k)
            assert [(e.obj.oid, repr(e.score)) for e in merged] == expected
