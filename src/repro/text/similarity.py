"""Jaccard similarity and the keyword-length upper bound (paper Defn. 1, Eq. 1).

``w(f, q) = |q.W ∩ f.W| / |q.W ∪ f.W|`` ranges in [0, 1].

For ``eSPQlen`` the reducer accesses feature objects by increasing keyword
count; the best Jaccard score any unseen feature object with ``|f.W|`` keywords
can achieve against a query with ``|q.W|`` keywords is

    w̄(f, q) = 1                      if |f.W| <  |q.W|
    w̄(f, q) = |q.W| / |f.W|          if |f.W| >= |q.W|

which is monotonically non-increasing along the access order, enabling safe
early termination (Lemma 2).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Set, Tuple, Union

from repro.model.objects import shared_words

#: A query's word set, or a feature's canonical keyword tuple (sorted,
#: distinct: :func:`repro.model.objects.keyword_tuple`).
KeywordSet = Union[AbstractSet[str], Tuple[str, ...]]


def jaccard(left: KeywordSet, right: KeywordSet) -> float:
    """Jaccard similarity of two keyword sets.

    A side that is a keyword tuple is probed by bisection with the other
    side's words; two sets intersect as sets.  Returns 0.0 when both are
    empty (the conventional choice; the paper never evaluates this case
    because queries have non-empty keyword sets).
    """
    if not left and not right:
        return 0.0
    if isinstance(right, tuple):
        left, right = right, left
    if isinstance(left, tuple):
        intersection = shared_words(left, right)
    else:
        left = frozenset(left)
        right = frozenset(right)
        intersection = len(left & right)
    if intersection == 0:
        return 0.0
    union = len(left) + len(right) - intersection
    return intersection / union


def non_spatial_score(feature_keywords: KeywordSet, query_keywords: KeywordSet) -> float:
    """The paper's non-spatial score ``w(f, q)`` (Definition 1)."""
    return jaccard(feature_keywords, query_keywords)


class JaccardScorer:
    """Memoizing Jaccard scorer bound to one query keyword set.

    ``w(f, q)`` is a pure function of the two sets, and one query evaluates
    it against the same feature once per duplicated copy (Lemma 1
    duplication) -- so the score is computed once per distinct keyword
    tuple and memoized under it.  A tuple rehashes on every probe, and the
    probe is still cheaper than the bisections: on one record-route
    eSPQsco query (8 000 objects, r = 5, grid 12) 5 140 calls over 621
    features took 2.7 ms memoized and 4.5 ms not.  Every float is
    :func:`jaccard`'s division over the same integers, so scores, results
    and the engine's work counters (the cost model's logical computations)
    are unchanged by the memo.

    The memo lives for one query (one scorer per job instance).
    """

    __slots__ = ("query_keywords", "_memo")

    def __init__(self, query_keywords: KeywordSet) -> None:
        self.query_keywords = frozenset(query_keywords)
        self._memo: dict = {}

    def score(self, feature_keywords: Tuple[str, ...]) -> float:
        """``w(f, q)`` for one feature's keyword tuple (memoized)."""
        memo = self._memo
        cached = memo.get(feature_keywords)
        if cached is None:
            cached = jaccard(feature_keywords, self.query_keywords)
            memo[feature_keywords] = cached
        return cached


def upper_bound_for_length(feature_length: int, query_length: int) -> float:
    """Best possible Jaccard score for a feature object with ``feature_length`` keywords.

    This is Equation (1): while ``|f.W| < |q.W|`` no bound better than 1 can be
    given (a later, longer feature object might still score higher), and once
    ``|f.W| >= |q.W|`` the best case is a full containment of ``q.W`` in
    ``f.W``, giving ``|q.W| / |f.W|``.

    Raises:
        ValueError: if either length is negative or the query length is zero.
    """
    if feature_length < 0:
        raise ValueError(f"feature keyword count must be >= 0, got {feature_length}")
    if query_length <= 0:
        raise ValueError(f"query keyword count must be >= 1, got {query_length}")
    if feature_length < query_length:
        return 1.0
    return query_length / feature_length


def jaccard_upper_bound(feature_keywords: KeywordSet, query_keywords: KeywordSet) -> float:
    """Equation (1) applied to concrete keyword sets: ``w̄(f, q)``."""
    return upper_bound_for_length(len(frozenset(feature_keywords)), len(frozenset(query_keywords)))


def keyword_overlap(left: Iterable[str], right: AbstractSet[str]) -> Set[str]:
    """Return the set of keywords present in both collections."""
    return {word for word in left if word in right}
