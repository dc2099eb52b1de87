"""Inverted keyword index over feature objects.

Centralized spatio-textual systems (the related work the paper contrasts
against) pair a spatial index with an inverted index: for each keyword, the
list of feature objects containing it.  The index supports the two lookups
the indexed baseline needs:

* the union of posting lists for a query keyword set (the candidate features
  that can have non-zero Jaccard score), and
* candidate features ordered by their exact score against a query, which is
  what ``eSPQsco`` achieves in a distributed way through its sort order.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.objects import FeatureObject
from repro.text.similarity import non_spatial_score


class InvertedIndex:
    """Keyword -> feature-object posting lists."""

    def __init__(self, features: Iterable[FeatureObject] = ()) -> None:
        self._postings: Dict[str, List[FeatureObject]] = defaultdict(list)
        self._num_features = 0
        for feature in features:
            self.add(feature)

    def add(self, feature: FeatureObject) -> None:
        """Index one feature object under each of its keywords."""
        self._num_features += 1
        for keyword in feature.keywords:
            self._postings[keyword].append(feature)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._num_features

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct indexed keywords."""
        return len(self._postings)

    def postings(self, keyword: str) -> List[FeatureObject]:
        """Posting list of one keyword (empty list if unknown)."""
        return list(self._postings.get(keyword, ()))

    def document_frequency(self, keyword: str) -> int:
        """Number of features containing ``keyword``."""
        return len(self._postings.get(keyword, ()))

    def candidates(self, keywords: Iterable[str]) -> Set[FeatureObject]:
        """Features sharing at least one keyword with the query (non-zero Jaccard)."""
        result: Set[FeatureObject] = set()
        for keyword in keywords:
            result.update(self._postings.get(keyword, ()))
        return result

    def scored_candidates(
        self, keywords: Sequence[str] | Set[str]
    ) -> List[Tuple[FeatureObject, float]]:
        """Candidates with their exact Jaccard score, best first.

        This is the centralized analogue of the ``eSPQsco`` reducer order:
        processing candidates in this order allows terminating as soon as
        enough data objects have been matched.
        """
        keyword_set = frozenset(keywords)
        scored = [
            (feature, non_spatial_score(feature.keywords, keyword_set))
            for feature in self.candidates(keyword_set)
        ]
        scored.sort(key=lambda pair: (-pair[1], pair[0].oid))
        return scored


class PositionalInvertedIndex(InvertedIndex):
    """Inverted index whose postings are insertion positions, not objects.

    The distributed engine needs candidates *in storage order* (the order the
    map phase would have streamed them) so that batch execution reproduces the
    sequential shuffle ordering bit-for-bit.  A plain set of candidate
    features cannot provide that -- and would silently deduplicate equal
    feature objects -- so this subclass posts, per keyword, the 0-based
    positions at which matching features were added.  That is its only
    posting structure: the object-returning lookups of the base class derive
    their features from the positions through the insertion-ordered feature
    list, instead of every posting being stored twice.

    Each list is held in ``(|f.W|, position)`` order, the order eSPQlen
    reads features in: :meth:`size_walk` opens a query's lists one feature
    size at a time, so a scan bounded by Equation 1 counts only the short
    prefixes its answer can come from.  The lookups that return positions
    (:meth:`positions`, :meth:`candidate_positions`) still return them
    ascending.
    """

    def __init__(self, features: Iterable[FeatureObject] = ()) -> None:
        super().__init__()
        self._features: List[FeatureObject] = list(features)
        self._num_features = len(self._features)
        #: Position -> ``|f.W|``, the key of every list's order.
        self.sizes: List[int] = [len(feature.keywords) for feature in self._features]
        # Walking the features shortest first fills every list in order:
        # no list is sorted on its own.
        postings = self._postings
        for position in sorted(range(len(self.sizes)), key=self.sizes.__getitem__):
            for keyword in self._features[position].keywords:
                postings[keyword].append(position)

    def add(self, feature: FeatureObject) -> None:
        """Append one feature and index its keywords by storage position,
        last among the postings of its size."""
        position = len(self._features)
        self._features.append(feature)
        self.sizes.append(len(feature.keywords))
        self._num_features += 1
        size = self.sizes[position]
        for keyword in feature.keywords:
            postings = self._postings[keyword]
            postings.insert(bisect_size(postings, self.sizes, size), position)

    def fold(
        self, renumber: Optional[Sequence[int]], appended: Iterable[FeatureObject]
    ) -> "PositionalInvertedIndex":
        """The index of this one's surviving features, then ``appended``.

        ``renumber`` maps each position to its successor position, or to
        -1 for a dropped feature (None: every feature survives, positions
        unchanged).  The result equals indexing the survivors and then
        ``appended`` from scratch, vocabulary included: ``renumber`` is
        monotone, so every list keeps its ``(|f.W|, position)`` order, an
        appended position goes last among its size's, and a word left
        without postings is gone.  This index is consumed -- each posting
        list moves into the result, renumbered in place one at a time --
        and serves no more.
        """
        folded = PositionalInvertedIndex()
        postings, self._postings = self._postings, defaultdict(list)
        features, self._features = self._features, []
        sizes, self.sizes = self.sizes, []
        if renumber is None:
            folded._postings, folded._features, folded.sizes = postings, features, sizes
        else:
            # Only the dropped features' words have a position to remove.
            dropped = {
                word
                for feature, new in zip(features, renumber) if new < 0
                for word in feature.keywords
            }
            for word in list(postings):
                positions = postings.pop(word)
                if len(positions) > 1:
                    positions[:] = itemgetter(*positions)(renumber)  # one C-level pass
                else:
                    positions[0] = renumber[positions[0]]
                if word in dropped:
                    positions = [new for new in positions if new >= 0]
                if positions:
                    folded._postings[word] = positions
            folded._features = [f for f, new in zip(features, renumber) if new >= 0]
            folded.sizes = [size for size, new in zip(sizes, renumber) if new >= 0]
        folded._num_features = len(folded._features)
        for feature in appended:
            folded.add(feature)
        return folded

    def positions(self, keyword: str) -> List[int]:
        """Insertion positions of the features containing ``keyword``,
        ascending."""
        return sorted(self._postings.get(keyword, ()))

    def keyword_hits(self, keywords: Iterable[str]) -> "Counter[int]":
        """Position -> ``|f.W ∩ q.W|`` for every feature sharing a keyword.

        One walk over the query's posting lists: a feature is posted once
        per keyword it holds, so its count over the distinct query keywords
        is the size of the intersection -- the integer ``jaccard`` divides.
        """
        postings = self._postings
        return Counter(
            chain.from_iterable(postings.get(word, ()) for word in frozenset(keywords))
        )

    def size_walk(self, keywords: Iterable[str]) -> "SizeWalk":
        """The query's posting lists, to be opened by growing ``|f.W|``."""
        lists = [self._postings[word] for word in frozenset(keywords) if word in self._postings]
        return SizeWalk(lists, self.sizes)

    def candidate_positions(self, keywords: Iterable[str]) -> List[int]:
        """Positions of features sharing a keyword with the query, ascending.

        Ascending position order *is* storage order, which makes the result
        directly usable as a filtered map-phase input stream.
        """
        return sorted(self.keyword_hits(keywords))

    def postings(self, keyword: str) -> List[FeatureObject]:
        """Posting list of one keyword (empty list if unknown)."""
        return [self._features[position] for position in self.positions(keyword)]

    def candidates(self, keywords: Iterable[str]) -> Set[FeatureObject]:
        """Features sharing at least one keyword with the query (non-zero Jaccard)."""
        return {
            self._features[position]
            for position in self.candidate_positions(keywords)
        }


def _bisect_size_keyed(postings: List[int], sizes: Sequence[int], size: int, lo: int = 0) -> int:
    """The end of the prefix of ``postings`` (a ``(|f.W|, position)``
    ordered list, ``sizes`` giving each position's ``|f.W|``) whose features
    have at most ``size`` keywords, searched from ``lo`` on."""
    return bisect_right(postings, size, lo, key=sizes.__getitem__)


def _bisect_size_loop(postings: List[int], sizes: Sequence[int], size: int, lo: int = 0) -> int:
    """:func:`_bisect_size_keyed` written out, for ``bisect`` without ``key``."""
    hi = len(postings)
    while lo < hi:
        mid = (lo + hi) // 2
        if size < sizes[postings[mid]]:
            hi = mid
        else:
            lo = mid + 1
    return lo


#: ``bisect`` takes a ``key`` from Python 3.10 on; before that the loop
#: gives the same answer, slower.
bisect_size = _bisect_size_keyed if sys.version_info >= (3, 10) else _bisect_size_loop


class SizeWalk:
    """A query's posting lists, opened one feature size at a time.

    Every list is in ``(|f.W|, position)`` order, so the postings of the
    features of at most ``s`` keywords are one prefix of each list,
    found by bisection on ``|f.W|``.  All postings of one feature share
    its size, so a step that opens a size opens all of them at once, and
    the count it returns per feature is the whole ``|f.W ∩ q.W|``.
    """

    __slots__ = ("_lists", "_cursors", "_sizes")

    def __init__(self, lists: List[List[int]], sizes: Sequence[int]) -> None:
        self._lists = lists
        self._cursors = [0] * len(lists)
        self._sizes = sizes

    def next_size(self) -> Optional[int]:
        """The least ``|f.W|`` not opened yet (None once all are open):
        no unopened feature is shorter."""
        heads = [lst[at] for lst, at in zip(self._lists, self._cursors) if at < len(lst)]
        return min(map(self._sizes.__getitem__, heads), default=None)

    def open(self, size: int) -> "Counter[int]":
        """Position -> ``|f.W ∩ q.W|`` of every feature of at most ``size``
        keywords that no earlier call opened."""
        segments = []
        cursors = self._cursors
        for slot, postings in enumerate(self._lists):
            start = cursors[slot]
            end = cursors[slot] = bisect_size(postings, self._sizes, size, start)
            segments.append(postings[start:end])
        return Counter(chain.from_iterable(segments))
