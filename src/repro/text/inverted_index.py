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

from bisect import bisect_left
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
    """

    def __init__(self, features: Iterable[FeatureObject] = ()) -> None:
        self._features: List[FeatureObject] = []
        super().__init__(features)

    def add(self, feature: FeatureObject) -> None:
        """Append one feature and index its keywords by storage position."""
        position = len(self._features)
        self._features.append(feature)
        self._num_features += 1
        for keyword in feature.keywords:
            self._postings[keyword].append(position)

    def fold(
        self, renumber: Optional[Sequence[int]], appended: Iterable[FeatureObject]
    ) -> "PositionalInvertedIndex":
        """The index of this one's surviving features, then ``appended``.

        ``renumber`` maps each position to its successor position, or to
        -1 for a dropped feature (None: every feature survives, positions
        unchanged).  The result equals indexing the survivors and then
        ``appended`` from scratch, vocabulary included: posting lists keep
        ascending order, and a word left without postings is gone.  This
        index is consumed -- each posting list moves into the result, and
        is shifted (then released) one at a time -- and serves no more.
        """
        folded = PositionalInvertedIndex()
        postings, self._postings = self._postings, defaultdict(list)
        features, self._features = self._features, []
        if renumber is None:
            folded._postings, folded._features = postings, features
        else:
            # Positions before the first dropped one keep their number, and
            # only the dropped features' words have a position to remove.
            first = renumber.index(-1)
            dropped = {
                word
                for feature, new in zip(features, renumber) if new < 0
                for word in feature.keywords
            }
            for word in list(postings):
                positions = postings.pop(word)
                cut = bisect_left(positions, first)
                shifted = positions[cut:]
                del positions[cut:]
                if word in dropped:
                    positions += [new for old in shifted if (new := renumber[old]) >= 0]
                elif len(shifted) > 1:
                    positions += itemgetter(*shifted)(renumber)  # one C-level pass
                elif shifted:
                    positions.append(renumber[shifted[0]])
                if positions:
                    folded._postings[word] = positions
            folded._features = [f for f, new in zip(features, renumber) if new >= 0]
        folded._num_features = len(folded._features)
        for feature in appended:
            folded.add(feature)
        return folded

    def positions(self, keyword: str) -> List[int]:
        """Insertion positions of the features containing ``keyword``."""
        return list(self._postings.get(keyword, ()))

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
