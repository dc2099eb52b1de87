"""The sort-everything ``Lk`` -- an independent oracle for ``TopKList``.

The centralized oracle, ``tests/raw_oracle.py`` and both reduce loops
(columnar and ``tests/object_oracle.py``) all share
:class:`repro.model.result.TopKList`, so no identity gate between them can
catch a bug in it.  The class below is that ``TopKList`` verbatim as it
stood before PR 25 made ``tau`` a cached value over native
``(-score, oid, obj)`` tuples: every read of ``threshold`` and every prune
sorts all entries with ``ScoredObject.__lt__``.  It is slow on purpose and
shares nothing with the production list except :class:`ScoredObject`, whose
ordering is the contract both must honour.  :func:`merge_top_k` is the
parent's heap merge, kept verbatim the same way: the production merge now
dedupes plain ``(-score, oid, obj)`` keys in a dict.
``tests/test_topk_oracle.py`` runs each pair side by side.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, Iterator, List

from repro.model.objects import DataObject
from repro.model.result import ScoredObject


class TopKList:
    """Bounded list ``Lk`` of the best-scoring data objects seen so far.

    Supports score *updates*: a data object's score may improve as more
    feature objects are examined (Algorithm 2 line 12), so insertion with a
    higher score replaces the previous entry for the same object id.

    The structure keeps at most ``k`` entries and exposes ``threshold`` --
    the paper's ``tau``, i.e. the k-th best score so far, or 0.0 while fewer
    than ``k`` objects have been seen (any score can still enter the list).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        self._scores: Dict[str, ScoredObject] = {}

    @property
    def k(self) -> int:
        """Capacity of the list."""
        return self._k

    def __len__(self) -> int:
        return min(len(self._scores), self._k)

    @property
    def threshold(self) -> float:
        """The paper's ``tau``: score of the k-th best object, else 0.0."""
        if len(self._scores) < self._k:
            return 0.0
        return self._kth_best().score

    def _kth_best(self) -> ScoredObject:
        ordered = sorted(self._scores.values())
        return ordered[self._k - 1]

    def offer(self, obj: DataObject, score: float) -> bool:
        """Offer a (possibly improved) score for ``obj``.

        Returns True if the entry was inserted or updated (i.e. the score for
        this object improved), False if the existing entry already had an
        equal or better score.
        """
        current = self._scores.get(obj.oid)
        if current is not None and current.score >= score:
            return False
        self._scores[obj.oid] = ScoredObject(obj, score)
        self._prune()
        return True

    def _prune(self) -> None:
        # Keep the dictionary from growing without bound: entries that can no
        # longer make the top-k (strictly below the k-th best score) are
        # dropped.  Entries tied with the threshold are kept so deterministic
        # tie-breaking at extraction time stays stable.
        if len(self._scores) <= 4 * self._k:
            return
        ordered = sorted(self._scores.values())
        cutoff = ordered[self._k - 1].score
        self._scores = {
            so.obj.oid: so for so in ordered if so.score >= cutoff
        }

    def top(self) -> List[ScoredObject]:
        """Return the top-k entries in descending score order."""
        ordered = sorted(self._scores.values())
        return ordered[: self._k]

    def __iter__(self) -> Iterator[ScoredObject]:
        return iter(self.top())


def merge_top_k(partials: Iterable[Iterable[ScoredObject]], k: int) -> List[ScoredObject]:
    """Merge per-cell top-k lists into the global top-k (paper Section 4.2).

    The final result of the MapReduce job is produced by merging the k results
    of each of the R cells and returning the k entries with the highest score.
    This is performed centrally because ``R * k`` is small.
    """
    counter = itertools.count()
    heap: List = []
    for partial in partials:
        for entry in partial:
            heapq.heappush(heap, (-entry.score, entry.obj.oid, next(counter), entry))
    result: List[ScoredObject] = []
    seen: set = set()
    while heap and len(result) < k:
        _, oid, _, entry = heapq.heappop(heap)
        if oid in seen:
            continue
        seen.add(oid)
        result.append(entry)
    return result
