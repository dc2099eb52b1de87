"""Result representation: scored data objects and bounded top-k lists.

The reducers in the paper maintain a sorted list ``Lk`` of the ``k`` data
objects with the highest scores found so far, together with the threshold
``tau`` = score of the current k-th best object (Algorithm 2/4).
:class:`TopKList` implements exactly that structure.

The hot path builds no objects and calls no Python-level comparison: an
entry is the plain tuple ``(-score, oid, obj)`` -- the one ranking key
(higher score first, ties by object id) with the object riding behind it --
so ranking is a native tuple sort, and :func:`_select` is the one selection
both :class:`TopKList` and :func:`merge_top_k` rank with.  ``tau`` is
cached: an :meth:`~TopKList.offer` that inserts or improves an entry marks
it stale, and the next read recomputes it once as the k-th ranked score,
however many offers came between.  A :class:`ScoredObject` is built only
for what :meth:`~TopKList.top` / :func:`merge_top_k` return; the reducers
read :meth:`~TopKList.ranked` and build none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.model.objects import DataObject


#: ``(-score, oid, obj)``: an entry that is its own ranking key.
Entry = Tuple[float, str, DataObject]


def _select(entries: Iterable[Entry], k: int) -> List[Entry]:
    """The one selection: the k best of entries with distinct oids, best first."""
    return sorted(entries)[:k]


@dataclass(frozen=True)
class ScoredObject:
    """A data object together with its (possibly partial) score ``tau(p)``.

    Unpacks as the plain ``(obj, score)`` pair :func:`merge_top_k` also
    accepts.
    """

    obj: DataObject
    score: float

    def __lt__(self, other: "ScoredObject") -> bool:
        # Higher score first; ties broken by object id for deterministic output.
        if self.score != other.score:
            return self.score > other.score
        return self.obj.oid < other.obj.oid

    def __iter__(self) -> Iterator:
        return iter((self.obj, self.score))


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
        self._entries: Dict[str, Entry] = {}
        #: The cached ``tau``; None once an offer changed the list.
        self._tau: Optional[float] = 0.0

    @property
    def k(self) -> int:
        """Capacity of the list."""
        return self._k

    def __len__(self) -> int:
        return min(len(self._entries), self._k)

    @property
    def threshold(self) -> float:
        """The paper's ``tau``: score of the k-th best object, else 0.0."""
        if self._tau is None:
            ranked = self._best()
            self._tau = -ranked[-1][0] if len(ranked) == self._k else 0.0
        return self._tau

    def offer(self, obj: DataObject, score: float) -> bool:
        """Offer a (possibly improved) score for ``obj``.

        Returns True if the entry was inserted or updated (i.e. the score for
        this object improved), False if the existing entry already had an
        equal or better score.
        """
        oid = obj.oid
        current = self._entries.get(oid)
        if current is not None and -current[0] >= score:
            return False
        self._entries[oid] = (-score, oid, obj)
        self._tau = None
        if len(self._entries) > 4 * self._k:
            self._prune()
        return True

    def _prune(self) -> None:
        # Keep the dictionary from growing without bound: entries that can no
        # longer make the top-k (strictly below the k-th best score) are
        # dropped.  Entries tied with the threshold are kept so deterministic
        # tie-breaking at extraction time stays stable.  The k-th key is the
        # threshold, so the selection that found it also refreshes the cache.
        cutoff = self._best()[-1][0]
        self._tau = -cutoff
        self._entries = {
            oid: entry for oid, entry in self._entries.items() if entry[0] <= cutoff
        }

    def _best(self) -> List[Entry]:
        return _select(self._entries.values(), self._k)

    def ranked(self) -> List[Tuple[str, float]]:
        """``(oid, score)`` of the top-k entries, best first (no objects built)."""
        return [(oid, -key) for key, oid, _ in self._best()]

    def top(self) -> List[ScoredObject]:
        """Return the top-k entries in descending score order."""
        return [ScoredObject(obj, -key) for key, _, obj in self._best()]

    def __iter__(self) -> Iterator[ScoredObject]:
        return iter(self.top())


class QueryResult:
    """Final result of an SPQ evaluation plus execution statistics.

    Attributes:
        entries: top-k scored objects, best first.
        stats: free-form dictionary of counters reported by the engine
            (score computations, feature objects examined, duplicates, the
            simulated job time, ...).
    """

    def __init__(self, entries: Iterable[ScoredObject], stats: Optional[dict] = None) -> None:
        self.entries: List[ScoredObject] = sorted(entries)
        self.stats: dict = dict(stats or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScoredObject]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> ScoredObject:
        return self.entries[index]

    def object_ids(self) -> List[str]:
        """Ids of the result objects, best first."""
        return [entry.obj.oid for entry in self.entries]

    def scores(self) -> List[float]:
        """Scores of the result objects, best first."""
        return [entry.score for entry in self.entries]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ", ".join(f"{e.obj.oid}:{e.score:.3f}" for e in self.entries)
        return f"QueryResult([{inner}])"


def merge_top_k(partials: Iterable[Iterable[ScoredObject]], k: int) -> List[ScoredObject]:
    """Merge per-cell top-k lists into the global top-k (paper Section 4.2).

    The final result of the MapReduce job is produced by merging the k results
    of each of the R cells and returning the k entries with the highest score.
    This is performed centrally because ``R * k`` is small.

    An object reported by several partials keeps its best score (the first
    one on a tie), the winners are ranked by the same key and selection as
    :class:`TopKList`, and only they become :class:`ScoredObject` s.
    Entries are scored objects (a router's gathered partials) or plain
    ``(obj, score)`` pairs (the engine's checked reducer outputs).  It
    dedupes in one dict rather than offering to a :class:`TopKList`: the
    partials' scores tie at the cutoff in bulk (eSPQsco on clustered data),
    and a list whose ties keep it above its prune size sorts on every offer.
    """
    best: Dict[str, Entry] = {}
    for partial in partials:
        for obj, score in partial:
            current = best.get(obj.oid)
            if current is None or -current[0] < score:
                best[obj.oid] = (-score, obj.oid, obj)
    return [ScoredObject(obj, -key) for key, _, obj in _select(best.values(), k)]
