"""Spatial data objects and spatio-textual feature objects.

The paper distinguishes two horizontally partitioned datasets (Section 3.1):

* the *object dataset* ``O`` of data objects ``p`` described only by
  coordinates ``(p.x, p.y)``; these are the objects that get ranked and
  returned, and
* the *feature dataset* ``F`` of feature objects ``f`` described by
  coordinates and a keyword set ``f.W``; these determine the scores.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lt
from sys import intern
from typing import Iterable, Tuple


def keyword_tuple(words: Iterable[str]) -> Tuple[str, ...]:
    """``f.W`` in canonical form: the distinct words, sorted and interned.

    Interning makes every feature that mentions a word share one ``str``,
    so a feature costs a pointer per keyword rather than a string.  Input
    that is already sorted (a record written by :meth:`FeatureObject.to_record`)
    sorts in one linear pass.

    Raises:
        TypeError: for a bare ``str`` (whose characters are not keywords) or
            a word that is not a ``str``.
    """
    if isinstance(words, str):
        raise TypeError(f"keywords must be a collection of words, not the string {words!r}")
    return tuple(sorted(dict.fromkeys(map(intern, words))))


def shared_words(words: Tuple[str, ...], query: Iterable[str]) -> int:
    """``|f.W ∩ q.W|`` for a canonical keyword tuple and distinct query words.

    One bisection per query word, ``O(|q.W| log |f.W|)``: no set is built
    from the tuple, and the query side is the small one.
    """
    size = len(words)
    count = 0
    for word in query:
        at = bisect_left(words, word)
        if at < size and words[at] == word:
            count += 1
    return count


@dataclass(frozen=True)
class SpatialObject:
    """Common base for objects positioned in the 2-d data space.

    Attributes:
        oid: Application-level identifier, unique within its dataset.
        x: X coordinate.
        y: Y coordinate.
    """

    oid: str
    x: float
    y: float

    @property
    def location(self) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinate pair."""
        return (self.x, self.y)

    def distance_to(self, other: "SpatialObject") -> float:
        """Euclidean distance to another spatial object."""
        dx = self.x - other.x
        dy = self.y - other.y
        return (dx * dx + dy * dy) ** 0.5

    def within_distance(self, other: "SpatialObject", radius: float) -> bool:
        """True if ``other`` lies within ``radius`` (squared comparison).

        Equivalent to ``distance_to(other) <= radius`` without the square
        root; this predicate is the hot operation of every range check, so
        all score paths use it for both speed and bit-for-bit consistency.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy <= radius * radius


@dataclass(frozen=True)
class DataObject(SpatialObject):
    """A data object ``p`` in the object dataset ``O``.

    Data objects carry no keywords; their score ``tau(p)`` is induced by the
    feature objects within the query radius.
    """

    def to_record(self) -> str:
        """Serialize to the on-disk text format (``id<TAB>x<TAB>y``)."""
        return f"{self.oid}\t{self.x!r}\t{self.y!r}"

    @classmethod
    def from_record(cls, record: str) -> "DataObject":
        """Parse a data object from its text record.

        Raises:
            ValueError: if the record does not have exactly three fields or
                the coordinates are not numeric.
        """
        parts = record.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ValueError(f"malformed data-object record: {record!r}")
        return cls(oid=parts[0], x=float(parts[1]), y=float(parts[2]))


@dataclass(frozen=True)
class FeatureObject(SpatialObject):
    """A feature object ``f`` in the feature dataset ``F``.

    Attributes:
        keywords: The keyword set ``f.W`` as a sorted tuple of distinct words
            (:func:`keyword_tuple`): hashable, equal exactly when the sets
            are equal, and a pointer per word where a frozenset costs ~70
            bytes per word.  Any iterable of words is normalised to it.
    """

    keywords: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Producers hand over canonical tuples; checking one is a linear
        # pass, where normalising would build a dict and sort.
        words = self.keywords
        if type(words) is not tuple or not all(map(lt, words, words[1:])):
            object.__setattr__(self, "keywords", keyword_tuple(words))

    @property
    def keyword_count(self) -> int:
        """Number of keywords ``|f.W|``."""
        return len(self.keywords)

    def has_common_keyword(self, query_keywords: Iterable[str]) -> bool:
        """Return True if ``f.W`` intersects the given keyword collection.

        This is the map-side pruning rule of Algorithm 1 (line 9): feature
        objects with no common keyword with the query cannot contribute to
        any data object's score and are dropped before the shuffle.  One
        bisection per query word (:func:`shared_words`), never a scan of
        ``f.W``: the delta read path asks this of every appended feature.
        """
        return shared_words(self.keywords, query_keywords) > 0

    def to_record(self) -> str:
        """Serialize to the on-disk text format.

        Format: ``id<TAB>x<TAB>y<TAB>kw1,kw2,...`` (keywords sorted for
        deterministic output).
        """
        kw = ",".join(self.keywords)
        return f"{self.oid}\t{self.x!r}\t{self.y!r}\t{kw}"

    @classmethod
    def from_record(cls, record: str) -> "FeatureObject":
        """Parse a feature object from its text record.

        Raises:
            ValueError: if the record does not have exactly four fields or
                the coordinates are not numeric.
        """
        parts = record.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError(f"malformed feature-object record: {record!r}")
        keywords = keyword_tuple(parts[3].split(","))
        if keywords and not keywords[0]:
            keywords = keywords[1:]  # the empty word sorts first
        return cls(oid=parts[0], x=float(parts[1]), y=float(parts[2]), keywords=keywords)
