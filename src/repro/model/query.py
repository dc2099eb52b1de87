"""The spatial preference query using keywords, ``q(k, r, W)``.

Section 3.1 of the paper: a query consists of the number ``k`` of data
objects to retrieve, the neighbourhood distance threshold ``r`` and a set of
query keywords ``q.W`` evaluated against feature-object keyword sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.exceptions import InvalidQueryError


@dataclass(frozen=True)
class SpatialPreferenceQuery:
    """Immutable query object ``q(k, r, W)``.

    Attributes:
        k: Number of top data objects to return (``k >= 1``).
        radius: Neighbourhood distance threshold ``r`` (``r >= 0``).
        keywords: Query keyword set ``q.W`` (non-empty).
    """

    k: int
    radius: float
    keywords: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.keywords, frozenset):
            if isinstance(self.keywords, str):
                raise TypeError(f"keywords must be a collection of words, not {self.keywords!r}")
            object.__setattr__(self, "keywords", frozenset(self.keywords))
        if self.k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {self.k}")
        if self.radius < 0:
            raise InvalidQueryError(f"radius must be >= 0, got {self.radius}")
        if not self.keywords:
            raise InvalidQueryError("query keyword set q.W must not be empty")

    @property
    def keyword_count(self) -> int:
        """Number of query keywords ``|q.W|``."""
        return len(self.keywords)

    @classmethod
    def create(cls, k: int, radius: float, keywords: Iterable[str]) -> "SpatialPreferenceQuery":
        """Convenience constructor accepting any keyword iterable.

        Raises:
            TypeError: for a bare ``str`` (its characters are not keywords).
        """
        return cls(k=k, radius=radius, keywords=keywords)

    def describe(self) -> str:
        """Human-readable one-line description of the query."""
        kw = ", ".join(sorted(self.keywords))
        return f"top-{self.k} within r={self.radius} for keywords {{{kw}}}"
