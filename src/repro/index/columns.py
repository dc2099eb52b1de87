"""Reduce-side cell blocks: one grid cell's data objects in columns.

:class:`DataBlock` is the reduce-side view of one cell's data objects: the
coordinate columns sliced for that cell, plus a lazily built x-sorted
permutation that lets range predicates test only the candidate window
``[fx - w, fx + w]`` (see :func:`repro.spatial.geometry.candidate_halfwidth`)
instead of every pair, while still applying the exact squared-distance
predicate to every candidate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.model.objects import DataObject
from repro.spatial.geometry import candidate_halfwidth

__all__ = ["DataBlock"]

#: Row numbers :meth:`DataBlock.rows_within` keeps per row of its block: a
#: bound on the memo of a long-lived block at large or many radii.
MEMO_ROWS_PER_ROW = 64


class DataBlock:
    """One grid cell's data objects, reduce-ready in columnar form.

    The one shape a cell's indexed data takes on its way to a reducer,
    whatever the job class or reduce loop: injected into the cell's reduce
    group ahead of the live feature stream.  The columns are extracted once
    per cell per dataset snapshot instead of once per query, the lazily
    built x-sorted permutation narrows range predicates to the candidate
    window of each feature, and :meth:`rows_within` keeps each feature
    position's in-range rows for the next query at the same radius.

    ``objs``/``xs``/``ys`` are parallel, in storage order -- the exact order
    mapping the cell's data objects one by one would have streamed them.
    """

    __slots__ = (
        "group", "objs", "xs", "ys", "_sorted_xs", "_sorted_rows", "_oids", "_oid_rows",
        "_within", "_radii", "_room",
    )

    def __init__(self, group: int, objs: List[DataObject], xs, ys, memo: bool = True) -> None:
        self.group = group
        self.objs = objs
        self.xs = xs
        self.ys = ys
        self._sorted_xs: Optional[List[float]] = None
        self._sorted_rows: Optional[List[int]] = None
        self._oids: Optional[List[str]] = None
        self._oid_rows: Optional[List[Tuple[int, ...]]] = None
        self._within: Dict[Tuple[float, float, float], Tuple[int, ...]] = {}
        # Every radius ``_within`` has a key at: a point's rows are found by
        # one lookup per radius, never by scanning the keys.
        self._radii: Tuple[float, ...] = ()
        # Row numbers rows_within may still keep.  A block built for one
        # reduce (``memo=False``) gets -1: it keeps nothing, not even ().
        self._room = MEMO_ROWS_PER_ROW * len(xs) if memo else -1

    @classmethod
    def from_objects(cls, group: int, objs: List[DataObject]) -> "DataBlock":
        """Build a block over already-materialized objects."""
        return cls(
            group, objs, [obj.x for obj in objs], [obj.y for obj in objs]
        )

    def __len__(self) -> int:
        return len(self.objs)

    @property
    def oids(self) -> List[str]:
        """Parallel oid column (cached; used by the report-as-you-go reduce)."""
        if self._oids is None:
            self._oids = [obj.oid for obj in self.objs]
        return self._oids

    @property
    def oid_rows(self) -> List[Tuple[int, ...]]:
        """Per row, every row holding its oid, ascending (cached).

        A cell may repeat an oid; when none does, each row holds only itself.
        """
        if self._oid_rows is None:
            oids = self.oids
            if len(set(oids)) == len(oids):
                self._oid_rows = [(row,) for row in range(len(oids))]
            else:
                rows: Dict[str, Tuple[int, ...]] = {}
                for row, oid in enumerate(oids):
                    rows[oid] = rows.get(oid, ()) + (row,)
                self._oid_rows = list(map(rows.__getitem__, oids))
        return self._oid_rows

    def candidate_rows(self, low: float, high: float) -> List[int]:
        """Storage rows whose x lies in ``[low, high]``, in x-sorted order.

        Callers owe every returned row the exact squared-distance test; the
        window only bounds which rows *can* pass it.
        """
        sorted_xs = self._sorted_xs
        if sorted_xs is None:
            order = sorted(range(len(self.xs)), key=self.xs.__getitem__)
            self._sorted_rows = [row for row in order]
            self._sorted_xs = sorted_xs = [self.xs[row] for row in order]
        return self._sorted_rows[bisect_left(sorted_xs, low) : bisect_right(sorted_xs, high)]

    @staticmethod
    def retain(blocks: Sequence["DataBlock"], points: Collection[Tuple[float, float]]) -> None:
        """Forget the rows ``blocks`` memoized at ``points``, and give their
        room back.

        A block carried into the next snapshot keeps its rows, so its memo
        stays exact; dropping the points where that snapshot has no feature
        keeps it to the features the snapshot holds, as if the block had
        been built for it and asked the same queries.  The cost is one
        lookup per block, point and memoized radius.
        """
        if points:
            for block in blocks:
                within = block._within
                if within:
                    for radius in block._radii:
                        for fx, fy in points:
                            rows = within.pop((fx, fy, radius), None)
                            if rows is not None:
                                block._room += len(rows)

    def rows_within(self, fx: float, fy: float, radius: float) -> Tuple[int, ...]:
        """Storage rows within ``radius`` of ``(fx, fy)``, ascending (memoized).

        A row is in exactly when ``dx*dx + dy*dy <= radius*radius`` -- the
        rounded predicate ``within_distance`` evaluates, on the same doubles
        -- tested on the candidate window (:func:`candidate_halfwidth`), a
        superset of the matches.  Features reach the same cells query after
        query, so the rows are kept per ``(fx, fy, radius)``, up to
        :data:`MEMO_ROWS_PER_ROW` row numbers per row of the block over all
        radii; past that, or on a block built with ``memo=False``, a miss
        is computed and not kept.  The radius is part of the key, so
        engines sharing this block at different radii never read each
        other's rows, and two threads racing on one key store equal tuples.
        """
        key = (fx, fy, radius)
        rows = self._within.get(key)
        if rows is None:
            window = candidate_halfwidth(radius, abs(fx) + radius)
            squared_radius = radius * radius
            xs, ys = self.xs, self.ys
            matched = [
                row
                for row in self.candidate_rows(fx - window, fx + window)
                if (dx := xs[row] - fx) * dx + (dy := ys[row] - fy) * dy <= squared_radius
            ]
            matched.sort()
            rows = tuple(matched)
            room = self._room - len(rows)
            if room >= 0:
                # Unlocked: racing threads can overdraw the room a little,
                # or lose a radius from ``_radii`` and keep its rows past a
                # fold; both bound memory, never an answer.
                self._room = room
                self._within[key] = rows
                if radius not in self._radii:
                    self._radii += (radius,)
        return rows
