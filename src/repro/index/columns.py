"""Columnar dataset representation: packed `array` columns + framed sections.

The object model (:mod:`repro.model.objects`) is the API of the system, but
walking per-object Python instances is also what the hot loops were paying
for: every ``obj.within_distance(feature, r)`` is a method call plus four
attribute lookups.  This module packs the same information into stdlib
``array`` columns:

* :class:`DataColumns`    -- data objects as parallel ``xs``/``ys`` double
  columns plus a packed UTF-8 oid blob with offsets;
* :class:`FeatureColumns` -- feature objects, additionally with a sorted
  vocabulary and per-feature token-id postings (CSR layout);
* :class:`ColumnStore`    -- a framed, 8-byte-aligned section container that
  serializes any combination of the above to one contiguous buffer and
  attaches back **zero-copy**: an attached store indexes ``memoryview``
  casts of the original buffer (e.g. the ``mmap`` of the cluster's dataset
  memory file) instead of copying arrays out.

Round-trips are exact: ``array('d')`` stores IEEE-754 doubles bit-for-bit,
oids/keywords round-trip through UTF-8, and keyword tuples are rebuilt
equal (and canonical) -- so results computed from attached columns are
bit-for-bit identical to results computed from the original objects.

:class:`DataBlock` is the reduce-side view of one cell's data objects: the
coordinate columns sliced for that cell, plus a lazily built x-sorted
permutation that lets range predicates test only the candidate window
``[fx - w, fx + w]`` (see :func:`repro.spatial.geometry.candidate_halfwidth`)
instead of every pair, while still applying the exact squared-distance
predicate to every candidate.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from sys import intern
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.model.objects import DataObject, FeatureObject
from repro.spatial.geometry import candidate_halfwidth

__all__ = [
    "ColumnStore",
    "DataBlock",
    "DataColumns",
    "FeatureColumns",
]

# ---------------------------------------------------------------------- #
# framed section container

_MAGIC = b"RPC1"
_HEADER = struct.Struct("<4sI")
_ENTRY = struct.Struct("<4sIQQ")  # tag, pad, offset, length
_ALIGN = 8


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_sections(sections: Sequence[Tuple[bytes, "bytes | memoryview | array"]]) -> bytes:
    """Serialize ``(tag, payload)`` sections into one aligned buffer."""
    header_size = _HEADER.size + _ENTRY.size * len(sections)
    parts: List[bytes] = []
    entries: List[bytes] = []
    offset = _pad(header_size)
    pieces: List[Tuple[int, bytes]] = []
    for tag, payload in sections:
        if len(tag) != 4:
            raise ValueError(f"section tag must be 4 bytes, got {tag!r}")
        raw = payload.tobytes() if isinstance(payload, (array, memoryview)) else bytes(payload)
        entries.append(_ENTRY.pack(tag, 0, offset, len(raw)))
        pieces.append((offset, raw))
        offset = _pad(offset + len(raw))
    parts.append(_HEADER.pack(_MAGIC, len(sections)))
    parts.extend(entries)
    blob = bytearray(offset)
    head = b"".join(parts)
    blob[: len(head)] = head
    for start, raw in pieces:
        blob[start : start + len(raw)] = raw
    return bytes(blob)


def unpack_sections(buffer: "bytes | memoryview") -> Dict[bytes, memoryview]:
    """Zero-copy view of every section of a :func:`pack_sections` buffer.

    The whole frame is checked before the first view is taken, so a
    malformed buffer raises ``ValueError`` without leaving an export on it
    (an ``mmap`` with a live export cannot be closed).
    """
    size = len(buffer)
    if size < _HEADER.size:
        raise ValueError("buffer too small for a column-store header")
    magic, count = _HEADER.unpack_from(buffer, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad column-store magic {magic!r}")
    if _HEADER.size + _ENTRY.size * count > size:
        raise ValueError("buffer too small for its section table")
    entries = []
    for index in range(count):
        tag, _, offset, length = _ENTRY.unpack_from(
            buffer, _HEADER.size + _ENTRY.size * index
        )
        if offset + length > size:
            raise ValueError(f"section {tag!r} overruns the buffer")
        entries.append((tag, offset, length))
    view = memoryview(buffer)
    return {tag: view[offset : offset + length] for tag, offset, length in entries}


def _doubles(view: memoryview) -> memoryview:
    return view.cast("d")


def _uints(view: memoryview) -> memoryview:
    return view.cast("I")


def _offsets(view: memoryview) -> memoryview:
    return view.cast("Q")


def _pack_strings(strings: Sequence[str]) -> Tuple[bytes, array]:
    """Concatenated UTF-8 blob + ``n + 1`` offsets for a string column."""
    offsets = array("Q", [0])
    blob = bytearray()
    for text in strings:
        blob.extend(text.encode("utf-8"))
        offsets.append(len(blob))
    return bytes(blob), offsets


def _unpack_strings(blob: "bytes | memoryview", offsets: Sequence[int]) -> List[str]:
    raw = bytes(blob)
    return [
        raw[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


# ---------------------------------------------------------------------- #
# column groups


class DataColumns:
    """Data objects as parallel columns (coordinates + packed oids).

    ``xs``/``ys`` are indexable double sequences: ``array('d')`` when built
    from objects, ``memoryview`` casts when attached zero-copy to a
    serialized buffer.  Either way ``xs[i]`` is the exact double of
    ``objects[i].x``.
    """

    __slots__ = ("xs", "ys", "_oid_blob", "_oid_offsets", "_oids")

    def __init__(self, xs, ys, oid_blob, oid_offsets) -> None:
        self.xs = xs
        self.ys = ys
        self._oid_blob = oid_blob
        self._oid_offsets = oid_offsets
        self._oids: Optional[List[str]] = None

    @classmethod
    def from_objects(cls, objects: Sequence[DataObject]) -> "DataColumns":
        """Pack a data-object sequence into columns, preserving order."""
        xs = array("d", (obj.x for obj in objects))
        ys = array("d", (obj.y for obj in objects))
        blob, offsets = _pack_strings([obj.oid for obj in objects])
        return cls(xs, ys, blob, offsets)

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def oids(self) -> List[str]:
        """Decoded oid column (materialized once, then cached)."""
        if self._oids is None:
            self._oids = _unpack_strings(self._oid_blob, self._oid_offsets)
        return self._oids

    def object_at(self, index: int) -> DataObject:
        """Materialize one row as a :class:`DataObject` (equal to the source)."""
        return DataObject(oid=self.oids[index], x=self.xs[index], y=self.ys[index])

    def to_objects(self) -> List[DataObject]:
        """Materialize every row, in storage order."""
        return [
            DataObject(oid=oid, x=x, y=y)
            for oid, x, y in zip(self.oids, self.xs, self.ys)
        ]

    def sections(self) -> List[Tuple[bytes, object]]:
        """The (tag, column) pairs this group serializes as."""
        return [
            (b"DAXS", self.xs),
            (b"DAYS", self.ys),
            (b"DAOB", self._oid_blob),
            (b"DAOF", self._oid_offsets),
        ]

    @classmethod
    def from_sections(cls, sections: Dict[bytes, memoryview]) -> "DataColumns":
        """Rebuild the group zero-copy from unpacked section views."""
        return cls(
            _doubles(sections[b"DAXS"]),
            _doubles(sections[b"DAYS"]),
            sections[b"DAOB"],
            _offsets(sections[b"DAOF"]),
        )


class FeatureColumns:
    """Feature objects as columns: coordinates, oids, vocabulary + postings.

    Keywords are dictionary-encoded: the sorted vocabulary maps token id ->
    word, and each feature's keyword set is a slice of the ``tokens`` column
    (CSR via ``token_offsets``), ascending, so ``object_at(i)`` rebuilds the
    source object's canonical keyword tuple over the interned vocabulary.
    """

    __slots__ = (
        "xs",
        "ys",
        "_oid_blob",
        "_oid_offsets",
        "_vocab_blob",
        "_vocab_offsets",
        "tokens",
        "token_offsets",
        "_oids",
        "_words",
    )

    def __init__(
        self, xs, ys, oid_blob, oid_offsets, vocab_blob, vocab_offsets, tokens, token_offsets
    ) -> None:
        self.xs = xs
        self.ys = ys
        self._oid_blob = oid_blob
        self._oid_offsets = oid_offsets
        self._vocab_blob = vocab_blob
        self._vocab_offsets = vocab_offsets
        self.tokens = tokens
        self.token_offsets = token_offsets
        self._oids: Optional[List[str]] = None
        self._words: Optional[List[str]] = None

    @classmethod
    def from_objects(cls, objects: Sequence[FeatureObject]) -> "FeatureColumns":
        """Pack a feature sequence into columns + a tokenized vocabulary."""
        xs = array("d", (obj.x for obj in objects))
        ys = array("d", (obj.y for obj in objects))
        oid_blob, oid_offsets = _pack_strings([obj.oid for obj in objects])
        vocabulary = sorted({word for obj in objects for word in obj.keywords})
        token_ids = {word: index for index, word in enumerate(vocabulary)}
        vocab_blob, vocab_offsets = _pack_strings(vocabulary)
        tokens = array("I")
        token_offsets = array("Q", [0])
        for obj in objects:
            # A sorted keyword tuple over a sorted vocabulary: ascending ids.
            tokens.extend(token_ids[word] for word in obj.keywords)
            token_offsets.append(len(tokens))
        return cls(
            xs, ys, oid_blob, oid_offsets, vocab_blob, vocab_offsets, tokens, token_offsets
        )

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def oids(self) -> List[str]:
        """Decoded oid column (materialized once, then cached)."""
        if self._oids is None:
            self._oids = _unpack_strings(self._oid_blob, self._oid_offsets)
        return self._oids

    @property
    def vocabulary(self) -> List[str]:
        """Token id -> interned word (materialized once, then cached)."""
        if self._words is None:
            words = _unpack_strings(self._vocab_blob, self._vocab_offsets)
            self._words = list(map(intern, words))
        return self._words

    def keyword_count(self, index: int) -> int:
        """``|f.W|`` of the feature at ``index`` without materializing it."""
        return self.token_offsets[index + 1] - self.token_offsets[index]

    def object_at(self, index: int) -> FeatureObject:
        """Materialize one row as a :class:`FeatureObject` (equal to the source)."""
        words = self.vocabulary
        tokens = self.tokens[self.token_offsets[index] : self.token_offsets[index + 1]]
        return FeatureObject(
            oid=self.oids[index],
            x=self.xs[index],
            y=self.ys[index],
            keywords=tuple([words[token] for token in tokens]),
        )

    def to_objects(self) -> List[FeatureObject]:
        """Materialize every row, in storage order."""
        return [self.object_at(index) for index in range(len(self))]

    def sections(self) -> List[Tuple[bytes, object]]:
        """The (tag, column) pairs this group serializes as."""
        return [
            (b"FEXS", self.xs),
            (b"FEYS", self.ys),
            (b"FEOB", self._oid_blob),
            (b"FEOF", self._oid_offsets),
            (b"FEVB", self._vocab_blob),
            (b"FEVF", self._vocab_offsets),
            (b"FETK", self.tokens),
            (b"FETF", self.token_offsets),
        ]

    @classmethod
    def from_sections(cls, sections: Dict[bytes, memoryview]) -> "FeatureColumns":
        """Rebuild the group zero-copy from unpacked section views."""
        return cls(
            _doubles(sections[b"FEXS"]),
            _doubles(sections[b"FEYS"]),
            sections[b"FEOB"],
            _offsets(sections[b"FEOF"]),
            sections[b"FEVB"],
            _offsets(sections[b"FEVF"]),
            _uints(sections[b"FETK"]),
            _offsets(sections[b"FETF"]),
        )


class ColumnStore:
    """A (data, features) column bundle with one serialized form.

    Either group may be absent: the shard-node dataset file carries
    both.  :meth:`attach` is zero-copy --
    the returned store indexes the caller's buffer; call :meth:`detach` to
    drop every view before the underlying buffer (e.g. an ``mmap``) is
    closed, otherwise the close raises ``BufferError``.
    """

    def __init__(
        self,
        data: Optional[DataColumns] = None,
        features: Optional[FeatureColumns] = None,
    ) -> None:
        self.data = data
        self.features = features

    @classmethod
    def from_datasets(
        cls,
        data_objects: Optional[Sequence[DataObject]] = None,
        feature_objects: Optional[Sequence[FeatureObject]] = None,
    ) -> "ColumnStore":
        """Pack whichever dataset pieces are given into a column bundle."""
        return cls(
            data=DataColumns.from_objects(data_objects) if data_objects is not None else None,
            features=(
                FeatureColumns.from_objects(feature_objects)
                if feature_objects is not None
                else None
            ),
        )

    def to_bytes(self) -> bytes:
        """Serialize every present group into one framed buffer."""
        sections: List[Tuple[bytes, object]] = []
        for group in (self.data, self.features):
            if group is not None:
                sections.extend(group.sections())
        return pack_sections(sections)

    @classmethod
    def attach(cls, buffer: "bytes | memoryview") -> "ColumnStore":
        """Zero-copy view over a :meth:`to_bytes` buffer."""
        sections = unpack_sections(buffer)
        return cls(
            data=DataColumns.from_sections(sections) if b"DAXS" in sections else None,
            features=FeatureColumns.from_sections(sections) if b"FEXS" in sections else None,
        )

    def detach(self) -> None:
        """Drop every buffer view so the backing buffer can be closed."""
        self.data = None
        self.features = None


# ---------------------------------------------------------------------- #
# reduce-side cell blocks

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
