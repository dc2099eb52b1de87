"""Reusable per-dataset index shared across queries.

The seed engine re-derives everything per query: it rebuilds the grid,
re-locates every data object, re-scans every feature object for keyword
pruning and recomputes the MINDIST neighbour duplication.  For a single query
that is the paper's model (the grid *is* query-time state), but under
multi-query traffic almost all of that work is identical between queries and
can be amortised.

:class:`DatasetIndex` precomputes, for one grid (i.e. one grid size over one
dataset snapshot):

* the cell assignment of every data object (radius-independent) and, from
  it, the *data plane*: each cell's data objects as one
  :class:`~repro.index.columns.DataBlock`, the single form in which they
  reach a reducer (:meth:`DatasetIndex.data_shuffle`),
* a keyword -> feature inverted index with storage positions
  (:class:`~repro.text.inverted_index.PositionalInvertedIndex`), replacing the
  per-query keyword scan of the map phase, and
* per-radius feature duplication lists (Lemma 1 MINDIST neighbours), computed
  lazily the first time a radius is seen and cached for every later query
  with the same radius.

A compaction does not throw this work away: :meth:`DatasetIndex.fold`
derives the compacted snapshot's index from the retired one and the delta,
carrying every surviving row, posting and Lemma-1 list.

:meth:`DatasetIndex.prepare` turns a query into a columnar
:class:`~repro.index.records.MapSplit` that the SPQ jobs map with one fused
kernel, short-circuiting the map phase while producing bit-identical shuffle
output (same keys, same values, same emission order) -- so batch results
equal sequential results exactly.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.index.columns import DataBlock
from repro.index.delta import DeltaSnapshot, surviving
from repro.index.records import MapSplit, feature_record_size
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import PreloadedShuffle
from repro.model.objects import DataObject, FeatureObject, shared_words
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner
from repro.text.inverted_index import PositionalInvertedIndex


#: Distinct radii whose Lemma-1 lists one index keeps (least recently used
#: evicted first).  A serving workload uses one or two radii and the paper's
#: sweeps five or six; without a bound, ad-hoc radii accumulate one
#: ``{position -> cells}`` dict each for the life of the index.
MAX_CACHED_RADII = 8


#: Per feature: shuffle record size, ``|f.W|`` and reach (None unscoped).
FeatureRows = Tuple[List[int], List[int], Optional[List[float]]]
#: radius -> {feature position -> Lemma-1 cell tuple}, least recently used
#: radius first.
RadiusCells = OrderedDict[float, Dict[int, Tuple[int, ...]]]


def _feature_rows(
    features: Sequence[FeatureObject], scope: Optional[BoundingBox]
) -> FeatureRows:
    """Per feature: its shuffle record size, ``|f.W|`` and ``MINDIST`` to
    ``scope`` (None unscoped) -- the index's feature columns."""
    return (
        list(map(feature_record_size, features)),
        [len(feature.keywords) for feature in features],
        None if scope is None else [scope.min_distance(f.x, f.y) for f in features],
    )


@dataclass
class PreparedQuery:
    """The pre-partitioned input of one query run.

    Attributes:
        split: The surviving features and their duplication cell lists as
            parallel columns in storage order -- exactly the order the
            sequential map phase would have streamed them; re-iterable.  Data
            objects are not re-streamed at all: they come preloaded, one
            block per cell (see :meth:`DatasetIndex.data_shuffle`).
        num_candidates: Feature objects that survived keyword pruning.
        num_pruned: Feature objects dropped by the index-side pruning rule
            (what the map phase would have counted as ``features_pruned``).
        radius_cache_hit: True when the duplication lists of *this query's
            candidate features* were already cached for its radius -- i.e.
            no Lemma-1 work was performed for this query.
    """

    split: MapSplit
    num_candidates: int
    num_pruned: int
    radius_cache_hit: bool


@dataclass
class ScanResult:
    """What :meth:`DatasetIndex.scan` reported, and the work it did.

    Attributes:
        outputs: ``(cell_id, oid, score)`` per reported data object, in
            report order -- the shape of a job's reducer outputs, so the
            engine checks and ranks them through the same merge.
        features_examined: Features whose in-range data the scan read.
        rows_tested: Data rows those features had in range (base rows and
            appended objects), each tested for a report.
        num_candidates: Base features that survived keyword pruning and
            tombstones (what :class:`PreparedQuery` counts).
        radius_cache_hit: True when the examined base features' Lemma-1
            lists were all cached already (:class:`PreparedQuery`'s flag).
        job_name: What ran, for the merge's error messages.
    """

    outputs: List[Tuple[int, str, float]]
    features_examined: int
    rows_tested: int
    num_candidates: int
    radius_cache_hit: bool
    job_name: str = "auto"


@dataclass
class IndexBuildStats:
    """Cost and size accounting of one :class:`DatasetIndex` build."""

    build_seconds: float = 0.0
    num_data: int = 0
    num_features: int = 0
    vocabulary_size: int = 0
    radii_cached: List[float] = field(default_factory=list)


class DatasetIndex:
    """Precomputed grid/keyword index over one dataset snapshot.

    Args:
        data_objects: The object dataset ``O`` in storage order.
        feature_objects: The feature dataset ``F`` in storage order.
        grid: The uniform grid this index is specialised for (one index per
            grid size; the engine's :class:`~repro.index.cache.IndexCache`
            keeps several around).
        scope: The box of the data this index ranks when it serves one
            shard (None: unscoped).  A feature with ``MINDIST(f, scope) > r``
            cannot reach a data object in the box at radius ``r`` (Lemma 1
            at shard granularity), so every query treats it as *absent* --
            never planned, mapped or counted as pruned -- exactly as if the
            shard had been partitioned with ``max_radius = r``, while the
            index still holds it for any larger radius.

    The index holds references to the same object instances as the engine, so
    it must be discarded (see ``SPQEngine.invalidate_indexes``) whenever the
    underlying datasets change -- or, when a compaction changed them, folded
    into its successor (:meth:`fold`).
    """

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        grid: UniformGrid,
        scope: Optional[BoundingBox] = None,
    ) -> None:
        started = time.perf_counter()
        data, features = list(data_objects), list(feature_objects)
        data_cells = GridPartitioner(grid, radius=0.0).assign_data_objects(data)
        self._adopt(grid, scope, data, data_cells, features, _feature_rows(features, scope),
                    PositionalInvertedIndex(features), OrderedDict(), started)

    def _adopt(
        self, grid: UniformGrid, scope: Optional[BoundingBox], data: List[DataObject],
        data_cells: List[int], features: List[FeatureObject], rows: FeatureRows,
        inverted: PositionalInvertedIndex, feature_cells: RadiusCells, started: float,
    ) -> None:
        """Install a snapshot's structures: the one place a build and a
        :meth:`fold` set them, so the two cannot hold different fields."""
        self.grid = grid
        self.scope = scope
        self._data_objects = data
        self._feature_objects = features
        #: The data plane over this snapshot -- the one place "the data
        #: objects of reduce partition p" exist, shared by every job class (a
        #: reduce block's value stream is DataObject instances in all SPQ
        #: jobs): the per-row cell assignment and the per-partition reduce
        #: blocks (built on first use).
        self._data_cells: List[int] = data_cells
        #: cell id -> number of data objects homed there.
        self._data_cell_counts: Dict[int, int] = dict(Counter(data_cells))
        #: storage position -> shuffle record size and ``|f.W|`` of every
        #: feature (``prepare`` slices the first into a split's ``sizes``
        #: and scores from the second, so no query re-derives either), and
        #: its ``MINDIST`` to the scope (the reach column; None unscoped).
        self._record_sizes, self._keyword_counts, self._reach = rows
        if self._reach is not None:
            #: The reaches ascending: the in-reach count of any radius is
            #: one bisection.
            self._sorted_reach = sorted(self._reach)
        self._inverted = inverted
        #: radius -> {feature position -> duplication cell tuple}, filled
        #: lazily for the features queries actually touch; an LRU over at
        #: most MAX_CACHED_RADII radii.
        self._feature_cells = feature_cells
        self._cells_lock = threading.Lock()
        #: feature oid -> storage position, built lazily (delta tombstones).
        self._feature_positions: Optional[Dict[str, int]] = None
        self._blocks: Optional[List[Optional[Tuple[int, DataBlock]]]] = None
        self._blocks_lock = threading.Lock()
        self._shuffle: Optional[PreloadedShuffle] = None
        self.stats = IndexBuildStats(
            build_seconds=time.perf_counter() - started,
            num_data=len(data),
            num_features=len(features),
            vocabulary_size=inverted.vocabulary_size,
            radii_cached=self.cached_radii,
        )

    def fold(self, snapshot: DeltaSnapshot, grid: UniformGrid) -> "DatasetIndex":
        """The index of the compacted snapshot: this one with ``snapshot`` in.

        Equal, field for field, to ``DatasetIndex(*materialize(base,
        snapshot), grid, scope)`` over this index's base, without deriving
        again what survives (:func:`~repro.index.delta.surviving` names it):
        the surviving rows of every column are carried and only the
        appended objects are computed -- their cells, record sizes, keyword
        counts and reach, and their posting-list entries.  Every cached
        radius keeps its Lemma-1 lists, in LRU order, re-keyed to the new
        positions: a feature's cells depend only on its point, the radius
        and the grid, and compaction pins the grid (a different ``grid`` is
        an error, never a rebuild).  Data blocks are rebuilt on first use:
        their rows change, and so would every ``rows_within`` memo.

        Consumes this index -- its posting lists and Lemma-1 dicts move
        into the successor one at a time -- so a retired index must not
        serve again (compaction retires it behind the quiesce gate).
        """
        started = time.perf_counter()
        old = self.grid
        if (grid.extent, grid.cells_x, grid.cells_y) != (old.extent, old.cells_x, old.cells_y):
            raise ValueError("a fold needs its predecessor's grid: compaction pins the extent")
        data = surviving(self._data_objects, snapshot.deleted_data_oids)
        kept = surviving(self._feature_objects, snapshot.deleted_feature_oids)
        renumber: Optional[List[int]] = None
        if len(kept) < self.num_features:
            renumber = [-1] * self.num_features
            for new, position in enumerate(kept):
                renumber[position] = new
        appended = list(snapshot.features)
        carried = (self._record_sizes, self._keyword_counts, self._reach)
        rows = tuple(
            None if column is None else [*map(column.__getitem__, kept), *extra]
            for column, extra in zip(carried, _feature_rows(appended, self.scope))
        )
        feature_cells: RadiusCells = OrderedDict()
        with self._cells_lock:
            while self._feature_cells:
                radius, cells = self._feature_cells.popitem(last=False)
                feature_cells[radius] = cells if renumber is None else {
                    new: cell for position, cell in cells.items()
                    if (new := renumber[position]) >= 0
                }
        located = GridPartitioner(old, radius=0.0).assign_data_objects(snapshot.data)
        successor = DatasetIndex.__new__(DatasetIndex)
        successor._adopt(
            old, self.scope, [*map(self._data_objects.__getitem__, data), *snapshot.data],
            [*map(self._data_cells.__getitem__, data), *located],
            [*map(self._feature_objects.__getitem__, kept), *appended], rows,  # type: ignore
            self._inverted.fold(renumber, appended), feature_cells, started,
        )
        return successor

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def num_data(self) -> int:
        """Number of data objects indexed."""
        return len(self._data_objects)

    @property
    def num_features(self) -> int:
        """Number of feature objects indexed."""
        return len(self._feature_objects)

    @property
    def inverted_index(self) -> PositionalInvertedIndex:
        """The underlying keyword index (shared, do not mutate)."""
        return self._inverted

    @property
    def cached_radii(self) -> List[float]:
        """Radii whose duplication lists are currently cached."""
        return sorted(self._feature_cells)

    def data_cell_of(self, position: int) -> int:
        """Precomputed cell id of the data object at ``position``."""
        return self._data_cells[position]

    @property
    def data_cell_counts(self) -> Mapping[int, int]:
        """Cell id -> number of data objects homed there (do not mutate)."""
        return self._data_cell_counts

    def features_within(self, radius: float) -> int:
        """How many features are in reach at ``radius`` (every feature,
        unscoped)."""
        if self._reach is None:
            return self.num_features
        return bisect_right(self._sorted_reach, radius)

    def in_reach(self, positions: Iterable[int], radius: float) -> List[int]:
        """The ``positions`` whose features reach the scope at ``radius``:
        ``MINDIST <= radius``, ``ShardLayout.shards_within``'s test."""
        reach = self._reach
        return list(positions) if reach is None else [p for p in positions if reach[p] <= radius]

    # ------------------------------------------------------------------ #
    # per-radius duplication cache

    def feature_cells(
        self, radius: float, positions: Optional[Iterable[int]] = None
    ) -> Dict[int, Tuple[int, ...]]:
        """Duplication cell lists for the given feature positions at ``radius``.

        Lemma 1 assignments are computed lazily -- only for the features a
        query actually touches (all of them when ``positions`` is None) --
        and cached per radius, so repeated-radius workloads hit the cache
        while one-off radii pay only for their own candidates, exactly like
        the sequential map phase.
        """
        if positions is None:
            positions = range(self.num_features)
        self._gather_cells(radius, list(positions))
        return self._radius_cache(radius)[0]

    def _radius_cache(self, radius: float) -> Tuple[Dict[int, Tuple[int, ...]], bool]:
        """``radius``'s position -> cells dict and whether it already existed.

        Look-up, LRU touch, insert and eviction are one step under the lock:
        two pooled engines hitting a new radius concurrently converge on ONE
        dict (were each to install its own, the loser would fill an orphaned
        copy -- its Lemma-1 work thrown away and ``radius_cache_hit`` cold
        for that radius).
        """
        with self._cells_lock:
            cache = self._feature_cells.get(radius)
            known = cache is not None
            if known:
                self._feature_cells.move_to_end(radius)
            else:
                cache = self._feature_cells[radius] = {}
                if len(self._feature_cells) > MAX_CACHED_RADII:
                    self._feature_cells.popitem(last=False)
                self.stats.radii_cached = self.cached_radii
        return cache, known

    def _gather_cells(
        self, radius: float, positions: Sequence[int]
    ) -> Tuple[List[Tuple[int, ...]], bool]:
        """The cell lists of ``positions`` in order, filling the cache.

        Also says whether this was a pure cache hit: the radius was known
        and nothing had to be assigned for these positions.
        """
        cache, known = self._radius_cache(radius)
        cells = list(map(cache.get, positions))
        if None not in cells:
            return cells, known
        partitioner = GridPartitioner(self.grid, radius)
        features = self._feature_objects
        fresh: Dict[int, Tuple[int, ...]] = {}
        for slot, position in enumerate(positions):
            if cells[slot] is None:
                cells[slot] = fresh[position] = tuple(
                    partitioner.assign_feature_object(features[position])
                )
        with self._cells_lock:
            cache.update(fresh)
        return cells, False

    # ------------------------------------------------------------------ #
    # preloaded data objects

    def data_shuffle(
        self, job: MapReduceJob, tombstoned: Iterable[DataObject] = ()
    ) -> PreloadedShuffle:
        """The preloaded side of a run over this snapshot: its data plane.

        The map output of a data object depends only on its grid cell --
        never on the query, nor (beyond a composite key that only ever
        sorted data before features, which block injection does by
        construction) on the job class.  So one
        :class:`~repro.mapreduce.runtime.PreloadedShuffle` serves every SPQ
        job: it hands each cell's data to its reducer as one cached block,
        removing the data objects from the per-query map phase entirely.
        ``job`` only says what mapping them would have counted
        (``mapped_data_counters``, the same for all three job classes).

        ``tombstoned`` are the indexed data objects the delta layer holds a
        tombstone for (docs/ingest.md).  A delete is served *before* the
        reduce, never by post-filtering its top-k, and through the same
        plane: the view returned here shares the cached blocks, names per
        partition the oids to withhold, and states the counters of the
        surviving records.  Only those partitions hand out
        a filtered copy (:func:`~repro.execution.tasks.block_without`:
        O(|cell|), storage order kept, so the reduce stream is exactly a
        bulk swap's, score ties included); building the view costs
        O(|tombstones|) and nothing is cached per tombstone set.
        """
        shuffle = self._shuffle
        if shuffle is None:
            # Benign race between engines sharing this index: equal
            # instances, atomic slot write.
            shuffle = self._shuffle = PreloadedShuffle(
                num_partitions=self.grid.num_cells,
                num_input_records=self.num_data,
                counters=job.mapped_data_counters(self.num_data),
                block=self.partition_block,
            )
        excluded: Dict[int, Set[str]] = {}
        for obj in tombstoned:
            partition = self._partition_of(self.grid.locate(obj.x, obj.y))
            excluded.setdefault(partition, set()).add(obj.oid)
        if not excluded:
            return shuffle
        survivors = self.num_data - sum(map(len, excluded.values()))
        return replace(
            shuffle,
            num_input_records=survivors,
            counters=job.mapped_data_counters(survivors),
            excluded=excluded,
        )

    def feature_positions_by_oid(self) -> Dict[str, int]:
        """Feature oid -> storage position (built lazily, then cached).

        Used by the delta layer to translate feature tombstones into the
        candidate positions to drop before :meth:`prepare`.  The benign
        build race between pooled engines produces equal dicts and the
        slot write is atomic, same as :meth:`data_shuffle`.
        """
        positions = self._feature_positions
        if positions is None:
            positions = self._feature_positions = {
                feature.oid: position
                for position, feature in enumerate(self._feature_objects)
            }
        return positions

    # ------------------------------------------------------------------ #
    # columnar data plane

    def partition_block(self, partition: int) -> Optional[Tuple[int, DataBlock]]:
        """``(group, DataBlock)`` of one reduce partition (None when empty).

        All blocks are built in one pass over the data objects the first
        time any is asked for (a few ms per 10k objects) and cached for the
        lifetime of the snapshot, so the per-query cost of a reduce over a
        cell's data is a single list lookup -- no entry copying, no
        re-sorting (a block also caches its x-sorted permutation).
        """
        return self._data_blocks()[partition]

    def _data_blocks(self) -> List[Optional[Tuple[int, DataBlock]]]:
        blocks = self._blocks
        if blocks is None:
            with self._blocks_lock:
                blocks = self._blocks
                if blocks is None:
                    blocks = self._blocks = self._build_blocks()
        return blocks

    def _partition_of(self, cell_id: int) -> int:
        """The SPQ jobs' partition rule: one reduce partition per grid cell."""
        return (cell_id - 1) % self.grid.num_cells

    def _build_blocks(self) -> List[Optional[Tuple[int, DataBlock]]]:
        by_cell: Dict[int, List[DataObject]] = {}
        for obj, cell_id in zip(self._data_objects, self._data_cells):
            by_cell.setdefault(cell_id, []).append(obj)
        blocks: List[Optional[Tuple[int, DataBlock]]] = [None] * self.grid.num_cells
        for cell_id, objs in by_cell.items():
            blocks[self._partition_of(cell_id)] = (
                cell_id,
                DataBlock.from_objects(cell_id, objs),
            )
        return blocks

    def release(self) -> None:
        """Drop the cached shuffle handle (idempotent).

        Called when the index leaves its cache (eviction, invalidation) or
        its engine/service shuts down.  The handle holds bound methods of
        this index: a cycle that would keep a retired generation (features,
        cell lists, blocks) alive until the collector's next full pass
        instead of dying here.  An index that keeps serving queries simply
        rebuilds the handle on next use.
        """
        self._shuffle = None

    # ------------------------------------------------------------------ #
    # query preparation

    def keyword_hits(self, keywords, radius: float = math.inf) -> Mapping[int, int]:
        """Candidate position -> ``|f.W ∩ q.W|`` (one posting-list walk)
        of the features in reach at ``radius``."""
        hits = self._inverted.keyword_hits(keywords)
        reach = self._reach
        return hits if reach is None else {p: n for p, n in hits.items() if reach[p] <= radius}

    def candidate_positions(self, keywords) -> List[int]:
        """Storage positions of features relevant to the query keywords."""
        return self._inverted.candidate_positions(keywords)

    def prepare(
        self,
        query: SpatialPreferenceQuery,
        candidates: Optional[List[int]] = None,
        hits: Optional[Mapping[int, int]] = None,
    ) -> PreparedQuery:
        """Gather the pre-partitioned map input of one query, in one pass.

        ``candidates`` and ``hits`` let a caller that already walked the
        posting lists for this query (the engine's planner does) pass
        :meth:`keyword_hits` and the positions to map in instead of walking
        them again; only features in reach are candidates, and only they
        count as pruned.  Every candidate's score is ``jaccard``'s division over
        its hit count and ``|f.W|`` -- the same integers, so the same float
        -- and 0.0 for a candidate with no hit.
        """
        if hits is None:
            hits = self.keyword_hits(query.keywords, query.radius)
        if candidates is None:
            candidates = sorted(hits)
        cells, radius_cache_hit = self._gather_cells(query.radius, candidates)
        features = list(map(self._feature_objects.__getitem__, candidates))
        keyword_counts = self._keyword_counts
        query_size = len(frozenset(query.keywords))
        scores = [
            common / (keyword_counts[position] + query_size - common)
            if (common := hits.get(position, 0))
            else 0.0
            for position in candidates
        ]
        sizes = list(map(self._record_sizes.__getitem__, candidates))
        return PreparedQuery(
            split=MapSplit(features, cells, scores, sizes),
            num_candidates=len(candidates),
            num_pruned=self.features_within(query.radius) - len(candidates),
            radius_cache_hit=radius_cache_hit,
        )

    # ------------------------------------------------------------------ #
    # the auto route

    def scan(
        self,
        query: SpatialPreferenceQuery,
        hits: Mapping[int, int],
        snapshot: Optional[DeltaSnapshot] = None,
    ) -> ScanResult:
        """``auto``'s answer: Lemma 3 applied across every cell at once.

        eSPQsco stops per cell because the paper's reducers run apart; here
        every cell is in one process, so the bound is global.  The
        candidates (``hits``, :meth:`keyword_hits`) are walked one score
        level at a time, best first: only the distinct ``(|f.W ∩ q.W|,
        |f.W|)`` pairs are scored -- with :meth:`prepare`'s division, so the
        floats are bit-equal -- and sorted.  A data object within ``r`` of a
        feature of the level in hand and not reported yet scores exactly
        that level: no unseen feature scores higher.  Once ``k`` objects are
        reported the level in hand is finished -- equal scores keep going,
        so every object tied at the k-th score is found and the merge's
        ``(-score, oid)`` ranking settles the tie as the centralized oracle
        does -- and the scan stops before the first level strictly below.

        A feature's data is its Lemma-1 cells' blocks
        (:meth:`DataBlock.rows_within`) plus ``snapshot``'s appended data
        homed in those cells.  Tombstoned data rows and features are
        skipped and an appended feature joins its level when it reaches the
        scope, so the answer is a bulk swap's; a replaced oid's base row is
        tombstoned and its appended successor live.
        """
        radius = query.radius
        squared_radius = radius * radius
        query_size = len(query.keywords)
        dead: frozenset = frozenset()
        appended_data: Dict[int, List[DataObject]] = {}
        # (|f.W ∩ q.W|, |f.W|) -> the appended features' (x, y, Lemma-1 cells).
        extra: Dict[Tuple[int, int], List[Tuple[float, float, List[int]]]] = {}
        if snapshot is not None:
            positions = self.feature_positions_by_oid()
            deleted = {positions[oid] for oid in snapshot.deleted_feature_oids if oid in positions}
            if deleted:
                hits = {p: common for p, common in hits.items() if p not in deleted}
            dead = snapshot.deleted_data_oids
            for obj in snapshot.data:
                appended_data.setdefault(self.grid.locate(obj.x, obj.y), []).append(obj)
            partitioner = GridPartitioner(self.grid, radius)
            for f in snapshot.features:
                if self.scope is None or self.scope.min_distance(f.x, f.y) <= radius:
                    if common := shared_words(f.keywords, query.keywords):
                        extra.setdefault((common, len(f.keywords)), []).append(
                            (f.x, f.y, partitioner.assign_feature_object(f))
                        )
        # The base candidates' pairs in ``hits`` order, built at C speed: a
        # level's positions are one ``compress`` over them.
        pairs = list(zip(hits.values(), map(self._keyword_counts.__getitem__, hits)))
        levels: Dict[float, Set[Tuple[int, int]]] = {}
        for key in {*pairs, *extra}:
            common, size = key
            levels.setdefault(common / (size + query_size - common), set()).add(key)

        blocks = self._data_blocks()
        features = self._feature_objects
        outputs: List[Tuple[int, str, float]] = []
        seen: Set[str] = set()
        examined = tested = 0
        radius_cache_hit = True
        for score in sorted(levels, reverse=True):
            if len(outputs) >= query.k:
                break
            keys = levels[score]
            located: List[Tuple[float, float, Sequence[int]]] = []
            positions = list(compress(hits, map(keys.__contains__, pairs)))
            if positions:
                cells, known = self._gather_cells(radius, positions)
                radius_cache_hit = radius_cache_hit and known
                located.extend(
                    (features[p].x, features[p].y, c) for p, c in zip(positions, cells)
                )
            for key in keys:
                located.extend(extra.get(key, ()))
            examined += len(located)
            for fx, fy, cells in located:
                for cell in cells:
                    entry = blocks[cell - 1]  # the partition of ``cell``
                    if entry is not None:
                        rows = entry[1].rows_within(fx, fy, radius)
                        tested += len(rows)
                        oids = entry[1].oids
                        for row in rows:
                            oid = oids[row]
                            if oid not in seen and oid not in dead:
                                seen.add(oid)
                                outputs.append((cell, oid, score))
                    for obj in appended_data.get(cell, ()) if appended_data else ():
                        tested += 1
                        dx = obj.x - fx
                        dy = obj.y - fy
                        if dx * dx + dy * dy <= squared_radius and obj.oid not in seen:
                            seen.add(obj.oid)
                            outputs.append((cell, obj.oid, score))
        return ScanResult(outputs, examined, tested, len(pairs), radius_cache_hit)
