"""The paper's three algorithms expressed as MapReduce jobs.

All three jobs share the same structure (single MapReduce job, Section 4.2):

* **Map**: assign each object to its enclosing grid cell; drop feature objects
  with no common keyword with the query (the pruning rule); duplicate feature
  objects into every neighbouring cell with ``MINDIST <= r`` (Lemma 1); emit
  records under a composite key ``(cell_id, secondary)``.
* **Partition**: by cell id only, so every object of a cell reaches the same
  reducer (the paper's custom Partitioner).
* **Sort**: by the composite key, so data objects precede feature objects and
  feature objects arrive in the algorithm-specific order (the paper's custom
  Comparator).
* **Group**: by cell id, so one reduce call processes one cell.
* **Reduce**: load the cell's data objects in memory and scan feature objects
  in order, maintaining the top-k list; the two eSPQ variants stop early.

Reduce output records are ``(cell_id, object_id, score)`` triples; the engine
merges the per-cell top-k lists into the global top-k.

Work counters (group ``"work"``) recorded by the reducers:

* ``features_examined``  -- feature objects actually read before termination,
* ``score_computations`` -- data-feature distance/score evaluations,
which the cluster cost model converts into simulated reduce time.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import JobExecutionError
from repro.index.columns import DataBlock
from repro.index.records import (
    DATA_RECORD_BYTES,
    CellRun,
    MapSplit,
    feature_record_size,
)
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import MapReduceJob
from repro.core.scoring import feature_contribution
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import TopKList
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner
from repro.text.similarity import JaccardScorer, upper_bound_for_length

#: Tag values of the pSPQ composite key: data objects sort before features.
TAG_DATA = 0
TAG_FEATURE = 1

#: Work-counter names.
WORK_GROUP = "work"
FEATURES_EXAMINED = "features_examined"
SCORE_COMPUTATIONS = "score_computations"

#: Informational counters (group ``"spq"``).
SPQ_GROUP = "spq"
FEATURES_PRUNED = "features_pruned"
FEATURE_DUPLICATES = "feature_duplicates"
DATA_OBJECTS = "data_objects"
FEATURES_KEPT = "features_kept"
EARLY_TERMINATIONS = "early_terminations"


class _CellData:
    """One reduce group's data objects, accumulated in columnar form.

    A group's data arrives either as one preinjected :class:`DataBlock`
    (adopted by reference -- blocks are cached per dataset snapshot and must
    never be mutated) or as individual :class:`DataObject` values from the
    live shuffle stream.  ``objs``/``xs``/``ys`` stay parallel and in
    storage/arrival order -- the exact order the per-object reduce would
    have streamed the cell's data objects.
    """

    __slots__ = ("objs", "xs", "ys", "_block", "_shared")

    def __init__(self) -> None:
        self.objs: List[DataObject] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self._block: Optional[DataBlock] = None
        self._shared = False

    def __len__(self) -> int:
        return len(self.objs)

    def adopt(self, block: DataBlock) -> None:
        """Take a shared block's columns by reference (copy-on-append)."""
        if self._block is None and not self.objs:
            self._block = block
            self._shared = True
            self.objs = block.objs
            self.xs = block.xs
            self.ys = block.ys
            return
        self._thaw()
        self.objs.extend(block.objs)
        self.xs.extend(block.xs)
        self.ys.extend(block.ys)

    def _thaw(self) -> None:
        if self._shared:
            self.objs = list(self.objs)
            self.xs = list(self.xs)
            self.ys = list(self.ys)
            self._shared = False
        self._block = None

    def append(self, obj: DataObject) -> None:
        if self._shared or self._block is not None:
            self._thaw()
        self.objs.append(obj)
        self.xs.append(obj.x)
        self.ys.append(obj.y)

    def frozen(self) -> DataBlock:
        """The data as one block, whose caches serve what a reducer asks.

        An adopted block caches its x-sorted permutation, oid columns and
        in-range rows per cell per dataset snapshot, across queries and job
        classes.  Live streams are frozen on first use, into a block that
        lives for this reduce and so memoizes no in-range rows: the
        composite-key sort delivers every data record before the first
        feature, so the data set is complete by the time a feature needs it
        (a later append would copy-on-write and drop the frozen block).
        """
        block = self._block
        if block is None:
            block = self._block = DataBlock(0, self.objs, self.xs, self.ys, memo=False)
        return block


class _SPQJobBase(MapReduceJob):
    """Shared map-side logic of the three SPQ jobs.

    Args:
        query: The query ``q(k, r, W)``.
        grid: Query-time uniform grid (one cell per reduce task).
        prune_irrelevant: When True (the default, and what the paper does),
            feature objects sharing no keyword with the query are dropped in
            the map phase.  Setting it to False keeps them, which is only
            useful for the ablation benchmark quantifying the value of the
            pruning rule -- the query result is unaffected either way.
    """

    #: A cell whose reduce group holds only (preloaded) data objects has no
    #: feature to score against, so all three algorithms output nothing for
    #: it; the runner may skip such reduce tasks in pre-partitioned runs.
    preloaded_only_partitions_are_empty = True

    def __init__(
        self,
        query: SpatialPreferenceQuery,
        grid: UniformGrid,
        prune_irrelevant: bool = True,
    ) -> None:
        self.query = query
        self.grid = grid
        self.prune_irrelevant = prune_irrelevant
        self.partitioner = GridPartitioner(grid, query.radius)
        self._scorer: Optional[JaccardScorer] = None

    @property
    def scorer(self) -> JaccardScorer:
        """Per-query memoizing Jaccard scorer (lazily built)."""
        scorer = self._scorer
        if scorer is None:
            scorer = self._scorer = JaccardScorer(self.query.keywords)
        return scorer

    # -------------------------------------------------------------- #
    # map side

    def map(self, record: Any, counters: Counters) -> Iterable[Tuple[Any, Any]]:
        if isinstance(record, DataObject):
            counters.increment(SPQ_GROUP, DATA_OBJECTS)
            cell_id = self.partitioner.assign_data_object(record)
            yield self._data_key(cell_id), record
            return
        if not isinstance(record, FeatureObject):
            raise TypeError(f"unsupported input record type: {type(record)!r}")
        if self.prune_irrelevant and not record.has_common_keyword(self.query.keywords):
            # Pruning rule (Algorithm 1, line 9): irrelevant features cannot
            # contribute to any score and are never shuffled.
            counters.increment(SPQ_GROUP, FEATURES_PRUNED)
            return
        counters.increment(SPQ_GROUP, FEATURES_KEPT)
        cells = self.partitioner.assign_feature_object(record)
        counters.increment(SPQ_GROUP, FEATURE_DUPLICATES, len(cells) - 1)
        self._count_map_feature_work(len(cells), 1, counters)
        for cell_id in cells:
            yield self._feature_key(cell_id, record), self._feature_value(record)

    def map_split(
        self, split: MapSplit, num_reducers: int, counters: Counters
    ) -> Tuple[Dict[int, Dict[int, CellRun]], int, int]:
        """Map a pre-assigned columnar split into per-cell runs of its rows.

        Pruning, grid location, Lemma-1 duplication, scores and record
        sizes are already in the split's columns, and nothing is built per
        emitted copy: the feature rows are stable-sorted **once**, by the
        sort secondary of
        :meth:`_feature_columns`, and scattered in that order, so each cell
        collects the row numbers of the records that reach it -- delta data
        rows first, in row order, then features -- already in ``(sort_key,
        sequence)`` order (emission is feature-major and a feature reaches a
        cell at most once, so within one sort key row order *is* sequence
        order).  Expanded back into ``(sort_key, sequence, key, value)``
        entries the runs are, entry for entry and counter for counter --
        values and key creation order -- what
        :func:`~repro.execution.tasks.run_map_task` builds by calling
        :meth:`map` on the same objects one by one; the counters are closed
        forms over the cell-list lengths, each written once, and the routing
        hook runs once per distinct cell (SPQ jobs partition on the cell id
        alone).  Returns ``(partition -> cell -> run, emitted, shuffle
        bytes)``.
        """
        features = split.features
        cells = split.cells
        num_data = len(split.data)
        sort_keys, values = self._feature_columns(split)
        if num_data:
            # Delta data rows ride in front; their sort secondary is the same
            # for every cell and sorts ahead of any feature's.
            values = [*split.data, *values]
            sort_keys = [self.sort_key(self._data_key(0))[1]] * num_data + sort_keys
        runs: Dict[int, Dict[int, CellRun]] = {}
        send: Dict[int, Any] = {}
        for cell_id in dict.fromkeys(chain(split.data_cells, chain.from_iterable(cells))):
            key = self._data_key(cell_id)
            partition = self.partition(key, num_reducers)
            if not 0 <= partition < num_reducers:
                raise JobExecutionError(
                    f"partition {partition} outside [0, {num_reducers}) for key {key!r}"
                )
            rows: List[int] = []
            send[cell_id] = rows.append
            runs.setdefault(partition, {})[cell_id] = CellRun(rows, values, sort_keys)
        for row, cell_id in enumerate(split.data_cells):
            send[cell_id](row)
        for row in sorted(range(num_data, len(values)), key=sort_keys.__getitem__):
            for cell_id in cells[row - num_data]:
                send[cell_id](row)

        # The per-record loop creates each counter at its first increment and
        # data rows precede features, so these writes follow that order; the
        # caller adds the emission totals, as it does for that loop.
        kept = len(features)
        copies = sum(map(len, cells))
        shuffle_bytes = DATA_RECORD_BYTES * num_data + sum(
            map(int.__mul__, split.sizes, map(len, cells))
        )
        if num_data:
            counters.increment(SPQ_GROUP, DATA_OBJECTS, num_data)
            counters.increment(counter_names.GROUP_MAP, counter_names.MAP_OUTPUT_RECORDS, 0)
        if kept:
            counters.increment(SPQ_GROUP, FEATURES_KEPT, kept)
            counters.increment(SPQ_GROUP, FEATURE_DUPLICATES, copies - kept)
            self._count_map_feature_work(copies, kept, counters)
        return runs, num_data + copies, shuffle_bytes

    @staticmethod
    def mapped_data_counters(count: int) -> Counters:
        """What mapping ``count`` pre-assigned data records counts, in closed form.

        :meth:`map` turns every data record into exactly one
        ``DATA_RECORD_BYTES`` shuffle record, whatever the job class, so
        the preloaded side of a run (``DatasetIndex.data_shuffle``) states
        its counter deltas without mapping anything -- key for key what
        ``run_map_task`` over the records produces, including that only
        ``map.input_records`` exists when ``count`` is 0.
        """
        counters = Counters()
        if count:
            counters.increment(SPQ_GROUP, DATA_OBJECTS, count)
            counters.increment(counter_names.GROUP_MAP, counter_names.MAP_OUTPUT_RECORDS, count)
            counters.increment(counter_names.GROUP_SHUFFLE, counter_names.SHUFFLE_RECORDS, count)
            counters.increment(
                counter_names.GROUP_SHUFFLE,
                counter_names.SHUFFLE_BYTES,
                DATA_RECORD_BYTES * count,
            )
        counters.increment(counter_names.GROUP_MAP, counter_names.MAP_INPUT_RECORDS, count)
        return counters

    def _data_key(self, cell_id: int) -> Tuple:
        raise NotImplementedError

    def _feature_key(self, cell_id: int, feature: FeatureObject) -> Tuple:
        raise NotImplementedError

    def _feature_value(self, feature: FeatureObject) -> Any:
        # Every job ships ``(feature, w(f, q))``: no reducer re-scores.
        return (feature, self.scorer.score(feature.keywords))

    def _feature_columns(self, split: MapSplit) -> Tuple[List[Any], Sequence[Any]]:
        """Per feature of ``split``, what :meth:`map_split` needs beyond its cells.

        Two columns parallel to ``split.features``: the sort key's secondary
        component (as :meth:`sort_key` of :meth:`_feature_key`) and the
        shuffled value (as :meth:`_feature_value`), whose score the index
        computed from its postings (``split.scores``) -- every copy carries
        the identical float.
        """
        return self._feature_sort_keys(split), list(zip(split.features, split.scores))

    def _feature_sort_keys(self, split: MapSplit) -> List[Any]:
        """The sort secondary column of :meth:`_feature_columns`."""
        raise NotImplementedError

    def _count_map_feature_work(self, copies: int, kept: int, counters: Counters) -> None:
        """Record algorithm-specific map-side work for ``kept`` kept features
        emitted as ``copies`` records.

        The base jobs do none (their composite keys are free to build);
        eSPQsco overrides this -- its map phase computes the Jaccard score
        ``w(f, q)`` once for the shipped value and once per emitted copy's
        key, which the cost model charges as map-side work units.
        """

    # -------------------------------------------------------------- #
    # routing: partition and group on the cell id only

    def partition(self, key: Tuple, num_reducers: int) -> int:
        return (key[0] - 1) % num_reducers

    def group_key(self, key: Tuple) -> int:
        return key[0]

    def sort_key(self, key: Tuple) -> Tuple:
        return key

    def estimated_record_size(self, key: Any, value: Any) -> int:
        # Text-serialized record size: coordinates plus keywords for features.
        if isinstance(value, tuple):
            value = value[0]
        if isinstance(value, FeatureObject):
            return feature_record_size(value)
        return DATA_RECORD_BYTES


class PSPQJob(_SPQJobBase):
    """pSPQ (Section 4): grid partitioning, exhaustive per-cell nested loop.

    In addition to the paper's range score, this job supports the truncated
    *influence* score variant (see :mod:`repro.core.scoring`): the map side is
    unchanged (Lemma 1 only depends on the radius cutoff), and in the reduce
    side the textual score ``w(f, q)`` is still a valid upper bound on any
    feature's contribution, so the threshold check of Algorithm 2 remains
    correct.  The early-termination jobs are defined for the range score only,
    as in the paper.
    """

    name = "pSPQ"

    def __init__(
        self,
        query: SpatialPreferenceQuery,
        grid: UniformGrid,
        prune_irrelevant: bool = True,
        score_mode: str = "range",
    ) -> None:
        super().__init__(query, grid, prune_irrelevant=prune_irrelevant)
        if score_mode not in ("range", "influence"):
            raise ValueError(
                f"pSPQ supports score modes 'range' and 'influence', got {score_mode!r}"
            )
        self.score_mode = score_mode

    def _data_key(self, cell_id: int) -> Tuple:
        return (cell_id, TAG_DATA)

    def _feature_key(self, cell_id: int, feature: FeatureObject) -> Tuple:
        return (cell_id, TAG_FEATURE)

    def _feature_sort_keys(self, split):
        return [TAG_FEATURE] * len(split.features)

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        """Per-cell nested-loop reduce of pSPQ (paper Algorithm 2).

        The cell's data is accumulated as parallel columns (adopting a
        preinjected :class:`DataBlock` when the runner provides one).  Each
        feature arrives with its score; one that passes the threshold
        offers its in-range rows (:meth:`DataBlock.rows_within`, the exact
        squared-distance predicate, memoized on the block per feature
        position and radius) in storage order, so results, scores and
        counters are bit-for-bit those of the paper's per-object loop (kept
        verbatim as the oracle in ``tests/object_oracle.py``).
        """
        query = self.query
        data = _CellData()
        top = TopKList(query.k)
        examined = 0
        computations = 0
        range_mode = self.score_mode == "range"
        radius = query.radius
        offer = top.offer
        for value in values:
            if value.__class__ is DataBlock:
                data.adopt(value)
                continue
            if isinstance(value, DataObject):
                data.append(value)
                continue
            feature, score = value
            examined += 1
            if score <= top.threshold:
                # The feature cannot improve the current top-k; skip the
                # nested loop (Algorithm 2, line 9) but keep reading input.
                continue
            # The cost model charges one computation per (data, feature)
            # pair of the cell whether or not the window filter tested it.
            computations += len(data)
            if not data.objs:
                continue
            if range_mode:
                block = data.frozen()
                objs = block.objs
                for row in block.rows_within(feature.x, feature.y, radius):
                    offer(objs[row], score)
            else:
                for obj in data.objs:
                    contribution = feature_contribution(
                        obj, feature, query, self.score_mode
                    )
                    if contribution > 0.0:
                        offer(obj, contribution)
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return [(group, oid, score) for oid, score in top.ranked()]


class ESPQLenJob(_SPQJobBase):
    """eSPQlen (Section 5.1): features sorted by increasing keyword count.

    The reducer stops as soon as the length-based upper bound ``w̄(f, q)``
    (Equation 1) of the next feature cannot exceed the current threshold
    ``tau`` (Lemma 2).
    """

    name = "eSPQlen"

    def _data_key(self, cell_id: int) -> Tuple:
        return (cell_id, 0)

    def _feature_key(self, cell_id: int, feature: FeatureObject) -> Tuple:
        return (cell_id, feature.keyword_count)

    def _feature_sort_keys(self, split):
        return [len(feature.keywords) for feature in split.features]

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        """Length-bound early-terminating reduce of eSPQlen (Algorithm 3).

        The same shipped scores and memoized in-range rows as pSPQ, with
        the Lemma 2 bound/termination logic untouched (it only reads the
        feature stream and the top-k threshold).
        ``tests/object_oracle.py`` keeps the per-object loop as the oracle.
        """
        query = self.query
        data = _CellData()
        top = TopKList(query.k)
        query_len = query.keyword_count
        k = query.k
        radius = query.radius
        offer = top.offer
        examined = 0
        computations = 0
        for value in values:
            if value.__class__ is DataBlock:
                data.adopt(value)
                continue
            if isinstance(value, DataObject):
                data.append(value)
                continue
            feature, score = value
            examined += 1
            bound = upper_bound_for_length(feature.keyword_count, query_len)
            tau = top.threshold
            if len(top) >= k and tau >= bound:
                # Lemma 2: no remaining feature (all at least this long) can
                # improve the k-th best score.
                counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
                break
            if score <= tau:
                continue
            computations += len(data)
            if not data.objs:
                continue
            block = data.frozen()
            objs = block.objs
            for row in block.rows_within(feature.x, feature.y, radius):
                offer(objs[row], score)
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return [(group, oid, score) for oid, score in top.ranked()]


class ESPQScoJob(_SPQJobBase):
    """eSPQsco (Section 5.2): features sorted by decreasing Jaccard score.

    The map phase computes ``w(f, q)`` and embeds it in the composite key; the
    reducer reports data objects as soon as they are found within distance
    ``r`` of a feature, and stops after ``k`` objects have been reported
    (Lemma 3).
    """

    name = "eSPQsco"

    #: Secondary-key value for data objects: strictly above any Jaccard score
    #: so that, under the descending sort, data objects come first.
    DATA_SORT_VALUE = 2.0

    def _data_key(self, cell_id: int) -> Tuple:
        return (cell_id, self.DATA_SORT_VALUE)

    def _feature_key(self, cell_id: int, feature: FeatureObject) -> Tuple:
        # Memoized: each duplicated copy of a feature reuses the identical
        # float; the map-side work counter below still charges every copy.
        return (cell_id, self.scorer.score(feature.keywords))

    def _feature_sort_keys(self, split):
        return [-value for value in split.scores]

    def _count_map_feature_work(self, copies: int, kept: int, counters: Counters) -> None:
        # Per feature, one score for the value plus one per emitted copy's
        # composite key.
        counters.increment(
            counter_names.GROUP_MAP, counter_names.MAP_SCORE_COMPUTATIONS, copies + kept
        )

    def sort_key(self, key: Tuple) -> Tuple:
        """Secondary sort: data objects first, then descending score."""
        # Descending order of the secondary component: data objects (2.0)
        # first, then features from highest to lowest score.
        return (key[0], -key[1])

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        """Report-as-you-go early-terminating reduce of eSPQsco (Algorithm 4).

        A storage-order scan over the coordinate columns that stops at the
        k-th report.  Distance comes first: ``dx * dx`` alone
        past ``r²`` rules a row out exactly (adding ``dy * dy >= 0`` cannot
        lower a float sum), and a row's oid is looked at only on a hit.  A
        candidate window over the x-sorted rows would find the matches too,
        but re-sorting them into storage order made batches slower
        (docs/dataplane.md): the scan already stops after a few dozen rows.

        ``score_computations`` is what the per-object loop charges -- one
        per row it tests, skipping rows whose oid is already reported -- in
        closed form.  Each feature is charged a full scan up front: the cell
        size minus the rows of every oid reported before it.  A report at
        row ``p`` takes back its oid's rows after ``p`` (skipped later in
        the same scan), and the k-th report takes back the rows the scan
        never reached, net of those already taken back.  A cell may hold one
        oid on several rows; the block's cached ``oid_rows`` column says
        which.  ``tests/object_oracle.py`` keeps the per-object loop as the
        oracle.
        """
        data = _CellData()
        reported: List[Tuple[int, str, float]] = []
        reported_ids: set = set()
        k = self.query.k
        radius = self.query.radius
        squared_radius = radius * radius
        examined = 0
        computations = 0
        block: Optional[DataBlock] = None
        # The rows of every reported oid, and how many rows that is.
        held: List[Tuple[int, ...]] = []
        skipped = 0
        for value in values:
            if value.__class__ is DataBlock:
                data.adopt(value)
                continue
            if isinstance(value, DataObject):
                data.append(value)
                continue
            feature, score = value
            examined += 1
            if score <= 0.0:
                # Scores are sorted descending: nothing below can contribute.
                counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
                break
            if block is None:
                block = data.frozen()
                xs, ys, oids, oid_rows = block.xs, block.ys, block.oids, block.oid_rows
                size = len(xs)
            fx = feature.x
            fy = feature.y
            computations += size - skipped
            for row, x in enumerate(xs):
                if (
                    (squared := (dx := x - fx) * dx) <= squared_radius
                    and squared + (dy := ys[row] - fy) * dy <= squared_radius
                    and (oid := oids[row]) not in reported_ids
                ):
                    # Lemma 3: the feature currently examined has the highest
                    # score among all unseen features, so tau(obj) == score.
                    reported.append((group, oid, score))
                    reported_ids.add(oid)
                    rows = oid_rows[row]
                    held.append(rows)
                    skipped += len(rows)
                    computations -= len(rows) - bisect_right(rows, row)
                    if len(reported) >= k:
                        beyond = skipped - sum(map(bisect_right, held, repeat(row)))
                        computations -= size - row - 1 - beyond
                        break
            else:
                continue  # the scan ended below k reports: next feature
            counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
            break
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return reported
