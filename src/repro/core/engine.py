"""The public query-processing engine.

:class:`SPQEngine` wires everything together: it holds a pair of datasets
(data objects and feature objects), builds the query-time grid, runs one of
the paper's MapReduce algorithms on the simulated engine (or the centralized
oracle), merges the per-cell top-k lists into the global result and attaches
execution statistics -- including the simulated job execution time from the
cluster cost model, which is the metric all the paper's figures report.

Typical use::

    engine = SPQEngine(data_objects, feature_objects)
    query = SpatialPreferenceQuery.create(k=10, radius=0.5, keywords={"italian"})
    result = engine.execute(query, algorithm="espq-sco", grid_size=50)
    for entry in result:
        print(entry.obj.oid, entry.score)
    print(result.stats["simulated_seconds"])

There is **one execution path**.  Every distributed query -- ``execute``
with a named algorithm or ``"auto"``, ``execute_many``, the CLI, the service
-- builds a :class:`~repro.index.planner.PlannedQuery` and runs through
:meth:`SPQEngine._execute_planned`: the (LRU-cached)
:class:`~repro.index.dataset_index.DatasetIndex` of its grid size supplies the
candidate features and their Lemma-1 cells as a columnar split and each
cell's data objects as a preloaded block, so a query examines only the
records that can matter to it.  The index build and the per-radius
duplication lists are shared by every later query of the engine;
:meth:`SPQEngine.execute_many` also pins one delta snapshot for its batch::

    results = engine.execute_many(queries, algorithm="espq-sco")

``"auto"`` takes the same index and delta snapshot but runs no job: the
paper's eSPQsco stops per cell because its reducers run on separate
machines, while here every cell is in one process, so Lemma 3 holds across
the whole grid and one score-ordered scan (:meth:`DatasetIndex.scan`)
answers -- exactly, ties included, usually after a few features.  The
named algorithms keep the paper's per-cell jobs: they are the
reproduction.

The paper's plain formulation -- every data and feature object streamed
through the per-record ``map`` -- is not an engine route any more: it is the
test oracle ``tests/raw_oracle.py::raw_execute``, kept beside the centralized
oracle to check the index path against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.centralized import CentralizedSPQ, dataset_extent
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob, _SPQJobBase
from repro.exceptions import (
    InvalidQueryError,
    JobConfigurationError,
    ResultIntegrityError,
)
from repro.index.cache import IndexCache
from repro.index.dataset_index import DatasetIndex, ScanResult
from repro.index.delta import (
    DatasetDelta,
    DeltaSnapshot,
    materialize,
    with_delta_appends,
)
from repro.index.planner import BatchQuery, PlannedQuery, plan_batch
from repro.index.records import MapSplit
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.runtime import JobResult, LocalJobRunner, PreloadedShuffle
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import QueryResult, ScoredObject, merge_top_k
from repro.planner.core import AUTO_ALGORITHM, QueryPlanner
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

#: Names of the concrete algorithms :meth:`SPQEngine.execute` can run.
ALGORITHMS = ("pspq", "espq-len", "espq-sco", "centralized")

#: Everything ``algorithm=`` accepts: the concrete algorithms plus
#: ``"auto"``, which runs no paper job but one global Lemma-3 scan
#: (:meth:`SPQEngine._execute_scan`, :data:`~repro.planner.core.AUTO_CHOICE`).
ALGORITHM_CHOICES = ALGORITHMS + (AUTO_ALGORITHM,)

_JOB_CLASSES = {
    "pspq": PSPQJob,
    "espq-len": ESPQLenJob,
    "espq-sco": ESPQScoJob,
}


def validate_algorithm_combination(algorithm: str, score_mode: str) -> None:
    """Reject unsupported algorithm / score-mode combinations up front.

    Module-level so front-ends that run no local engine -- the cluster
    router validates requests before scattering them over HTTP -- apply
    exactly the rules :meth:`SPQEngine.validate_combination` (which
    delegates here) enforces on the nodes.

    Args:
        algorithm: One of :data:`ALGORITHM_CHOICES`.
        score_mode: ``"range"`` / ``"influence"`` / ``"nearest"``.

    Raises:
        InvalidQueryError: for an unknown algorithm or score mode, or an
            unsupported combination.
    """
    if algorithm not in ALGORITHM_CHOICES:
        raise InvalidQueryError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_CHOICES}"
        )
    if algorithm == AUTO_ALGORITHM:
        if score_mode != "range":
            raise InvalidQueryError(
                "algorithm='auto' runs only the 'range' score mode (the "
                "early-termination algorithm it runs is defined for "
                "'range' only); pick an algorithm explicitly"
            )
        return
    if algorithm == "centralized":
        return
    if score_mode != "range" and algorithm != "pspq":
        raise InvalidQueryError(
            f"algorithm {algorithm!r} supports only the 'range' score mode"
        )
    if score_mode == "nearest":
        raise InvalidQueryError(
            "the 'nearest' score mode is only available with algorithm='centralized'"
        )
    if algorithm == "pspq" and score_mode not in ("range", "influence"):
        raise InvalidQueryError(
            f"pspq supports score modes 'range' and 'influence', got {score_mode!r}"
        )

#: Counter group/name used to report index-side pruning (the map-side
#: counter of the generic record route, see ``core/jobs.py``).
_SPQ_GROUP = "spq"
_FEATURES_PRUNED = "features_pruned"


@dataclass
class EngineConfig:
    """Execution configuration of the engine.

    Attributes:
        grid_size: Default number of grid cells per axis (the paper's "grid
            size"); can be overridden per query.
        backend: ``"serial"``, the only execution backend.  A one-value
            field kept because callers spell it out (``benchmarks/e2e``
            among them); any other value raises
            :class:`~repro.exceptions.JobConfigurationError`.
    """

    grid_size: int = 50
    backend: str = "serial"

    def __post_init__(self) -> None:
        if self.backend != "serial":
            raise JobConfigurationError(
                f"backend {self.backend!r} is not available: the process "
                "backend was removed and every task runs serially; use "
                "backend='serial' or leave it out"
            )


class SPQEngine:
    """Evaluate spatial preference queries using keywords over in-memory datasets."""

    def __init__(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        config: Optional[EngineConfig] = None,
        extent: Optional[BoundingBox] = None,
        index_cache: Optional[IndexCache] = None,
        delta: Optional[DatasetDelta] = None,
        scope: Optional[BoundingBox] = None,
    ) -> None:
        """Wire an engine over in-memory datasets.

        Args:
            data_objects: The object dataset ``O``.
            feature_objects: The feature dataset ``F``.
            config: Engine knobs (defaults to :class:`EngineConfig`).
            extent: Explicit dataset bounding box; computed lazily otherwise.
            index_cache: A (possibly shared) :class:`IndexCache`.  The query
                service passes one cache to every engine of its pool so an
                index built for any of them serves all of them; engines
                sharing a cache must hold the same dataset snapshot.
            delta: A (possibly shared) :class:`DatasetDelta` -- the
                append/delete overlay of :meth:`apply_updates`.  The query
                service shares one across its pool so a write absorbed via
                any engine is visible to all; a private one is created
                otherwise.
            scope: The box of the shard whose data this engine ranks (the
                sharding layer passes it; None for an unsharded engine).
                Every query drops the features that cannot reach it at the
                query's radius (see :class:`DatasetIndex`).
        """
        self.data_objects = list(data_objects)
        self.feature_objects = list(feature_objects)
        self.config = config or EngineConfig()
        self.scope = scope
        self._extent = extent
        self._explicit_extent = extent is not None
        self._dataset_version = 0
        #: Whether this engine owns its cache's lifecycle: a shared cache
        #: (query-service engine pool) is released by the service's shutdown,
        #: not by any single pooled engine's close().
        self._owns_index_cache = index_cache is None
        self._index_cache = index_cache if index_cache is not None else IndexCache()
        self._oid_index: Optional[Dict[str, DataObject]] = None
        self._oid_index_source: Optional[List[DataObject]] = None
        #: Likewise the delta: a shared one is reset by its owner, once per
        #: swap or compaction, not once per pooled engine.
        self._owns_delta = delta is None
        self._delta = delta if delta is not None else DatasetDelta()
        #: The delta snapshot the last compaction folded into the base (None
        #: after a full swap): what the cached indexes' successors fold in.
        self._folded: Optional[DeltaSnapshot] = None
        #: Lazily built base oid sets for append validation, guarded by
        #: list identity like the oid lookup.
        self._base_oids: Optional[Tuple[Set[str], Set[str]]] = None
        self._base_oids_source: Optional[List[DataObject]] = None
        #: Walks each query's posting lists and counts ``auto`` queries.
        self.planner = QueryPlanner()
        #: The paper's 16-node cluster at the default per-unit costs: the
        #: model behind ``simulated_seconds``.
        self._cost_model = CostModel()
        if extent is not None and (extent.width <= 0 or extent.height <= 0):
            raise InvalidQueryError(
                f"explicit engine extent is degenerate ({extent.width} x "
                f"{extent.height}); a query-time grid needs positive width and "
                "height.  Omit the extent to let the engine pad a degenerate "
                "dataset bounding box (collinear or identical points) "
                "automatically."
            )

    # ------------------------------------------------------------------ #
    # lifecycle

    def close(self) -> None:
        """Release the engine's cached indexes (idempotent and thread-safe).

        An engine that owns its index cache releases every cached index
        (:meth:`DatasetIndex.release`); the indexes stay cached, so the
        engine remains usable and a query racing the close runs on
        undisturbed.  A shared cache (the query service's engine pool) is
        released by the service's shutdown, not by one pooled engine.
        """
        if self._owns_index_cache:
            self._index_cache.release_all()

    def __enter__(self) -> "SPQEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def service_stats(self) -> Dict[str, object]:
        """Aggregate serving statistics of this engine (for ``/stats``).

        Covers the dataset snapshot, the index cache counters and the
        number of ``auto`` queries resolved.
        """
        return {
            "dataset_version": self._dataset_version,
            "num_data_objects": len(self.data_objects),
            "num_feature_objects": len(self.feature_objects),
            "index_cache": self.index_cache_stats,
            "planner": {"decisions": self.planner.decisions},
        }

    # ------------------------------------------------------------------ #

    @property
    def extent(self) -> BoundingBox:
        """Bounding box of both datasets (computed lazily and cached)."""
        if self._extent is None:
            self._extent = dataset_extent(self.data_objects, self.feature_objects)
        return self._extent

    def build_grid(self, grid_size: Optional[int] = None) -> UniformGrid:
        """Query-time grid over the dataset extent (``grid_size`` cells per axis)."""
        size = grid_size or self.config.grid_size
        return UniformGrid.square(self.extent, size)

    # ------------------------------------------------------------------ #
    # dataset lifecycle / index cache

    @property
    def dataset_version(self) -> int:
        """Monotonic version of the dataset snapshot; part of the index key."""
        return self._dataset_version

    @property
    def index_cache_stats(self) -> Dict[str, float]:
        """Hit/miss statistics of the engine's index cache."""
        return self._index_cache.stats.as_dict()

    def invalidate_indexes(self) -> None:
        """Declare the datasets changed: drop every cached index and lookup.

        Must be called after mutating :attr:`data_objects` /
        :attr:`feature_objects` in place; :meth:`set_datasets` does it
        automatically.  A shared index cache and delta are their owner's
        (the query service's) to invalidate and reset.
        """
        self._next_generation(folded=None)

    def _next_generation(self, folded: Optional[DeltaSnapshot]) -> None:
        """Bump the dataset version and drop what was derived from the old
        base; with ``folded`` (a compaction), the cached indexes are retired
        for their successors to fold instead of dropped."""
        self._dataset_version += 1
        self._folded = folded
        self._oid_index = None
        self._oid_index_source = None
        self._base_oids = None
        self._base_oids_source = None
        if self._owns_index_cache:
            if folded is None:
                self._index_cache.invalidate()
            else:
                self._index_cache.retire()
        if self._owns_delta:
            # A new base supersedes the pending delta: its appends and
            # tombstones were relative to the old one.  The reset still
            # bumps the delta version, keeping cache keys fresh.
            self._delta.reset()
        if folded is None and not self._explicit_extent:
            self._extent = None

    def set_datasets(
        self,
        data_objects: Sequence[DataObject],
        feature_objects: Sequence[FeatureObject],
        extent: Optional[BoundingBox] = None,
        scope: Optional[BoundingBox] = None,
    ) -> None:
        """Replace both datasets and invalidate every derived structure.

        Args:
            data_objects: The new object dataset ``O``.
            feature_objects: The new feature dataset ``F``.
            extent: New explicit grid extent.  Sharded deployments pass the
                *full* dataset extent here so every shard engine keeps laying
                its query grids over the same space as an unsharded engine
                (cell-for-cell alignment is what makes scatter-gather results
                identical).  ``None`` keeps the engine's current extent
                policy: an explicit construction-time extent stays, a lazily
                computed one is re-derived from the new datasets.
            scope: The shard box of the new slice (see :meth:`__init__`).
                Unlike ``extent`` it is not kept when omitted: a box belongs
                to the slice it bounds, so every swap states it.

        Raises:
            InvalidQueryError: for an explicit degenerate ``extent``.
        """
        if extent is not None and (extent.width <= 0 or extent.height <= 0):
            raise InvalidQueryError(
                f"explicit engine extent is degenerate ({extent.width} x "
                f"{extent.height}); a query-time grid needs positive width "
                "and height"
            )
        self.data_objects = list(data_objects)
        self.feature_objects = list(feature_objects)
        self.scope = scope
        if extent is not None:
            self._extent = extent
            self._explicit_extent = True
        self.invalidate_indexes()

    # ------------------------------------------------------------------ #
    # incremental updates (delta overlay; see docs/ingest.md)

    @property
    def delta(self) -> DatasetDelta:
        """The engine's append/delete overlay (shared across a service pool)."""
        return self._delta

    def apply_updates(
        self,
        append_data: Sequence[DataObject] = (),
        append_features: Sequence[FeatureObject] = (),
        delete_data_oids: Iterable[str] = (),
        delete_feature_oids: Iterable[str] = (),
    ) -> Dict[str, int]:
        """Absorb an incremental write batch into the delta overlay.

        No index is touched: the base :class:`DatasetIndex` snapshots stay
        valid (and cached), queries merge the delta in at execution time,
        and a later compaction (or :meth:`set_datasets`) folds the delta
        back into a fresh base.  Appends must lie within the served
        :attr:`extent` -- the query grids are pinned to it, and a clamped
        ``locate`` would silently corrupt the Lemma-1 duplication
        geometry.  Deletes are idempotent.

        Returns:
            The applied counts (``data_appended``, ``features_appended``,
            ``data_deleted``, ``features_deleted``, ``delta_version``).

        Raises:
            DatasetUpdateError: for duplicate-oid or out-of-extent appends
                (the whole batch is rejected; no partial state).
        """
        base_data_oids, base_feature_oids = self._base_oid_sets()
        return self._delta.apply(
            append_data=list(append_data),
            append_features=list(append_features),
            delete_data_oids=delete_data_oids,
            delete_feature_oids=delete_feature_oids,
            base_data_oids=base_data_oids,
            base_feature_oids=base_feature_oids,
            extent=self.extent,
        )

    def materialize_datasets(
        self, snapshot: Optional[DeltaSnapshot] = None
    ) -> "Tuple[List[DataObject], List[FeatureObject]]":
        """Base+delta folded into plain lists, in bulk-swap storage order.

        This is what compaction swaps in: surviving base objects keep
        their relative order, appended objects follow in arrival order.
        """
        snap = snapshot if snapshot is not None else self._delta.snapshot()
        return materialize(self.data_objects, self.feature_objects, snap)

    def compact(self, snapshot: Optional[DeltaSnapshot] = None) -> DeltaSnapshot:
        """Fold ``snapshot`` (default: the live delta) into the base now.

        The base becomes :meth:`materialize_datasets`; the extent and the
        scope stay pinned (deleting a hull object must not move the grids,
        and the fold changes a shard's content, not its box).  No cached
        index is thrown away: each is handed to its successor, which folds
        the snapshot into it on first use (``DatasetIndex.fold``) -- the
        answers are those of a :meth:`set_datasets` of the same state.
        Returns the folded snapshot.
        """
        snapshot = snapshot if snapshot is not None else self._delta.snapshot()
        extent = self.extent
        self.data_objects, self.feature_objects = self.materialize_datasets(snapshot)
        self._extent = extent
        self._next_generation(folded=snapshot)
        return snapshot

    def _base_oid_sets(self) -> "Tuple[Set[str], Set[str]]":
        if self._base_oids is None or self._base_oids_source is not self.data_objects:
            self._base_oids = (
                {obj.oid for obj in self.data_objects},
                {obj.oid for obj in self.feature_objects},
            )
            self._base_oids_source = self.data_objects
        return self._base_oids

    def get_index(self, grid_size: Optional[int] = None) -> DatasetIndex:
        """A :class:`DatasetIndex` for the given grid size (cached)."""
        index, _ = self._get_index(grid_size or self.config.grid_size)
        return index

    def _get_index(self, grid_size: int) -> "tuple[DatasetIndex, bool]":
        version = self._dataset_version
        folded = self._folded
        return self._index_cache.get_or_build(
            (grid_size, version),
            lambda: DatasetIndex(
                self.data_objects, self.feature_objects, self.build_grid(grid_size), self.scope
            ),
            predecessor=(grid_size, version - 1),
            fold=None if folded is None else (
                lambda retired: retired.fold(folded, self.build_grid(grid_size))
            ),
        )

    # ------------------------------------------------------------------ #
    # single-query execution

    def execute(
        self,
        query: SpatialPreferenceQuery,
        algorithm: str = "espq-sco",
        grid_size: Optional[int] = None,
        score_mode: str = "range",
    ) -> QueryResult:
        """Run a query with the chosen algorithm and return the global top-k.

        The same path as a one-query :meth:`execute_many`: the result, its
        counters and its ``stats`` tree (``stats["index"]`` included) are
        equal key for key.

        Args:
            query: The query ``q(k, r, W)``.
            algorithm: One of ``"pspq"``, ``"espq-len"``, ``"espq-sco"``,
                ``"centralized"``, or ``"auto"``: eSPQsco's Lemma 3 applied
                across the whole grid in one score-ordered scan, whose
                answer is the centralized oracle's positively scored
                prefix, ties included (``stats["planned_algorithm"]`` names
                it; no ``simulated_seconds``).
            grid_size: Cells per axis for this query (defaults to the engine
                configuration); ignored by the centralized algorithm.
            score_mode: ``"range"`` (the paper's score, default) or
                ``"influence"`` / ``"nearest"`` extension variants.  The
                distributed early-termination algorithms support only
                ``"range"``; ``"influence"`` is additionally supported by
                ``"pspq"`` and all variants by ``"centralized"``.

        Raises:
            InvalidQueryError: for an unknown algorithm name or an unsupported
                algorithm / score-mode combination.
        """
        self.validate_combination(algorithm, score_mode)
        return self._execute_planned(
            PlannedQuery(
                position=0,
                query=query,
                algorithm=algorithm,
                grid_size=grid_size or self.config.grid_size,
                score_mode=score_mode,
            ),
            delta_snapshot=self._delta.snapshot(),
        )

    def execute_many(
        self,
        queries: Sequence[Union[SpatialPreferenceQuery, BatchQuery]],
        algorithm: str = "espq-sco",
        grid_size: Optional[int] = None,
        score_mode: str = "range",
        delta_snapshot: Optional[DeltaSnapshot] = None,
    ) -> List[QueryResult]:
        """Run a batch of queries, sharing index builds across them.

        Each element of ``queries`` is either a plain
        :class:`SpatialPreferenceQuery` (executed with the call's default
        ``algorithm`` / ``grid_size`` / ``score_mode``) or a
        :class:`~repro.index.planner.BatchQuery` carrying per-query overrides.

        The batch planner groups queries by grid size and score mode so that
        one :class:`DatasetIndex` build (or cache hit) serves every query of
        a group, and per-radius duplication lists computed for one query are
        reused by every later query with the same radius.  Results are
        returned in input order and are identical to what per-query
        :meth:`execute` calls would produce.

        Raises:
            InvalidQueryError: if any item is invalid; validation happens
                up front, before any query runs.
        """
        plan = plan_batch(
            queries,
            default_algorithm=algorithm,
            default_grid_size=grid_size or self.config.grid_size,
            default_score_mode=score_mode,
        )
        for item in plan:
            self.validate_combination(item.algorithm, item.score_mode)

        # One delta snapshot pinned for the whole batch: every query of
        # the batch sees the same dataset state even if writes land
        # concurrently (callers that pinned earlier pass their own).
        snapshot = (
            delta_snapshot
            if delta_snapshot is not None
            else self._delta.snapshot()
        )
        results: List[Optional[QueryResult]] = [None] * len(plan)
        for item in plan:
            results[item.position] = self._execute_planned(
                item, delta_snapshot=snapshot
            )
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------ #
    # internals

    def validate_combination(self, algorithm: str, score_mode: str) -> None:
        """Reject unsupported algorithm / score-mode combinations up front.

        Used internally before any query runs, and by the query service to
        validate each request at submission time so one bad request cannot
        fail the micro-batch it would have joined.

        Raises:
            InvalidQueryError: for an unknown algorithm or score mode, or an
                unsupported combination.
        """
        validate_algorithm_combination(algorithm, score_mode)

    def _execute_centralized(
        self,
        query: SpatialPreferenceQuery,
        score_mode: str,
        snapshot: Optional[DeltaSnapshot] = None,
    ) -> QueryResult:
        if snapshot is not None:
            data, features = materialize(
                self.data_objects, self.feature_objects, snapshot
            )
        else:
            data, features = self.data_objects, self.feature_objects
        oracle = CentralizedSPQ(data, features)
        if score_mode == "range":
            return oracle.evaluate(query)
        return oracle.evaluate_exhaustive(query, mode=score_mode)

    def _execute_planned(
        self,
        item: PlannedQuery,
        delta_snapshot: Optional[DeltaSnapshot] = None,
    ) -> QueryResult:
        snapshot = delta_snapshot
        if snapshot is not None and snapshot.is_empty:
            snapshot = None
        if item.algorithm == "centralized":
            return self._execute_centralized(
                item.query, item.score_mode, snapshot=snapshot
            )
        index, cache_hit = self._get_index(item.grid_size)
        if item.algorithm == AUTO_ALGORITHM:
            return self._execute_scan(item, index, cache_hit, self.planner.decide(), snapshot)
        # The job path streams its candidates in storage order.
        hits = self.planner.collect(index, item.query, item.grid_size)
        candidates = sorted(hits)
        extra_pruned = 0
        deleted_positions: Set[int] = set()
        if snapshot is not None:
            # Feature tombstones: drop the deleted candidates *before*
            # prepare, so the surviving records keep their relative
            # storage order -- the same stream a bulk swap of the
            # shrunken feature set would produce.  One out of reach was
            # never a candidate, and is not counted below.
            tombstoned = index.delta_view(snapshot).tombstoned
            deleted_positions = set(index.in_reach(tombstoned, item.query.radius))
            if deleted_positions:
                candidates = [
                    position
                    for position in candidates
                    if position not in deleted_positions
                ]
        prepared = index.prepare(item.query, candidates=candidates, hits=hits)
        job = self._make_job(item.algorithm, item.query, index.grid, item.score_mode)
        split = prepared.split
        tombstoned: List[DataObject] = []
        if snapshot is not None:
            # Delta appends ride the same split: a cell's base block is
            # injected ahead of every live value, so appended data lands
            # after the base data of its cell -- exactly the storage
            # position a bulk swap would give it -- and data/feature sort
            # keys never collide, so the order between the two groups is
            # immaterial.
            split, extra_pruned = with_delta_appends(
                split, snapshot, item.query, index.grid, index.scope
            )
            # Data tombstones: the base objects they name are withheld from
            # their cells' blocks -- before the reduce, like the features.
            base = self._oid_lookup()
            tombstoned = [
                base[oid] for oid in snapshot.deleted_data_oids if oid in base
            ]
        return self._run_job(
            job,
            index.grid,
            item.query,
            split,
            preloaded=index.data_shuffle(job, tombstoned),
            # A tombstoned feature is gone, not pruned: a bulk swap of the
            # shrunken feature set would never have counted it.
            pruned_by_index=(
                prepared.num_pruned - len(deleted_positions) + extra_pruned
            ),
            index_stats={
                "index_cache_hit": cache_hit,
                "radius_cache_hit": prepared.radius_cache_hit,
                "candidate_features": prepared.num_candidates,
                "index_build_seconds": index.stats.build_seconds,
            },
            delta_snapshot=snapshot,
        )

    def _make_job(
        self,
        algorithm: str,
        query: SpatialPreferenceQuery,
        grid: UniformGrid,
        score_mode: str,
    ) -> _SPQJobBase:
        job_class = _JOB_CLASSES[algorithm]
        if algorithm == "pspq":
            return job_class(query, grid, score_mode=score_mode)
        return job_class(query, grid)

    def _run_job(
        self,
        job: _SPQJobBase,
        grid: UniformGrid,
        query: SpatialPreferenceQuery,
        split: MapSplit,
        preloaded: PreloadedShuffle,
        pruned_by_index: int,
        index_stats: Dict[str, object],
        delta_snapshot: Optional[DeltaSnapshot] = None,
    ) -> QueryResult:
        runner = LocalJobRunner(num_reducers=grid.num_cells)
        started = time.perf_counter()
        job_result = runner.run(job, split, preloaded=preloaded)
        elapsed = time.perf_counter() - started
        if pruned_by_index:
            # Features the index pruned before the map phase ever saw them,
            # reported where a map phase over every record would count them.
            job_result.counters.increment(_SPQ_GROUP, _FEATURES_PRUNED, pruned_by_index)

        entries = self._merge(job_result, query, snapshot=delta_snapshot)

        breakdown = self._cost_model.estimate(job_result)

        stats: Dict[str, object] = {
            "algorithm": job.name,
            "grid_size": grid.cells_x,
            "num_cells": grid.num_cells,
            "wall_seconds": elapsed,
            "simulated_seconds": breakdown.total,
            "simulated_breakdown": breakdown.as_dict(),
            "counters": job_result.counters.as_dict(),
            "num_map_tasks": job_result.num_map_tasks,
            "num_reduce_tasks": job_result.num_reduce_tasks,
            "shuffled_records": job_result.total_shuffle_records(),
            "shuffled_bytes": job_result.total_shuffle_bytes(),
            "features_examined": job_result.counters.get("work", "features_examined"),
            "score_computations": job_result.counters.get("work", "score_computations"),
            "feature_duplicates": job_result.counters.get("spq", "feature_duplicates"),
            "features_pruned": job_result.counters.get("spq", "features_pruned"),
        }
        stats["index"] = index_stats
        return QueryResult(entries, stats=stats)

    def _execute_scan(
        self,
        item: PlannedQuery,
        index: DatasetIndex,
        cache_hit: bool,
        algorithm: str,
        snapshot: Optional[DeltaSnapshot],
    ) -> QueryResult:
        """``auto``: one score-ordered Lemma-3 scan across the whole grid
        (:meth:`DatasetIndex.scan`) instead of a per-cell job -- no map,
        shuffle, reduce or cost model.  Its reports pass the job path's
        checks and ranking (:meth:`_merge`); its stats report the work it
        did and no ``simulated_seconds``: no simulated job ran."""
        started = time.perf_counter()
        scan = index.scan(item.query, snapshot)
        scan.job_name = algorithm
        entries = self._merge(scan, item.query, snapshot=snapshot)
        work = {
            "features_examined": scan.features_examined,
            "score_computations": scan.rows_tested,
        }
        return QueryResult(entries, stats={
            "algorithm": algorithm,
            "grid_size": index.grid.cells_x,
            "num_cells": index.grid.num_cells,
            "wall_seconds": time.perf_counter() - started,
            "counters": {"work": dict(work)},
            **work,
            "index": {
                "index_cache_hit": cache_hit,
                "radius_cache_hit": scan.radius_cache_hit,
                "candidate_features": scan.num_candidates,
                "index_build_seconds": index.stats.build_seconds,
            },
            "planned_algorithm": algorithm,
        })

    def _oid_lookup(self) -> Dict[str, DataObject]:
        """Cached oid -> data object mapping (reset by :meth:`invalidate_indexes`).

        Guarded by the identity of the ``data_objects`` list (a strong
        reference is kept, so the check cannot be fooled by id reuse after
        garbage collection) so that code which *reassigns* the attribute
        (rather than calling :meth:`set_datasets`) still gets a fresh map;
        in-place mutation continues to require an explicit
        :meth:`invalidate_indexes`.
        """
        if self._oid_index is None or self._oid_index_source is not self.data_objects:
            self._oid_index = {obj.oid: obj for obj in self.data_objects}
            self._oid_index_source = self.data_objects
        return self._oid_index

    def _merge(
        self,
        job_result: Union[JobResult, ScanResult],
        query: SpatialPreferenceQuery,
        snapshot: Optional[DeltaSnapshot] = None,
    ) -> List[ScoredObject]:
        """Merge per-cell outputs ``(cell_id, object_id, score)`` into the global top-k.

        Every output is checked, as set operations over the distinct oids --
        a deleted or unknown oid raises however low it scored.  Objects are
        looked up for the k winners only: the outputs are ranked on
        ``(-score, oid)``, the key :func:`merge_top_k` ranks by, and it
        merges the winners' ``(obj, score)`` pairs.  The snapshot's append
        dict is built once per snapshot, not per query.
        """
        outputs = job_result.outputs
        base = self._oid_lookup()
        appended = snapshot.appended_data if snapshot is not None else {}
        # "Deleted" is a tombstoned base oid the delta has not re-appended
        # since: a delete + append of one oid is a replace.
        dead = snapshot.deleted_data_oids.difference(appended) if snapshot is not None else ()
        oids = {oid for _, oid, _ in outputs}
        if not oids.isdisjoint(dead):
            # Tombstoned oids were filtered out of the reduce input; one
            # reappearing means the filter was bypassed.
            cell_id, oid, _ = next(out for out in outputs if out[1] in dead)
            raise ResultIntegrityError(
                f"job {job_result.job_name!r} reported deleted data object "
                f"{oid!r} from cell {cell_id}; the delta tombstone filter "
                "was bypassed"
            )
        unknown = oids.difference(appended).difference(base)
        if unknown:
            cell_id, oid, _ = next(out for out in outputs if out[1] in unknown)
            raise ResultIntegrityError(
                f"job {job_result.job_name!r} reported unknown data object "
                f"{oid!r} from cell {cell_id}; the datasets may have been "
                "mutated without invalidate_indexes()"
            )
        # An oid reported twice keeps its best score: its first key.
        winners: Dict[str, float] = {}
        for key, oid in sorted((-score, oid) for _, oid, score in outputs):
            if len(winners) == query.k:
                break
            winners.setdefault(oid, -key)
        pairs = [(appended.get(oid) or base[oid], score) for oid, score in winners.items()]
        return merge_top_k([pairs], query.k)
