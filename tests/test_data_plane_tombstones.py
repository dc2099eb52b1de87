"""One shape for a cell's data on its way to a reducer -- tombstones included.

The index hands both reduce loops and all three job classes the same
per-partition :class:`DataBlock`; a data tombstone is a filtered view of
that block, applied where the block is handed out.  Three nets:

* a differential sweep over both reduce loops x all three algorithms: an
  engine carrying live data tombstones answers -- entries *and* counters --
  like a fresh engine bulk-swapped to the same state;
* the closed-form preloaded counters equal what actually mapping the records
  counts, key for key, n = 0 and degenerate extents included;
* structurally, a tombstoned read never maps a base data record again, its
  reducers are handed blocks, and nothing dataset-sized is cached per
  tombstone set.
"""

from __future__ import annotations

import random

import pytest

from invariants import dataset_memfds
from object_oracle import select_reduce_loop
from repro.core.centralized import dataset_extent
from repro.core.engine import EngineConfig, SPQEngine
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob, _SPQJobBase
from repro.execution.tasks import block_without, run_map_task, run_reduce_task
from repro.index.columns import DataBlock
from repro.index.dataset_index import DatasetIndex
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

GRID = 5
CELL = 20.0
EXTENT = BoundingBox(0.0, 0.0, GRID * CELL, GRID * CELL)
ALGORITHMS = ("pspq", "espq-len", "espq-sco")
JOB_CLASSES = (PSPQJob, ESPQLenJob, ESPQScoJob)
VOCABULARY = ("cafe", "bar", "park", "museum")

#: (column, row) of the cells the scenario edits; the far corner (4, 4) is
#: kept out of every feature's reach.
SOME_ROWS, ALL_ROWS, UNREACHED = (1, 1), (2, 3), (4, 4)


def in_cell(rng, cell):
    column, row = cell
    return (
        rng.uniform(column * CELL + 1.0, (column + 1) * CELL - 1.0),
        rng.uniform(row * CELL + 1.0, (row + 1) * CELL - 1.0),
    )


def oids_in(data, cell):
    column, row = cell
    return [
        obj.oid
        for obj in data
        if int(obj.x // CELL) == column and int(obj.y // CELL) == row
    ]


def build_scenario():
    """Base datasets plus one write batch of tombstones and appends."""
    rng = random.Random(1907)
    data = []
    for column in range(GRID):
        for row in range(GRID):
            for _ in range(8):
                x, y = in_cell(rng, (column, row))
                data.append(DataObject(f"d{len(data):03d}", x, y))
    rng.shuffle(data)  # storage order is not cell order
    features = []
    while len(features) < 120:
        x, y = rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        if x > 70.0 and y > 70.0:
            continue  # nothing within reach of the far corner cell
        # A tiny vocabulary makes equal scores -- and so storage-order
        # tie-breaks -- the rule rather than the exception.
        words = frozenset(rng.sample(VOCABULARY, rng.randint(1, 3)))
        features.append(FeatureObject(f"f{len(features):03d}", x, y, words))
    some = oids_in(data, SOME_ROWS)
    deletes = [some[0], some[3], some[7]] + oids_in(data, ALL_ROWS) + oids_in(data, UNREACHED)[:1]
    appends = [
        DataObject("new-0", *in_cell(rng, SOME_ROWS)),
        DataObject("new-1", *in_cell(rng, ALL_ROWS)),
        DataObject("new-2", *in_cell(rng, SOME_ROWS)),
    ]
    return data, features, deletes, appends


QUERIES = [
    SpatialPreferenceQuery.create(k=5, radius=6.0, keywords={"cafe"}),
    SpatialPreferenceQuery.create(k=3, radius=9.0, keywords={"bar", "park"}),
    SpatialPreferenceQuery.create(k=8, radius=4.0, keywords={"museum", "cafe", "bar"}),
]


def fingerprint(result):
    return [(entry.obj.oid, entry.score) for entry in result.entries]


class TestTombstonedReadsEveryWayDataCanTravel:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("dataplane", ("columnar", "object"))
    def test_delta_engine_equals_bulk_swapped_engine(
        self, dataplane, algorithm, monkeypatch
    ):
        select_reduce_loop(monkeypatch, dataplane)
        data, features, deletes, appends = build_scenario()
        config = EngineConfig(grid_size=GRID)
        with SPQEngine(data, features, config=config, extent=EXTENT) as engine:
            engine.apply_updates(append_data=appends, delete_data_oids=deletes)
            assert engine.delta.snapshot().deleted_data_oids == frozenset(deletes)
            final_data, final_features = engine.materialize_datasets()
            got = engine.execute_many(QUERIES, algorithm=algorithm)
        with SPQEngine(
            final_data, final_features, config=config, extent=EXTENT
        ) as oracle:
            want = oracle.execute_many(QUERIES, algorithm=algorithm)
        assert [fingerprint(r) for r in got] == [fingerprint(r) for r in want]
        assert any(fingerprint(r) for r in got)
        for mine, theirs in zip(got, want):
            assert mine.stats["counters"] == theirs.stats["counters"]
        assert dataset_memfds() == []


class TestBlockWithout:
    def test_nothing_to_drop_hands_out_the_entry_itself(self):
        entry = (4, DataBlock.from_objects(4, [DataObject("a", 1.0, 2.0)]))
        assert block_without(entry, None) is entry
        assert block_without(entry, frozenset()) is entry
        assert block_without(None, {"a"}) is None

    def test_rows_dropped_in_storage_order_and_source_untouched(self):
        objs = [DataObject(f"o{i}", float(10 - i), float(i)) for i in range(6)]
        block = DataBlock.from_objects(7, objs)
        block.candidate_rows(0.0, 100.0)  # warm the source's lazy caches
        group, view = block_without((7, block), {"o1", "o4", "not-here"})
        assert group == 7 == view.group
        assert view.objs == [objs[0], objs[2], objs[3], objs[5]]
        assert view.xs == [10.0, 8.0, 7.0, 5.0] and view.ys == [0.0, 2.0, 3.0, 5.0]
        assert view.oids == ["o0", "o2", "o3", "o5"]
        # The view sorts its own rows; the cached block is never edited.
        assert [view.xs[row] for row in view.candidate_rows(0.0, 7.5)] == [5.0, 7.0]
        assert block.objs == objs and len(block) == 6

    def test_no_survivor_means_no_data(self):
        block = DataBlock.from_objects(2, [DataObject("a", 0.0, 0.0)])
        assert block_without((2, block), {"a"}) is None


def mapped_counters(job, index, survivors):
    """Counters obtained by actually mapping the surviving data records."""
    records = [obj for obj in index._data_objects if obj.oid in survivors]
    return run_map_task(job, 0, records, index.grid.num_cells)


def ordered(counters):
    """Counter tree with group and name order made comparable."""
    return [(group, list(names.items())) for group, names in counters.as_dict().items()]


class TestClosedFormCounters:
    #: The degenerate shapes are those of tests/test_degenerate_extents.py.
    SHAPES = {
        "scenario": lambda: build_scenario()[:2],
        "vertical-line": lambda: (
            [DataObject(f"p{i}", 3.0, float(i)) for i in range(6)],
            [FeatureObject(f"f{i}", 3.0, i + 0.5, frozenset({"cafe"})) for i in range(6)],
        ),
        "single-point": lambda: (
            [DataObject(f"p{i}", 1.0, 2.0) for i in range(4)],
            [FeatureObject("f0", 1.0, 2.0, frozenset({"cafe"}))],
        ),
        "one-object": lambda: (
            [DataObject("only", 1.0, 1.0)],
            [FeatureObject("f", 2.0, 2.0, frozenset({"cafe"}))],
        ),
        "no-data": lambda: ([], [FeatureObject("f", 2.0, 2.0, frozenset({"cafe"}))]),
    }

    @pytest.mark.parametrize("job_class", JOB_CLASSES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_plane_counters_equal_mapping_the_records(self, shape, job_class):
        data, features = self.SHAPES[shape]()
        grid = UniformGrid.square(dataset_extent(data, features), 4)
        index = DatasetIndex(data, features, grid)
        job = job_class(QUERIES[0], grid)
        plane = index.data_shuffle(job)
        mapped = mapped_counters(job, index, {obj.oid for obj in data})
        assert ordered(plane.counters) == ordered(mapped.counters)
        assert plane.num_input_records == mapped.num_input_records == len(data)
        assert plane.num_partitions == grid.num_cells
        if not data:
            assert plane.counters.as_dict() == {"map": {"input_records": 0}}

    @pytest.mark.parametrize("job_class", JOB_CLASSES)
    @pytest.mark.parametrize("drop", ("some", "all"))
    def test_tombstoned_view_counts_the_survivors(self, drop, job_class):
        data, features, deletes, _ = build_scenario()
        if drop == "all":
            deletes = [obj.oid for obj in data]
        grid = UniformGrid.square(EXTENT, GRID)
        index = DatasetIndex(data, features, grid)
        job = job_class(QUERIES[0], grid)
        gone = set(deletes)
        view = index.data_shuffle(job, [obj for obj in data if obj.oid in gone])
        mapped = mapped_counters(job, index, {obj.oid for obj in data} - gone)
        assert ordered(view.counters) == ordered(mapped.counters)
        assert view.num_input_records == mapped.num_input_records == len(data) - len(gone)
        held = [
            len(entry[1])
            for entry in map(view.reduce_block, range(grid.num_cells))
            if entry is not None
        ]
        assert sum(held) == view.num_input_records


class TestTheFallbackIsGone:
    """Fails at the parent commit: tombstones left the block path there."""

    def test_tombstoned_reads_stay_on_the_block_path(self, monkeypatch):
        import repro.execution.serial as execution_serial

        data, features, deletes, appends = build_scenario()
        base_oids = {obj.oid for obj in data}
        mapped_splits, mapped_records = [], []
        real_map, real_map_split = _SPQJobBase.map, _SPQJobBase.map_split

        def spying_map(job, record, counters):
            mapped_records.append(record)
            return real_map(job, record, counters)

        def spying_map_split(job, split, num_reducers, counters):
            mapped_splits.append(split)
            return real_map_split(job, split, num_reducers, counters)

        monkeypatch.setattr(_SPQJobBase, "map", spying_map)
        monkeypatch.setattr(_SPQJobBase, "map_split", spying_map_split)
        reduced = {}

        def spying_reduce(job, task_index, bucket, preloaded_block=None):
            reduced[task_index] = preloaded_block
            return run_reduce_task(job, task_index, bucket, preloaded_block)

        monkeypatch.setattr(execution_serial, "run_reduce_task", spying_reduce)

        some, every = oids_in(data, SOME_ROWS), oids_in(data, ALL_ROWS)
        tombstone_sets = ([some[0]], [some[3], some[7]], every)
        config = EngineConfig(grid_size=GRID)
        with SPQEngine(data, features, config=config, extent=EXTENT) as engine:
            index = engine.get_index(GRID)
            engine.execute_many(QUERIES[:1], algorithm="pspq")  # warm, no delta
            attributes = set(vars(index))
            engine.apply_updates(append_data=appends)
            cells = index.grid
            partition_of = lambda cell: cells.locate(*in_cell(random.Random(0), cell)) - 1
            gone = set()
            for algorithm, tombstones in zip(ALGORITHMS, tombstone_sets):
                engine.apply_updates(delete_data_oids=tombstones)
                gone.update(tombstones)
                del mapped_splits[:]
                reduced.clear()
                engine.execute_many(QUERIES, algorithm=algorithm)
                # The map phase saw candidate features and delta appends
                # only, all of them through the split: no record was mapped
                # one by one, and no base data object was mapped at all.
                assert mapped_splits and not mapped_records
                for split in mapped_splits:
                    assert split.features and split.data
                    assert all(isinstance(f, FeatureObject) for f in split.features)
                    assert not {obj.oid for obj in split.data} & base_oids
                # The tombstoned cell reached its reducer as a filtered block.
                group, block = reduced[partition_of(SOME_ROWS)]
                assert block.__class__ is DataBlock
                cached = index.partition_block(partition_of(SOME_ROWS))[1]
                assert block is not cached
                assert block.objs == [obj for obj in cached.objs if obj.oid not in gone]
                # ... and an untouched cell as the index's cached block itself.
                untouched = partition_of((0, 2))
                if untouched in reduced:
                    assert reduced[untouched] is index.partition_block(untouched)
            # The cell that lost every base row holds no block any more.
            assert reduced[partition_of(ALL_ROWS)] is None
            # Nothing was cached per tombstone set: same attributes as before
            # the first delete, one plane, no frozenset-keyed container.
            assert set(vars(index)) == attributes
            for name, value in vars(index).items():
                if isinstance(value, dict):
                    assert not any(
                        isinstance(key, (frozenset, tuple)) for key in value
                    ), name
            job = PSPQJob(QUERIES[0], index.grid)
            plane = index.data_shuffle(job)
            view = index.data_shuffle(job, [o for o in data if o.oid in gone])
            assert view is not plane and index.data_shuffle(job) is plane
            assert view.block == plane.block
            assert sum(map(len, view.excluded.values())) == len(gone)
