"""The index path's fused map kernel against the per-record ``map()`` oracle.

``_SPQJobBase.map_split`` goes from a columnar :class:`MapSplit` straight to
per-cell *runs* of row numbers into its own columns -- no entry is built per
emitted copy.  The generic record route (what ``execute()`` took for a named
algorithm until PR 23, and ``tests/raw_oracle.py`` still does) maps the same
objects one by one through ``job.map`` into ``(sort_key, sequence, key,
value)`` entries, and that is the oracle here -- this file never calls
``engine.execute``, so nothing in it compared the index path with itself:
expanded back into entries (``expand_runs``, a
test-side helper) the runs must equal the oracle's buckets sorted by
``(sort_key, sequence)`` -- same partitions in the same creation order, same
entries -- and agree counter for counter, values *and* key creation order,
the empty split included: for every job class, with and without a live
delta, at every split size, under both reduce loops, serially and from two
threads at once.  The record-at-a-time loop is itself held to a verbatim
copy of the loop it replaced (one ``increment`` per emission), so both
routes answer to the same reference.  The last class pins what the view is
*for*: a reducer materialises exactly the values it reads.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import _JOB_CLASSES, EngineConfig, SPQEngine
from repro.core.jobs import ESPQLenJob, PSPQJob
from repro.exceptions import JobExecutionError
from repro.execution import SerialBackend
from repro.execution.tasks import run_map_task, sort_bucket
from repro.index.dataset_index import DatasetIndex
from repro.index.delta import DeltaSnapshot, with_delta_appends
from repro.index.records import CellRun, MapSplit
from repro.mapreduce import counters as names
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import DEFAULT_SPLIT_SIZE, LocalJobRunner
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

GRID = 6
EXTENT = BoundingBox(0.0, 0.0, 60.0, 60.0)
#: The engine's own table, so the ``object_reducers`` fixture reaches it too.
JOB_CLASSES = _JOB_CLASSES
VOCABULARY = ("cafe", "bar", "park", "museum", "pier")
QUERY = SpatialPreferenceQuery.create(k=4, radius=7.0, keywords={"cafe", "park"})


class TwoThreads(SerialBackend):
    """The serial map loop entered from two threads at once over one job.

    Not a backend the package ships: it is how a query service reaches the
    kernel -- its dispatcher threads map concurrently over one split, whose
    score and size columns the index built and every task only reads.
    """

    def run_map_tasks(self, job, splits, num_reducers):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(
                lambda task: run_map_task(job, task[0], task[1], num_reducers),
                enumerate(splits),
            ))


BACKENDS = {"serial": SerialBackend, "thread": TwoThreads}


def build_base():
    rng = random.Random(2020)
    data = [
        DataObject(f"d{i:03d}", rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
        for i in range(150)
    ]
    features = [
        FeatureObject(
            f"f{i:03d}",
            rng.uniform(0.0, 60.0),
            rng.uniform(0.0, 60.0),
            # A tiny vocabulary: equal lengths and equal scores -- colliding
            # sort keys -- are the rule, so the sequence tie-break is used.
            frozenset(rng.sample(VOCABULARY, rng.randint(1, 3))),
        )
        for i in range(160)
    ]
    return data, features


def delta_batch(data, features):
    """Appends of both kinds plus tombstones of both kinds."""
    rng = random.Random(7)
    return dict(
        append_data=[
            DataObject(f"new-d{i}", rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
            for i in range(5)
        ],
        append_features=[
            FeatureObject("new-f0", 12.0, 12.0, frozenset({"cafe"})),
            FeatureObject("new-f1", 29.9, 30.1, frozenset({"park", "bar", "pier"})),
            FeatureObject("new-f2", 40.0, 5.0, frozenset({"museum"})),  # pruned
            FeatureObject("new-f3", 59.0, 59.0, frozenset({"cafe", "park"})),
        ],
        delete_data_oids=[obj.oid for obj in data[::13]],
        delete_feature_oids=[f.oid for f in features if "cafe" in f.keywords][::3],
    )


def engine_split(engine, algorithm):
    """The split, preloaded side and grid a real engine run is given."""
    seen = {}
    real_run = LocalJobRunner.run

    def spying_run(runner, job, records, preloaded=None):
        seen.update(split=records, preloaded=preloaded)
        return real_run(runner, job, records, preloaded=preloaded)

    LocalJobRunner.run = spying_run
    try:
        engine.execute_many([QUERY], algorithm=algorithm)
    finally:
        LocalJobRunner.run = real_run
    return seen["split"], seen["preloaded"], engine.get_index(GRID).grid


def raw_records(split):
    """The same logical input as plain objects, for ``job.map``."""
    return list(split.data) + list(split.features)


def chunks(records, size):
    return [records[start:start + size] for start in range(0, len(records), size)]


def ordered(counters):
    return [(group, list(named.items())) for group, named in counters.as_dict().items()]


def reference_map_task(job, records, num_reducers):
    """The record-at-a-time loop as it stood before this module existed:
    every emission dispatches ``partition`` / ``sort_key`` /
    ``estimated_record_size`` and increments three counters."""
    counters = Counters()
    buckets = {}
    sequence = 0
    num_records = 0
    for record in records:
        num_records += 1
        for key, value in job.map(record, counters):
            partition = job.partition(key, num_reducers)
            buckets.setdefault(partition, []).append(
                (job.sort_key(key), sequence, key, value)
            )
            sequence += 1
            counters.increment(names.GROUP_MAP, names.MAP_OUTPUT_RECORDS)
            counters.increment(names.GROUP_SHUFFLE, names.SHUFFLE_RECORDS)
            counters.increment(
                names.GROUP_SHUFFLE,
                names.SHUFFLE_BYTES,
                job.estimated_record_size(key, value),
            )
    counters.increment(names.GROUP_MAP, names.MAP_INPUT_RECORDS, num_records)
    return buckets, sequence, num_records, counters


def expand_runs(job, part, buckets):
    """A mapped split's runs as the entries the per-record loop would build.

    Sequence numbers follow the logical record order of ``part``: every data
    row, then every feature copy, feature-major, cells in Lemma-1 order.
    """
    num_data = len(part.data)
    sequence_of = {}
    sequence = num_data
    for row, cells in enumerate(part.cells, num_data):
        for cell in cells:
            sequence_of[row, cell] = sequence
            sequence += 1
    expanded = {}
    for partition, cells in buckets.items():
        entries = expanded[partition] = []
        for cell in sorted(cells):
            run = cells[cell]
            assert run.__class__ is CellRun
            for row, value in zip(run.rows, run.read()):
                assert row.__class__ is int
                if row < num_data:
                    key, sequence = job._data_key(cell), row
                else:
                    key = job._feature_key(cell, part.features[row - num_data])
                    sequence = sequence_of[row, cell]
                entries.append((job.sort_key(key), sequence, key, value))
    return expanded


def in_reduce_order(buckets):
    return {
        partition: sorted(entries, key=lambda entry: (entry[0], entry[1]))
        for partition, entries in buckets.items()
    }


def assert_same_task(
    got, want_buckets, want_emitted, want_records, want_counters, job=None, part=None
):
    """``job`` and ``part`` (the task's split) are given when ``got`` mapped a
    split: its buckets are runs, compared as the entries they stand for."""
    buckets = got.buckets if part is None else expand_runs(job, part, got.buckets)
    assert list(buckets) == list(want_buckets)  # bucket creation order too
    if part is None:
        assert buckets == want_buckets  # entries are born in emission order
    else:
        # A run is born sorted: nothing downstream sorts it again.
        assert buckets == in_reduce_order(want_buckets)
    assert got.num_emitted == want_emitted == sum(map(len, buckets.values()))
    assert got.num_input_records == want_records
    assert ordered(got.counters) == ordered(want_counters)


def report_fields(report):
    return report._asdict()


@pytest.fixture(scope="module")
def scenarios():
    """``(algorithm, with_delta) -> (split, preloaded, grid)``; the engines
    stay open for the module, since they own the preloaded data planes."""
    data, features = build_base()
    config = EngineConfig(grid_size=GRID, backend="serial")
    with SPQEngine(data, features, config=config, extent=EXTENT) as base, SPQEngine(
        data, features, config=config, extent=EXTENT
    ) as written:
        written.apply_updates(**delta_batch(data, features))
        yield {
            (algorithm, with_delta): engine_split(engine, algorithm)
            for algorithm in JOB_CLASSES
            for with_delta, engine in ((False, base), (True, written))
        }


@pytest.mark.parametrize("with_delta", (False, True), ids=("base", "delta"))
@pytest.mark.parametrize("algorithm", sorted(JOB_CLASSES))
class TestKernelEqualsPerRecordMap:
    def test_the_scenario_exercises_every_column(self, scenarios, algorithm, with_delta):
        split, _, _ = scenarios[algorithm, with_delta]
        assert isinstance(split, MapSplit)
        assert len(split.features) == len(split.cells) > 60
        assert any(len(cells) > 1 for cells in split.cells)  # Lemma-1 copies
        assert len(split.data) == len(split.data_cells) == (5 if with_delta else 0)
        appended = {f.oid for f in split.features if f.oid.startswith("new-")}
        assert appended == ({"new-f0", "new-f1", "new-f3"} if with_delta else set())

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("split_size", (1, 7, DEFAULT_SPLIT_SIZE))
    def test_map_tasks_and_whole_run(
        self, scenarios, algorithm, with_delta, split_size, backend
    ):
        split, preloaded, grid = scenarios[algorithm, with_delta]
        job_class = JOB_CLASSES[algorithm]
        records = raw_records(split)
        num_reducers = grid.num_cells
        pool = BACKENDS[backend]()
        got = pool.run_map_tasks(
            job_class(QUERY, grid), split.slices(split_size), num_reducers
        )
        want = pool.run_map_tasks(
            job_class(QUERY, grid), chunks(records, split_size), num_reducers
        )
        assert len(got) == len(want) == -(-len(records) // split_size)
        for mine, theirs, part in zip(got, want, split.slices(split_size)):
            assert mine.task_index == theirs.task_index
            assert_same_task(
                mine, theirs.buckets, theirs.num_emitted,
                theirs.num_input_records, theirs.counters,
                job=job_class(QUERY, grid), part=part,
            )
        runner = LocalJobRunner(num_reducers, split_size=split_size, backend=pool)
        fused = runner.run(job_class(QUERY, grid), split, preloaded=preloaded)
        # The split is columns, not a stream: a second run sees it all again.
        again = runner.run(job_class(QUERY, grid), split, preloaded=preloaded)
        plain = runner.run(job_class(QUERY, grid), records, preloaded=preloaded)
        assert fused.outputs == again.outputs == plain.outputs and fused.outputs
        assert ordered(fused.counters) == ordered(again.counters) == ordered(plain.counters)
        assert fused.num_map_tasks == plain.num_map_tasks
        assert [report_fields(r) for r in fused.reduce_reports] == [
            report_fields(r) for r in plain.reduce_reports
        ]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("split_size", (1, 7, DEFAULT_SPLIT_SIZE))
    def test_whole_run_under_the_object_reduce_loop(
        self, scenarios, algorithm, with_delta, split_size, backend, object_reducers
    ):
        # The per-object loops pull the same runs.
        self.test_map_tasks_and_whole_run(
            scenarios, algorithm, with_delta, split_size, backend
        )

    def test_record_loop_equals_the_loop_it_replaced(self, scenarios, algorithm, with_delta):
        split, _, grid = scenarios[algorithm, with_delta]
        job_class = JOB_CLASSES[algorithm]
        for size in (1, 7, DEFAULT_SPLIT_SIZE):
            # Features first in one chunk, data first in another: eSPQsco's
            # map.score_computations is created before/after output_records.
            for chunk in chunks(raw_records(split), size)[:40]:
                got = run_map_task(job_class(QUERY, grid), 3, chunk, grid.num_cells)
                assert got.task_index == 3
                assert_same_task(
                    got, *reference_map_task(job_class(QUERY, grid), chunk, grid.num_cells)
                )


@pytest.mark.parametrize("algorithm", sorted(JOB_CLASSES))
def test_empty_input_creates_only_the_input_counter(algorithm):
    grid = UniformGrid.square(EXTENT, GRID)
    for records in (MapSplit(), []):
        result = run_map_task(JOB_CLASSES[algorithm](QUERY, grid), 0, records, 36)
        assert result.buckets == {} and result.num_emitted == 0
        assert result.counters.as_dict() == {"map": {"input_records": 0}}
    # Pruned features are read but emit nothing: still no emission counters.
    pruned = [FeatureObject("x", 1.0, 1.0, frozenset({"museum"}))]
    result = run_map_task(JOB_CLASSES[algorithm](QUERY, grid), 0, pruned, 36)
    assert ordered(result.counters) == [
        ("spq", [("features_pruned", 1)]), ("map", [("input_records", 1)])
    ]


def test_out_of_range_partition_is_a_job_execution_error():
    class Misrouted(PSPQJob):
        def partition(self, key, num_reducers):
            return num_reducers

    grid = UniformGrid.square(EXTENT, GRID)
    feature = FeatureObject("f", 5.0, 5.0, frozenset({"cafe"}))
    appended = DeltaSnapshot(data=(DataObject("d", 5.0, 5.0),))
    for split in (
        DatasetIndex([], [feature], grid).prepare(QUERY).split,
        with_delta_appends(MapSplit(), appended, QUERY, grid)[0],
    ):
        with pytest.raises(JobExecutionError, match=r"partition 36 outside \[0, 36\)"):
            run_map_task(Misrouted(QUERY, grid), 0, split, 36)


def test_kernel_failures_are_wrapped_like_map_failures():
    grid = UniformGrid.square(EXTENT, GRID)
    # Not a feature: no .keywords / .oid.
    broken = MapSplit([object()], [(1,)], scores=[0.5], sizes=[24])
    with pytest.raises(JobExecutionError, match="map failed on split 5"):
        run_map_task(ESPQLenJob(QUERY, grid), 5, broken, 36)


class TestNoPerRecordDispatch:
    """Deterministic tripwire: the index path's counter writes per map task
    do not grow with the records mapped.  Fails at the parent commit, where
    every emitted copy cost three ``increment`` calls."""

    @pytest.mark.parametrize("algorithm", sorted(JOB_CLASSES))
    def test_increment_calls_per_task_are_constant(self, algorithm, monkeypatch):
        data, features = build_base()
        grid = UniformGrid.square(EXTENT, GRID)
        index = DatasetIndex(data, features, grid)
        split = index.prepare(QUERY).split
        appends = DeltaSnapshot(data=tuple(DataObject(f"a{i}", 3.0, 3.0) for i in range(9)))
        calls = []
        real_increment = Counters.increment

        def counting_increment(counters, group, name, amount=1):
            calls.append((group, name))
            real_increment(counters, group, name, amount)

        monkeypatch.setattr(Counters, "increment", counting_increment)
        per_task = {}
        for label, part in (
            ("few", split.slices(10)[0]),
            ("all", split),
            ("all+data", with_delta_appends(split, appends, QUERY, grid)[0]),
        ):
            del calls[:]
            result = run_map_task(JOB_CLASSES[algorithm](QUERY, grid), 0, part, 36)
            assert result.num_emitted >= len(part)
            per_task[label] = len(calls)
        assert len(split) > 60
        assert per_task["few"] == per_task["all"] <= 7
        assert per_task["all+data"] <= 9


@st.composite
def candidate_sets(draw):
    positions = draw(st.sets(st.integers(0, 159), max_size=40))
    appended = draw(st.integers(0, 4))
    return (
        sorted(positions),
        appended,
        draw(st.sampled_from(sorted(JOB_CLASSES))),
        draw(st.sampled_from((0.0, 2.5, 11.0))),
        draw(st.sampled_from((1, 3, 16, DEFAULT_SPLIT_SIZE))),
    )


@pytest.fixture(scope="module")
def property_index():
    data, features = build_base()
    return DatasetIndex(data, features, UniformGrid.square(EXTENT, GRID))


@settings(max_examples=60, deadline=None)
@given(case=candidate_sets())
def test_any_candidate_set_maps_like_its_records(property_index, case):
    positions, appended, algorithm, radius, split_size = case
    index = property_index
    query = SpatialPreferenceQuery.create(k=3, radius=radius, keywords={"cafe", "bar"})

    def make_job():
        # Candidates are handed in, so some share no keyword with the query:
        # the oracle keeps them too (pruning is the index's job on this path).
        return JOB_CLASSES[algorithm](query, index.grid, prune_irrelevant=False)

    delta = DeltaSnapshot(
        data=tuple(DataObject(f"a{i}", 7.0 * i + 1.0, 50.0) for i in range(appended))
    )
    split, _ = with_delta_appends(
        index.prepare(query, candidates=positions).split, delta, query, index.grid
    )
    assert len(split) == len(positions) + appended
    records = raw_records(split)
    sequence = 0
    for task, (part, chunk) in enumerate(
        zip(split.slices(split_size), chunks(records, split_size))
    ):
        got = run_map_task(make_job(), task, part, index.grid.num_cells)
        assert_same_task(
            got, *reference_map_task(make_job(), chunk, index.grid.num_cells),
            job=make_job(), part=part,
        )
        sequence += got.num_emitted
    assert len(split.slices(split_size)) == len(chunks(records, split_size))
    assert sequence >= len(records)


class TestSortBucket:
    def test_colliding_sort_keys_fall_back_to_the_sequence(self):
        rng = random.Random(5)
        unorderable = [FeatureObject(f"f{i}", 0.0, 0.0, frozenset({"a"})) for i in range(40)]
        bucket = [
            # Few distinct sort keys, equal keys, values that cannot be
            # compared: only (sort_key, sequence) may decide the order.
            ((rng.randint(1, 3), -rng.choice((0.5, 1.0))), sequence, (1, 1), value)
            for sequence, value in enumerate(unorderable)
        ]
        rng.shuffle(bucket)
        want = sorted(bucket, key=lambda entry: (entry[0], entry[1]))
        sort_bucket(bucket)
        assert bucket == want
        assert len({entry[0] for entry in bucket}) < len(bucket) / 4

    @pytest.mark.parametrize("algorithm", sorted(JOB_CLASSES))
    def test_runs_of_several_map_tasks_merge_in_sequence_order(self, algorithm):
        """The twin of the case above for the run path, where no bucket is
        ever sorted: the cell's order has to survive the sort-once kernel and
        the orchestrator's merge of the runs several map tasks fed it."""
        rng = random.Random(5)
        grid = UniformGrid.square(EXTENT, GRID)
        # One spot in cell 1, within the radius of its neighbours; one to
        # three keywords, always "cafe": few distinct lengths, few distinct
        # scores, and values -- features, or (feature, score) pairs with
        # equal scores -- that cannot be compared.
        features = [
            FeatureObject(
                f"f{i:02d}", 5.0, 5.0,
                frozenset({"cafe", *rng.sample(VOCABULARY[1:], rng.randint(0, 2))}),
            )
            for i in range(40)
        ]
        data = [DataObject("d0", 4.0, 4.0), DataObject("d1", 12.0, 4.0)]
        split = DatasetIndex(data, features, grid).prepare(QUERY).split
        split, _ = with_delta_appends(split, DeltaSnapshot(data=tuple(data)), QUERY, grid)
        assert list(split.data_cells) == [1, 2]
        job = JOB_CLASSES[algorithm](QUERY, grid)
        runner = LocalJobRunner(grid.num_cells, split_size=7)
        assert len(split.slices(7)) >= 3 and all(1 in cells for cells in split.cells)
        live, _, touched = runner._run_map_phase(job, split, Counters())
        entries, _, _, _ = reference_map_task(
            JOB_CLASSES[algorithm](QUERY, grid), raw_records(split), grid.num_cells
        )
        want = in_reduce_order(entries)
        assert touched == set(want)
        for partition, bucket in want.items():
            (cell, run), = live[partition].items()
            assert cell == partition + 1
            assert list(run.read()) == [value for _, _, _, value in bucket]
        assert len({entry[0] for entry in want[0]}) < len(want[0]) / 4


class CountingColumn(list):
    """A value column that counts the rows read out of it one by one."""

    reads = 0

    def __getitem__(self, row):
        self.reads += 1
        return list.__getitem__(self, row)


@pytest.mark.parametrize("algorithm", sorted(JOB_CLASSES))
class TestTheShuffleIsAView:
    def test_reducers_materialise_only_the_values_they_read(self, algorithm, monkeypatch):
        job_class = JOB_CLASSES[algorithm]
        real_columns = job_class._feature_columns
        columns = []

        def counting_columns(job, features):
            sort_keys, values = real_columns(job, features)
            columns.append(CountingColumn(values))
            return sort_keys, columns[-1]

        monkeypatch.setattr(job_class, "_feature_columns", counting_columns)
        data, features = build_base()
        config = EngineConfig(grid_size=GRID, backend="serial")
        with SPQEngine(data, features, config=config, extent=EXTENT) as engine:
            result, = engine.execute_many([QUERY], algorithm=algorithm)
        counters = result.stats["counters"]
        (column,) = columns
        live = counters["spq"]["features_kept"] + counters["spq"]["feature_duplicates"]
        # Every reduced cell pulls its whole preloaded block, as one value.
        preloaded = counters["reduce"]["input_records"] - live
        assert column.reads == counters["reduce"]["consumed_records"] - preloaded
        assert column.reads == counters["work"]["features_examined"]
        if algorithm != "pspq":
            assert counters["spq"]["early_terminations"] and column.reads < live

    def test_the_kernel_builds_rows_not_entries(self, algorithm):
        data, features = build_base()
        grid = UniformGrid.square(EXTENT, GRID)
        split = DatasetIndex(data, features, grid).prepare(QUERY).split
        buckets, emitted, _ = JOB_CLASSES[algorithm](QUERY, grid).map_split(
            split, grid.num_cells, Counters()
        )
        runs = [run for cells in buckets.values() for run in cells.values()]
        assert emitted == sum(len(run.rows) for run in runs) > 2 * len(split)
        for run in runs:
            assert run.__class__ is CellRun and list(run.rows) == [int(r) for r in run.rows]
            # One value column and one sort column per task, shared by all.
            assert run.values is runs[0].values and run.sort_keys is runs[0].sort_keys
        assert len(runs[0].values) == len(runs[0].sort_keys) == len(split)
