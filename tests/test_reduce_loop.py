"""The one-loop reduce phase against the per-task route it replaced.

``SerialBackend.run_reduce_tasks`` writes the run's counters directly and
counts consumption in closed form; ``tests/reduce_oracle.py`` keeps the
per-task route (a ``Counters`` and a report per task, the tracking iterator,
the merge).  Whole job runs through both must agree on outputs in order,
counters in value and key-creation order, each task's ``input_records`` and
work units, and ``CostModel.estimate`` bit for bit -- for every job class,
with the production reducers and the per-object ones of
``tests/object_oracle.py``, over runs (a mapped split) and entry buckets
(the generic record route), with and without preloaded blocks, tombstoned
blocks, and fewer reducers than cells.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reduce_oracle import OracleBackend
from repro.core import engine as engine_module
from repro.execution import SerialBackend
from repro.index.dataset_index import DatasetIndex
from repro.index.delta import DeltaSnapshot, with_delta_appends
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.runtime import LocalJobRunner
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid

EXTENT = BoundingBox(0.0, 0.0, 20.0, 20.0)
VOCABULARY = ("cafe", "bar", "park", "pier")
#: How the run is fed: a mapped split or raw records, with the index's
#: blocks preloaded or with the data mapped too (then any reducer count).
ROUTES = ("runs+blocks", "entries+blocks", "runs", "entries")

#: Coordinates on a half-unit lattice: equal distances and shared cells.
coordinate = st.integers(0, 40).map(lambda step: step / 2.0)
keywords = st.sets(st.sampled_from(VOCABULARY), min_size=1).map(frozenset)


@st.composite
def scenarios(draw):
    data = [
        # Oids drawn from a small pool, so one oid may sit on several rows.
        DataObject(f"d{draw(st.integers(0, 12))}", draw(coordinate), draw(coordinate))
        for _ in range(draw(st.integers(1, 24)))
    ]
    features = [
        FeatureObject(f"f{i}", draw(coordinate), draw(coordinate), draw(keywords))
        for i in range(draw(st.integers(0, 24)))
    ]
    query = SpatialPreferenceQuery.create(
        k=draw(st.integers(1, 4)),
        radius=draw(st.sampled_from((0.5, 1.5, 3.0, 6.0))),
        keywords=draw(keywords),
    )
    grid = UniformGrid.square(EXTENT, draw(st.integers(1, 4)))
    route = draw(st.sampled_from(ROUTES))
    reducers = grid.num_cells
    if "blocks" not in route:
        reducers = draw(st.integers(1, grid.num_cells))
    tombstoned = draw(st.lists(st.sampled_from(data), unique_by=id))
    appended = [
        DataObject(f"a{draw(st.integers(0, 3))}", draw(coordinate), draw(coordinate))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return dict(
        data=data,
        appended=appended,
        features=features,
        query=query,
        grid=grid,
        route=route,
        reducers=reducers,
        tombstoned=tombstoned,
        algorithm=draw(st.sampled_from(sorted(engine_module._JOB_CLASSES))),
        split_size=draw(st.sampled_from((3, 10_000))),
    )


def ordered(counters):
    return [(group, list(named.items())) for group, named in counters.as_dict().items()]


def run_both(scenario):
    """The scenario's job run through the loop and through the oracle."""
    job_class = engine_module._JOB_CLASSES[scenario["algorithm"]]
    query, grid, route = scenario["query"], scenario["grid"], scenario["route"]
    data, appended, features = scenario["data"], scenario["appended"], scenario["features"]
    index = DatasetIndex(data, features, grid)
    # Data mapped live rides in the split as delta appends: all of it when
    # no block is preloaded.
    live = appended if "blocks" in route else data + appended
    split, _ = with_delta_appends(
        index.prepare(query).split, DeltaSnapshot(data=tuple(live)), query, grid
    )
    runs = []
    for backend in (SerialBackend(), OracleBackend()):
        job = job_class(query, grid)
        preloaded = None
        if "blocks" in route:
            preloaded = index.data_shuffle(job, scenario["tombstoned"])
        records = split if route.startswith("runs") else live + features
        runner = LocalJobRunner(
            scenario["reducers"], split_size=scenario["split_size"], backend=backend
        )
        runs.append((runner.run(job, records, preloaded=preloaded), backend))
    index.release()
    return runs


def assert_same_runs(scenario):
    (loop, _), (oracle, backend) = run_both(scenario)
    assert loop.outputs == oracle.outputs
    assert ordered(loop.counters) == ordered(oracle.counters)
    assert loop.reduce_reports == oracle.reduce_reports
    assert [tuple(report) for report in loop.reduce_reports] == [
        (report.task_index, report.input_records, report.work_units())
        for report in backend.reports
    ]
    model = CostModel()
    assert model.estimate(loop) == model.estimate(oracle)


class TestTheLoopEqualsThePerTaskRoute:
    @settings(max_examples=200, deadline=None)
    @given(scenario=scenarios())
    def test_with_the_production_reducers(self, scenario):
        assert_same_runs(scenario)

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scenario=scenarios())
    def test_with_the_per_object_reducers(self, object_reducers, scenario):
        assert engine_module._JOB_CLASSES == object_reducers
        assert_same_runs(scenario)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_reaches_the_reducers(route):
    """Each route the hypothesis tests draw reduces something, tombstoned
    blocks and a cell of several groups included."""
    data = [DataObject(f"d{i}", 1.0 + 2.0 * i, 1.0 + 2.0 * i) for i in range(8)]
    features = [
        FeatureObject(f"f{i}", 2.0 * i, 2.0 * i, frozenset({"cafe"})) for i in range(8)
    ]
    scenario = dict(
        data=data,
        appended=[DataObject("a0", 5.0, 5.0)],
        features=features,
        query=SpatialPreferenceQuery.create(k=2, radius=3.0, keywords={"cafe"}),
        grid=UniformGrid.square(EXTENT, 4),
        route=route,
        reducers=16 if "blocks" in route else 3,
        tombstoned=data[:2],
        algorithm="pspq",
        split_size=3,
    )
    (loop, _), (oracle, _) = run_both(scenario)
    assert loop.outputs and loop.outputs == oracle.outputs
    if "blocks" not in route:
        # Sixteen cells on three reducers: tasks of several groups.
        assert loop.counters.get("reduce", "input_groups") > len(loop.reduce_reports)
    assert_same_runs(scenario)
