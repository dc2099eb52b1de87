"""Tripwire: the per-object oracle reads no column, and the fixture selects it.

``tests/object_oracle.py`` keeps the paper's per-object reduce loops as the
reference the columnar reducers are held to (``tests/test_core_jobs.py``,
``TestDataplaneParity`` and the ``object`` case of every identity net).  Two
things make that reference worth having, and both are pinned here:

* it is independent of the columns: with ``DataBlock.candidate_rows``,
  ``DataBlock.rows_within`` and ``DataBlock.oid_rows`` patched to raise, the
  oracle jobs answer exactly as the production jobs did, while the
  production jobs cannot answer at all -- ``rows_within`` is forbidden on its
  own because the test's first ``execute`` warms its memo, and a warm memo
  answers without reaching ``candidate_rows``;
* under the ``object_reducers`` fixture, ``engine.execute``,
  ``execute_many`` and ``raw_execute`` run the oracle's ``reduce`` and never
  the production one -- no ``object`` case compares the columnar loop with
  itself.
"""

from __future__ import annotations

import random

import pytest

from object_oracle import select_reduce_loop, use_object_reducers
from raw_oracle import raw_execute
from repro.core.engine import _JOB_CLASSES, EngineConfig, SPQEngine
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob
from repro.exceptions import JobExecutionError
from repro.index.columns import DataBlock
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery

PRODUCTION = {"pspq": PSPQJob, "espq-len": ESPQLenJob, "espq-sco": ESPQScoJob}
VOCABULARY = ("cafe", "park", "bar", "pier")
QUERY = SpatialPreferenceQuery.create(k=4, radius=5.0, keywords={"cafe", "park"})


@pytest.fixture()
def engine():
    rng = random.Random(2929)
    data = [
        DataObject(f"d{i:03d}", rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0))
        for i in range(120)
    ]
    features = [
        FeatureObject(
            f"f{i:03d}",
            rng.uniform(0.0, 40.0),
            rng.uniform(0.0, 40.0),
            frozenset(rng.sample(VOCABULARY, rng.randint(1, 2))),
        )
        for i in range(60)
    ]
    with SPQEngine(data, features, EngineConfig(grid_size=4)) as engine:
        yield engine


def answer(result):
    return result.object_ids(), result.scores()


@pytest.mark.parametrize("algorithm", sorted(PRODUCTION))
def test_the_oracle_answers_where_the_product_cannot(engine, algorithm, monkeypatch):
    want = engine.execute(QUERY, algorithm=algorithm)
    raw = raw_execute(engine, QUERY, algorithm=algorithm)
    assert want.entries

    def forbidden(*args):
        raise AssertionError("a reducer read a column of the block")

    monkeypatch.setattr(DataBlock, "candidate_rows", forbidden)
    monkeypatch.setattr(DataBlock, "rows_within", forbidden)
    monkeypatch.setattr(DataBlock, "oid_rows", property(forbidden))
    with pytest.raises(JobExecutionError, match="read a column"):
        engine.execute(QUERY, algorithm=algorithm)
    with pytest.raises(JobExecutionError, match="read a column"):
        raw_execute(engine, QUERY, algorithm=algorithm)

    use_object_reducers(monkeypatch)
    got = engine.execute(QUERY, algorithm=algorithm)
    assert answer(got) == answer(want)
    assert got.stats["counters"] == want.stats["counters"]
    [batched] = engine.execute_many([QUERY], algorithm=algorithm)
    assert answer(batched) == answer(want)
    oracle_raw = raw_execute(engine, QUERY, algorithm=algorithm)
    assert answer(oracle_raw) == answer(raw)
    assert oracle_raw.stats["counters"] == raw.stats["counters"]


@pytest.mark.parametrize("algorithm", sorted(PRODUCTION))
def test_every_route_reduces_with_the_object_loop(
    engine, algorithm, object_reducers, monkeypatch
):
    oracle = object_reducers[algorithm]
    real = oracle.reduce
    ran = []

    def spying_reduce(job, group, values, counters):
        ran.append(type(job))
        return real(job, group, values, counters)

    def production_reduce(job, group, values, counters):
        raise AssertionError("the production reduce ran")

    monkeypatch.setattr(oracle, "reduce", spying_reduce)
    monkeypatch.setattr(PRODUCTION[algorithm], "reduce", production_reduce)
    routes = {
        "execute": lambda: engine.execute(QUERY, algorithm=algorithm),
        "execute_many": lambda: engine.execute_many([QUERY], algorithm=algorithm)[0],
        "raw_execute": lambda: raw_execute(engine, QUERY, algorithm=algorithm),
    }
    for route, run in routes.items():
        del ran[:]
        assert run().entries, route
        assert ran and set(ran) == {oracle}, route


def test_an_unknown_loop_name_raises(monkeypatch):
    # "objects" is the typo that once made CI's oracle sweep compare the
    # columnar loop with itself.
    with pytest.raises(ValueError, match="columnar.*object"):
        select_reduce_loop(monkeypatch, "objects")
    select_reduce_loop(monkeypatch, "columnar")
    assert _JOB_CLASSES == PRODUCTION
