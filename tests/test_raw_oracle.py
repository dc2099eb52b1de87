"""The raw-stream oracle is independent of the index, and the one execution
path agrees with it.

``SPQEngine.execute`` and ``execute_many`` are the same code path since PR 23
(every distributed query runs through the ``DatasetIndex``), so comparing
one with the other proves nothing about the index.  ``tests/raw_oracle.py``
is the independent side; this file pins that it *is* independent and states
the parity contract between the two:

* ``execute(q, alg).stats`` equals ``execute_many([q], alg)[0].stats`` key
  for key **and in key-creation order** (all but ``wall_seconds``);
* against the raw stream, the answer is bit-for-bit equal and every counter
  is equal except those that say how much input was read
  (``raw_oracle.assert_same_work``).
"""

from __future__ import annotations

import random

import pytest

from object_oracle import select_reduce_loop
from raw_oracle import assert_same_work, raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.index.dataset_index import DatasetIndex
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery

ALGORITHMS = ("pspq", "espq-len", "espq-sco")
GRID = 6
VOCABULARY = ("cafe", "park", "bar", "pier", "museum")
QUERY = SpatialPreferenceQuery.create(k=4, radius=7.0, keywords={"cafe", "park"})


def build_base():
    rng = random.Random(2323)
    data = [
        DataObject(f"d{i:03d}", rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
        for i in range(140)
    ]
    features = [
        FeatureObject(
            f"f{i:03d}",
            # Features avoid the right-hand third of the space, so some cells
            # hold data only: the index path skips their reduce tasks.
            rng.uniform(0.0, 40.0),
            rng.uniform(0.0, 60.0),
            frozenset(rng.sample(VOCABULARY, rng.randint(1, 3))),
        )
        for i in range(150)
    ]
    return data, features


def apply_delta(engine, delta):
    data, features = engine.data_objects, engine.feature_objects
    if delta == "appends":
        rng = random.Random(5)
        engine.apply_updates(
            append_data=[
                DataObject(f"new-d{i}", rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0))
                for i in range(6)
            ],
            append_features=[
                FeatureObject("new-f0", 12.0, 12.0, frozenset({"cafe"})),
                FeatureObject("new-f1", 29.9, 30.1, frozenset({"park", "bar"})),
                FeatureObject("new-f2", 35.0, 5.0, frozenset({"museum"})),  # pruned
            ],
        )
    elif delta == "tombstones":
        engine.apply_updates(
            delete_data_oids=[obj.oid for obj in data[::11]],
            delete_feature_oids=[
                f.oid for f in features if "cafe" in f.keywords
            ][::3],
        )


def ordered(tree):
    """A stats tree as nested ``(key, value)`` lists: equal only in order."""
    if isinstance(tree, dict):
        return [(key, ordered(value)) for key, value in tree.items()]
    return tree


def without_wall_clock(stats):
    return {key: value for key, value in stats.items() if key != "wall_seconds"}


@pytest.fixture()
def engine():
    data, features = build_base()
    with SPQEngine(data, features, EngineConfig(grid_size=GRID)) as engine:
        yield engine


class TestTheOracleNeverTouchesTheIndex:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_raw_execute_runs_with_the_index_disabled(
        self, engine, algorithm, monkeypatch
    ):
        apply_delta(engine, "appends")
        apply_delta(engine, "tombstones")
        want = engine.execute(QUERY, algorithm=algorithm)

        def forbidden(*args, **kwargs):
            raise AssertionError("the raw oracle touched the index")

        monkeypatch.setattr(DatasetIndex, "__init__", forbidden)
        monkeypatch.setattr(DatasetIndex, "prepare", forbidden)
        monkeypatch.setattr(DatasetIndex, "data_shuffle", forbidden)
        monkeypatch.setattr(SPQEngine, "_get_index", forbidden)
        got = raw_execute(engine, QUERY, algorithm=algorithm)
        assert got.object_ids() == want.object_ids()
        assert got.scores() == want.scores()
        assert "index" not in got.stats
        # ... and the patch bites: the engine itself cannot answer any more.
        with pytest.raises(AssertionError, match="touched the index"):
            engine.execute(QUERY, algorithm=algorithm)

    def test_engine_has_no_second_route(self):
        """The tentpole's shape: no raw branch left to select."""
        import inspect

        assert not hasattr(SPQEngine, "_input_records")
        source = inspect.getsource(SPQEngine.execute)
        assert "LocalJobRunner" not in source and "_run_job" not in source


@pytest.mark.parametrize("dataplane", ("columnar", "object"))
@pytest.mark.parametrize("delta", ("no-delta", "appends", "tombstones"))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestOnePathParity:
    def test_execute_equals_execute_many_equals_raw(
        self, engine, algorithm, delta, dataplane, monkeypatch
    ):
        select_reduce_loop(monkeypatch, dataplane)
        apply_delta(engine, delta)
        # Warm the index and the radius cache so both calls below report the
        # same cache flags.
        engine.execute(QUERY, algorithm=algorithm)

        single = engine.execute(QUERY, algorithm=algorithm)
        [batched] = engine.execute_many([QUERY], algorithm=algorithm)
        assert single.object_ids() == batched.object_ids()
        assert single.scores() == batched.scores()
        assert ordered(without_wall_clock(single.stats)) == ordered(
            without_wall_clock(batched.stats)
        )
        assert list(single.stats) == list(batched.stats)

        raw = raw_execute(engine, QUERY, algorithm=algorithm)
        assert single.object_ids() == raw.object_ids()
        assert single.scores() == raw.scores()
        assert_same_work(single.stats, raw.stats)
        counters = single.stats["counters"]
        assert counters["reduce"]["tasks_skipped"] > 0, "vacuous: nothing skipped"
        # The index path reads the data plus the candidates, not every record.
        live_data = counters["spq"]["data_objects"]
        assert counters["map"]["input_records"] == (
            live_data + single.stats["index"]["candidate_features"]
            + self._appended_candidates(engine)
        )
        assert raw.stats["counters"]["map"]["input_records"] == live_data + (
            len(engine.feature_objects)
            + len(engine.delta.snapshot().features)
            - len(engine.delta.snapshot().deleted_feature_oids)
        )

    @staticmethod
    def _appended_candidates(engine):
        return sum(
            1 for feature in engine.delta.snapshot().features
            if not QUERY.keywords.isdisjoint(feature.keywords)
        )
