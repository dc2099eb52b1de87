"""Serial execution against the raw record stream, and its configuration.

Every task runs serially: ``execute`` and ``execute_many`` are the index
path, and the raw record stream (``tests/raw_oracle.py``) is the
independent reference they are held to -- ids, scores and every counter
that does not count what was *read*.  ``EngineConfig.backend`` accepts the
one spelling ``serial``; the process backend, its worker count and the
``REPRO_BACKEND`` / ``REPRO_WORKERS`` variables are gone.
"""

from __future__ import annotations

import pytest

from raw_oracle import assert_same_work, raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.exceptions import JobConfigurationError
from repro.model.query import SpatialPreferenceQuery

ALGORITHMS = ("pspq", "espq-len", "espq-sco")


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticDatasetConfig(num_objects=600, seed=3)
    return generate_uniform(config)


@pytest.fixture(scope="module")
def queries():
    return [
        SpatialPreferenceQuery.create(k=5, radius=3.0, keywords=keywords)
        for keywords in (
            frozenset({"w0001", "w0002", "w0003"}),
            frozenset({"w0010"}),
            frozenset({"w0002", "w0777"}),
            frozenset({"w0042", "w0043"}),
        )
    ]


# --------------------------------------------------------------------- #
# engine-level equivalence


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def serial_results(self, dataset, queries):
        data, features = dataset
        engine = SPQEngine(data, features)
        results = {}
        for algorithm in ALGORITHMS:
            results[algorithm] = {
                "execute": [
                    engine.execute(query, algorithm=algorithm, grid_size=6)
                    for query in queries
                ],
                "batch": engine.execute_many(queries, algorithm=algorithm, grid_size=6),
            }
        return results

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_serial_reference_matches_the_raw_oracle(
        self, dataset, queries, serial_results, algorithm
    ):
        """``execute`` and ``execute_many`` are one path, so both are held
        to the record stream, which never touches the index."""
        data, features = dataset
        with SPQEngine(data, features) as engine:
            raw = [
                raw_execute(engine, query, algorithm=algorithm, grid_size=6)
                for query in queries
            ]
        for mode in ("execute", "batch"):
            for mine, reference in zip(serial_results[algorithm][mode], raw):
                assert mine.object_ids() == reference.object_ids()
                assert mine.scores() == reference.scores()
                assert_same_work(mine.stats, reference.stats)
                assert not {"backend", "workers"} & set(mine.stats)

    def test_engine_close_is_reentrant_and_recreates_backend(self, dataset, queries):
        """close() twice, then the engine still answers, identically."""
        data, features = dataset
        engine = SPQEngine(data, features, config=EngineConfig(backend="serial"))
        first = engine.execute(queries[0], grid_size=6)
        engine.close()
        engine.close()
        second = engine.execute(queries[0], grid_size=6)
        assert first.object_ids() == second.object_ids()
        engine.close()


# --------------------------------------------------------------------- #
# configuration


class TestBackendConfiguration:
    def test_backend_names_are_stable(self):
        # The one spelling left, kept for callers that write it out.
        assert EngineConfig().backend == "serial"
        assert EngineConfig(backend="serial") == EngineConfig()

    def test_serial_with_multiple_workers_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            EngineConfig(backend="serial", workers=4)  # type: ignore[call-arg]

    def test_unknown_backend_rejected(self):
        with pytest.raises(JobConfigurationError, match="celery"):
            EngineConfig(backend="celery")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            EngineConfig(workers=0)  # type: ignore[call-arg]

    def test_defaults_resolve_to_serial(self, dataset, queries, monkeypatch):
        # The variables that used to pick a pool are read by nothing now.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        data, features = dataset
        assert EngineConfig().backend == "serial"
        with SPQEngine(data, features) as engine:
            assert engine.execute(queries[0], grid_size=6).entries
