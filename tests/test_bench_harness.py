"""Unit tests for the benchmark harness (sweeps, tables, speedups)."""

from __future__ import annotations

import pytest

from repro.paper.bench.harness import (
    ExperimentSpec,
    format_series_table,
    run_scalability,
    run_sweep,
)
from repro.paper.bench import experiments
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform


@pytest.fixture(scope="module")
def spec():
    data, features = generate_uniform(SyntheticDatasetConfig(num_objects=1_000, seed=55))
    return ExperimentSpec(
        name="unit-test",
        data_objects=data,
        feature_objects=features,
        grid_size=5,
        num_keywords=3,
        radius_fraction=0.10,
        k=5,
    )


class TestExperimentSpec:
    def test_with_overrides_returns_modified_copy(self, spec):
        changed = spec.with_overrides(k=50)
        assert changed.k == 50
        assert spec.k == 5

    def test_build_query_uses_spec_parameters(self, spec):
        query = spec.build_query()
        assert query.k == spec.k
        assert query.keyword_count == spec.num_keywords
        assert query.radius > 0

    def test_build_engine_holds_datasets(self, spec):
        engine = spec.build_engine()
        assert len(engine.data_objects) == len(spec.data_objects)


class TestRunSweep:
    def test_sweep_covers_all_values_and_algorithms(self, spec):
        sweep = run_sweep(spec, "k", [5, 10])
        assert sweep.values() == [5, 10]
        assert set(sweep.algorithms()) == {"pspq", "espq-len", "espq-sco"}
        assert len(sweep.points) == 6

    def test_unknown_parameter_rejected(self, spec):
        with pytest.raises(ValueError):
            run_sweep(spec, "block_size", [1])

    def test_series_extraction(self, spec):
        sweep = run_sweep(spec, "grid_size", [3, 6], algorithms=["espq-sco"])
        series = sweep.series("espq-sco")
        assert [value for value, _ in series] == [3, 6]
        assert all(seconds > 0 for _, seconds in series)

    def test_speedup_is_at_least_one(self, spec):
        sweep = run_sweep(spec, "num_keywords", [5])
        for ratio in sweep.speedup().values():
            assert ratio >= 1.0

    def test_table_contains_all_values(self, spec):
        sweep = run_sweep(spec, "k", [5, 10], algorithms=["pspq"])
        table = format_series_table(sweep)
        assert "k" in table.splitlines()[0]
        assert any(line.startswith("5 ") for line in table.splitlines())
        assert any(line.startswith("10") for line in table.splitlines())


class TestRunScalability:
    def test_scalability_sweep(self):
        def factory(size):
            return generate_uniform(SyntheticDatasetConfig(num_objects=size, seed=3))

        sweep = run_scalability(
            "scal", factory, [500, 1000],
            spec_defaults={"grid_size": 4, "num_keywords": 3, "k": 5},
            algorithms=["espq-sco"],
        )
        assert sweep.values() == [500, 1000]
        assert len(sweep.points) == 2


class TestExperimentFunctions:
    def test_figure7_smoke(self):
        panels = experiments.figure7_uniform(num_objects=800)
        assert set(panels) == {
            "(a) grid size", "(b) query keywords", "(c) query radius", "(d) top-k"
        }
        for sweep in panels.values():
            assert sweep.points

    def test_figure9_excludes_pspq(self):
        panels = experiments.figure9_clustered(num_objects=800)
        for sweep in panels.values():
            assert "pspq" not in sweep.algorithms()

    def test_duplication_experiment_predicts_measured(self):
        table = experiments.duplication_factor_experiment(
            ratios=(2.0, 4.0), num_features=3_000
        )["duplication"]
        for ratio, row in table.items():
            assert row["measured"] == pytest.approx(row["predicted"], rel=0.15)

    def test_cell_size_experiment_cost_decreases_with_grid(self):
        table = experiments.cell_size_experiment(grid_sizes=(4, 8), num_objects=1_500)["cell_size"]
        assert table[8]["analytic_cost"] < table[4]["analytic_cost"]
        assert (
            table[8]["max_reducer_score_computations"]
            <= table[4]["max_reducer_score_computations"]
        )
