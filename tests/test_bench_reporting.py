"""Tests for ASCII chart rendering and reducer load-balance statistics."""

from __future__ import annotations

import pytest

from repro.paper.bench.harness import SweepPoint, SweepResult
from repro.paper.bench.reporting import (
    ascii_chart,
    compare_load_balance,
    load_balance,
)
from repro.core.jobs import PSPQJob
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_clustered, generate_uniform
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import JobResult, LocalJobRunner, ReduceTaskReport
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.text.vocabulary import Vocabulary


def _sweep():
    sweep = SweepResult(experiment="demo", parameter="k")
    for value, algorithm, seconds in [
        (5, "pspq", 100.0), (5, "espq-sco", 10.0),
        (10, "pspq", 200.0), (10, "espq-sco", 12.0),
    ]:
        sweep.points.append(
            SweepPoint(
                parameter_value=value, algorithm=algorithm, simulated_seconds=seconds,
                wall_seconds=0.0, features_examined=0, score_computations=0,
                shuffled_records=0,
            )
        )
    return sweep


def _job_result(work_per_task):
    reports = []
    for index, work in enumerate(work_per_task):
        report = ReduceTaskReport(task_index=index)
        report.counters.increment("work", "score_computations", work)
        reports.append(report)
    return JobResult(
        job_name="synthetic", outputs=[], counters=Counters(),
        reduce_reports=reports, num_map_tasks=1, num_reduce_tasks=len(reports),
    )


class TestAsciiChart:
    def test_chart_contains_all_algorithms_and_values(self):
        chart = ascii_chart(_sweep())
        assert "pspq" in chart and "espq-sco" in chart
        assert "k = 5" in chart and "k = 10" in chart

    def test_longest_bar_belongs_to_largest_value(self):
        chart = ascii_chart(_sweep(), width=20)
        bars = {
            line.strip().split()[0]: line.count("#")
            for line in chart.splitlines() if "#" in line
        }
        assert max(bars.values()) == bars["pspq"]

    def test_log_scale_compresses_ratios(self):
        linear = ascii_chart(_sweep(), width=40, log_scale=False)
        log = ascii_chart(_sweep(), width=40, log_scale=True)

        def bar_lengths(chart):
            return [line.count("#") for line in chart.splitlines() if "#" in line]

        assert max(bar_lengths(log)) <= max(bar_lengths(linear))
        assert min(bar_lengths(log)) >= min(bar_lengths(linear))

    def test_empty_sweep(self):
        chart = ascii_chart(SweepResult(experiment="empty", parameter="k"))
        assert "empty" in chart


class TestLoadBalance:
    def test_balanced_work(self):
        stats = load_balance(_job_result([10, 10, 10, 10]))
        assert stats.imbalance == pytest.approx(1.0)
        assert stats.gini == pytest.approx(0.0)
        assert stats.idle_tasks == 0
        assert stats.total_work == 40

    def test_skewed_work(self):
        stats = load_balance(_job_result([100, 0, 0, 0]))
        assert stats.imbalance == pytest.approx(4.0)
        assert stats.gini > 0.7
        assert stats.idle_tasks == 3

    def test_empty_job(self):
        stats = load_balance(_job_result([]))
        assert stats.num_tasks == 0
        assert stats.total_work == 0

    def test_all_idle(self):
        stats = load_balance(_job_result([0, 0]))
        assert stats.gini == 0.0
        assert stats.idle_tasks == 2

    def test_comparison_table(self):
        table = compare_load_balance({
            "uniform": _job_result([10, 10]),
            "clustered": _job_result([100, 1]),
        })
        assert "uniform" in table and "clustered" in table
        assert "max/mean" in table

    def test_clustered_data_is_more_imbalanced_than_uniform(self):
        """The observation behind the paper's Figure 9 discussion (§7.2.4)."""

        def run_pspq(generator):
            data, features = generator(SyntheticDatasetConfig(num_objects=2_000, seed=17))
            vocabulary = Vocabulary.from_features(features)
            query = SpatialPreferenceQuery.create(
                k=5, radius=2.0, keywords=set(vocabulary.most_frequent(3))
            )
            grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), 8)
            runner = LocalJobRunner(num_reducers=grid.num_cells)
            return runner.run(PSPQJob(query, grid), data + features)

        uniform_stats = load_balance(run_pspq(generate_uniform))
        clustered_stats = load_balance(run_pspq(generate_clustered))
        assert clustered_stats.imbalance > uniform_stats.imbalance
        assert clustered_stats.gini > uniform_stats.gini
        assert clustered_stats.idle_tasks > uniform_stats.idle_tasks
