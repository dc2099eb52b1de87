"""Unit tests for the simulated-time cost model."""

from __future__ import annotations

import pytest

from repro.mapreduce.cluster import ClusterNode, SimulatedCluster
from repro.mapreduce.costmodel import CostModel, CostParameters
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import JobResult, ReduceTaskReport


def _make_result(map_inputs=1000, map_outputs=1000, shuffle_bytes=10_000,
                 reduce_work=(100, 200), num_map_tasks=10) -> JobResult:
    counters = Counters()
    counters.increment("map", "input_records", map_inputs)
    counters.increment("map", "output_records", map_outputs)
    counters.increment("shuffle", "records", map_outputs)
    counters.increment("shuffle", "bytes", shuffle_bytes)
    reports = [
        ReduceTaskReport(task_index=index, input_records=work, work_units=work)
        for index, work in enumerate(reduce_work)
    ]
    return JobResult(
        job_name="test",
        outputs=[],
        counters=counters,
        reduce_reports=reports,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=len(reports),
    )


@pytest.fixture()
def small_cluster():
    return SimulatedCluster([ClusterNode("a", 4), ClusterNode("b", 4)])


class TestCostBreakdown:
    def test_total_is_sum_of_phases(self, small_cluster):
        model = CostModel(small_cluster)
        breakdown = model.estimate(_make_result())
        assert breakdown.total == pytest.approx(
            breakdown.startup + breakdown.map + breakdown.shuffle + breakdown.reduce
        )

    def test_as_dict_contains_all_phases(self, small_cluster):
        breakdown = CostModel(small_cluster).estimate(_make_result())
        assert set(breakdown.as_dict()) == {"startup", "map", "shuffle", "reduce", "total"}

    def test_simulated_seconds_equals_total(self, small_cluster):
        model = CostModel(small_cluster)
        result = _make_result()
        assert model.simulated_seconds(result) == pytest.approx(model.estimate(result).total)


class TestCostMonotonicity:
    def test_more_reduce_work_costs_more(self, small_cluster):
        model = CostModel(small_cluster)
        cheap = model.simulated_seconds(_make_result(reduce_work=(100, 100)))
        expensive = model.simulated_seconds(_make_result(reduce_work=(100_000, 100_000)))
        assert expensive > cheap

    def test_more_shuffle_bytes_cost_more(self, small_cluster):
        model = CostModel(small_cluster)
        cheap = model.simulated_seconds(_make_result(shuffle_bytes=1_000))
        expensive = model.simulated_seconds(_make_result(shuffle_bytes=10_000_000_000))
        assert expensive > cheap

    def test_more_map_input_costs_more(self, small_cluster):
        model = CostModel(small_cluster)
        cheap = model.simulated_seconds(_make_result(map_inputs=1_000))
        expensive = model.simulated_seconds(_make_result(map_inputs=500_000_000))
        assert expensive > cheap

    def test_startup_dominates_empty_job(self, small_cluster):
        params = CostParameters(job_startup=15.0)
        model = CostModel(small_cluster, params)
        breakdown = model.estimate(
            _make_result(map_inputs=0, map_outputs=0, shuffle_bytes=0, reduce_work=(0,))
        )
        assert breakdown.total == pytest.approx(15.0 + breakdown.reduce, rel=0.1)


class TestClusterInfluence:
    def test_bigger_cluster_is_faster_on_reduce_heavy_job(self):
        result = _make_result(reduce_work=tuple([50_000] * 64))
        small = CostModel(SimulatedCluster([ClusterNode("a", 2)]))
        large = CostModel(SimulatedCluster([ClusterNode(f"n{i}", 8) for i in range(8)]))
        assert large.simulated_seconds(result) < small.simulated_seconds(result)

    def test_default_cluster_is_papers_16_nodes(self):
        model = CostModel()
        assert len(model.cluster.nodes) == 16
