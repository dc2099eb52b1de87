"""Baseline comparison and design-choice ablations (DESIGN.md experiments).

Three comparisons that are not figures in the paper but quantify the design
choices DESIGN.md calls out:

* **Centralized baselines versus the MapReduce algorithms** -- the paper
  states centralized processing is infeasible at its data scale; here the
  exhaustive oracle, the grid-accelerated oracle and the indexed baseline
  (inverted index + R-tree) are measured against the distributed eSPQsco path
  on the same workload.
* **Map-side keyword pruning ablation** -- Algorithm 1's rule of dropping
  feature objects with no query keyword before the shuffle, on versus off.
* **R-tree fan-out ablation** -- the indexed baseline's sensitivity to the
  index page size.
"""

from __future__ import annotations

import pytest

from repro.core.centralized import CentralizedSPQ
from repro.paper.indexed_baseline import IndexedCentralizedSPQ
from repro.core.jobs import ESPQScoJob, PSPQJob
from repro.mapreduce.runtime import LocalJobRunner
from benchmarks.conftest import execute


@pytest.fixture(scope="module")
def workload(uniform_spec):
    query = uniform_spec.build_query()
    return uniform_spec, query


class TestCentralizedBaselines:
    def test_centralized_exhaustive(self, benchmark, workload):
        spec, query = workload
        oracle = CentralizedSPQ(list(spec.data_objects), list(spec.feature_objects))
        benchmark(oracle.evaluate_exhaustive, query)

    def test_centralized_grid_accelerated(self, benchmark, workload):
        spec, query = workload
        oracle = CentralizedSPQ(list(spec.data_objects), list(spec.feature_objects))
        benchmark(oracle.evaluate, query)

    def test_centralized_indexed(self, benchmark, workload):
        spec, query = workload
        baseline = IndexedCentralizedSPQ(list(spec.data_objects), list(spec.feature_objects))
        benchmark(baseline.evaluate, query)

    def test_distributed_espqsco(self, benchmark, uniform_spec):
        benchmark(execute, uniform_spec, "espq-sco")


class TestPruningAblation:
    @pytest.mark.parametrize("prune", [True, False], ids=["with-pruning", "no-pruning"])
    def test_pspq_with_and_without_keyword_pruning(self, benchmark, uniform_spec, prune):
        query = uniform_spec.build_query()
        engine = uniform_spec.build_engine()
        grid = engine.build_grid(uniform_spec.grid_size)
        records = list(uniform_spec.data_objects) + list(uniform_spec.feature_objects)

        def run_job():
            runner = LocalJobRunner(num_reducers=grid.num_cells)
            return runner.run(PSPQJob(query, grid, prune_irrelevant=prune), records)

        result = benchmark(run_job)
        benchmark.extra_info["shuffled_records"] = result.total_shuffle_records()
        if prune:
            assert result.counters.get("spq", "features_pruned") > 0
        else:
            assert result.counters.get("spq", "features_pruned") == 0

    def test_pruning_reduces_shuffle_volume(self, uniform_spec, benchmark):
        query = uniform_spec.build_query()
        engine = uniform_spec.build_engine()
        grid = engine.build_grid(uniform_spec.grid_size)
        records = list(uniform_spec.data_objects) + list(uniform_spec.feature_objects)

        def shuffle_records(prune: bool) -> int:
            runner = LocalJobRunner(num_reducers=grid.num_cells)
            job = ESPQScoJob(query, grid, prune_irrelevant=prune)
            return runner.run(job, records).total_shuffle_records()

        def both():
            return shuffle_records(True), shuffle_records(False)

        pruned, unpruned = benchmark(both)
        assert pruned < unpruned


class TestRTreeFanoutAblation:
    @pytest.mark.parametrize("fanout", [8, 32, 128])
    def test_indexed_baseline_fanout(self, benchmark, workload, fanout):
        spec, query = workload
        baseline = IndexedCentralizedSPQ(
            list(spec.data_objects), list(spec.feature_objects), rtree_fanout=fanout
        )
        result = benchmark(baseline.evaluate, query)
        benchmark.extra_info["rtree_nodes_accessed"] = result.stats["rtree_nodes_accessed"]
