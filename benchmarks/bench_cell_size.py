"""Section 6.3 — effect of the cell size on per-reducer cost (ablation).

The analysis concludes that a smaller cell side reduces per-reducer cost (at
the price of more cells).  The benchmark runs the full pSPQ job at several
grid sizes on the uniform dataset; the assertion checks the analytic trend
(maximum reducer work shrinks as the grid grows).
"""

from __future__ import annotations

import pytest

from repro.core.jobs import PSPQJob
from repro.mapreduce.runtime import LocalJobRunner

GRID_SIZES = (4, 8, 16)


@pytest.mark.parametrize("grid_size", GRID_SIZES)
def test_cell_size_pspq_job(benchmark, uniform_spec, grid_size):
    varied = uniform_spec.with_overrides(grid_size=grid_size)
    query = varied.build_query()
    engine = varied.build_engine()
    grid = engine.build_grid(grid_size)
    records = list(varied.data_objects) + list(varied.feature_objects)

    def run_job():
        runner = LocalJobRunner(num_reducers=grid.num_cells)
        return runner.run(PSPQJob(query, grid), records)

    result = benchmark(run_job)
    max_work = max(report.work_units for report in result.reduce_reports)
    total_work = sum(report.work_units for report in result.reduce_reports)
    benchmark.extra_info["max_reducer_work"] = max_work
    benchmark.extra_info["total_work"] = total_work
    assert max_work <= total_work
