"""Benchmark harness: parameter sweeps regenerating the paper's figures.

The paper's evaluation (Section 7) varies five parameters (Table 3): grid
size, number of query keywords, query radius (as a fraction of the cell side),
``k`` and dataset size, over four datasets (FL, TW, UN, CL), and reports the
MapReduce job execution time for each of the three algorithms.  This package
provides:

* :class:`~repro.paper.bench.harness.ExperimentSpec` / :func:`~repro.paper.bench.harness.run_sweep`
  -- generic one-parameter sweeps over the three algorithms,
* :mod:`repro.paper.bench.experiments` -- one function per figure of the paper,
* formatting helpers producing the tables recorded in ``EXPERIMENTS.md``.
"""

from repro.paper.bench.harness import (
    ExperimentSpec,
    SweepResult,
    format_series_table,
    run_sweep,
)
from repro.paper.bench.reporting import ascii_chart, compare_load_balance, load_balance
from repro.paper.bench import experiments

__all__ = [
    "ExperimentSpec",
    "SweepResult",
    "run_sweep",
    "format_series_table",
    "ascii_chart",
    "load_balance",
    "compare_load_balance",
    "experiments",
]
