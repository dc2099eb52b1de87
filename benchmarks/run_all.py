#!/usr/bin/env python
"""Regenerate every figure of the paper and write the series to a report.

Usage::

    python benchmarks/run_all.py [--objects N] [--output results.md]

For each figure (5, 6, 7, 8, 9) the script runs the corresponding parameter
sweeps on the scaled-down datasets, prints the series (parameter value ->
simulated job seconds per algorithm) that the paper plots, and appends the
Section 6 validation tables (duplication factor, cell-size cost).  The output
of a run of this script is the measured half of ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, TextIO

from repro.paper.bench import experiments
from repro.paper.bench.harness import SweepResult


def _write_panels(out: TextIO, title: str, panels: Dict[str, SweepResult]) -> None:
    out.write(f"\n## {title}\n\n")
    for label, sweep in panels.items():
        out.write(f"### {label}\n\n```\n{sweep.as_table()}\n```\n\n")
        speedups = sweep.speedup()
        if speedups:
            best = max(speedups.values())
            out.write(f"Max pSPQ / eSPQsco speedup in this sweep: {best:.1f}x\n\n")


def _write_load_balance(out: TextIO, num_objects: int) -> None:
    """Reducer work-distribution comparison (the §7.2.4 Figure 9 discussion)."""
    from repro.paper.bench.experiments import _clustered_spec, _uniform_spec
    from repro.paper.bench.reporting import compare_load_balance
    from repro.core.jobs import PSPQJob
    from repro.mapreduce.runtime import LocalJobRunner

    results = {}
    for name, spec in (("UN / pSPQ", _uniform_spec(num_objects)),
                       ("CL / pSPQ", _clustered_spec(num_objects))):
        query = spec.build_query()
        grid = spec.build_engine().build_grid(spec.grid_size)
        runner = LocalJobRunner(num_reducers=grid.num_cells)
        results[name] = runner.run(
            PSPQJob(query, grid), list(spec.data_objects) + list(spec.feature_objects)
        )
    out.write("\n## Reducer load balance (uniform vs clustered, pSPQ)\n\n")
    out.write("```\n" + compare_load_balance(results) + "\n```\n")
    out.write(
        "\nClustered data concentrates the reduce work in few cells (higher max/mean\n"
        "and Gini), which is why the paper omits pSPQ from Figure 9.\n"
    )


def _write_duplication(out: TextIO) -> None:
    table = experiments.duplication_factor_experiment()["duplication"]
    out.write("\n## Section 6.2 -- duplication factor (predicted vs measured)\n\n")
    out.write("```\na/r ratio | predicted df | measured df\n")
    out.write("----------|--------------|------------\n")
    for ratio, row in sorted(table.items()):
        out.write(f"{ratio:<9} | {row['predicted']:<12.3f} | {row['measured']:.3f}\n")
    out.write("```\n")


def _write_cell_size(out: TextIO) -> None:
    table = experiments.cell_size_experiment()["cell_size"]
    out.write("\n## Section 6.3 -- cell size vs per-reducer cost\n\n")
    out.write("```\ngrid size | analytic df*a^4 | max reducer score computations\n")
    out.write("----------|-----------------|-------------------------------\n")
    for grid_size, row in sorted(table.items()):
        out.write(
            f"{grid_size:<9} | {row['analytic_cost']:<15.3e} | "
            f"{int(row['max_reducer_score_computations'])}\n"
        )
    out.write("```\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=experiments.DEFAULT_NUM_OBJECTS,
                        help="objects per generated dataset (default %(default)s)")
    parser.add_argument("--output", default="-",
                        help="output file ('-' for stdout, default)")
    args = parser.parse_args(argv)

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    started = time.time()
    try:
        out.write("# Regenerated experiment series\n")
        out.write(f"\nDatasets: {args.objects} objects each (scaled down from the paper).\n")
        _write_panels(out, "Figure 5 -- Flickr-like (FL)", experiments.figure5_flickr(args.objects))
        _write_panels(
            out, "Figure 6 -- Twitter-like (TW)", experiments.figure6_twitter(args.objects)
        )
        _write_panels(out, "Figure 7 -- Uniform (UN)", experiments.figure7_uniform(args.objects))
        _write_panels(out, "Figure 8 -- Scalability", experiments.figure8_scalability())
        _write_panels(
            out, "Figure 9 -- Clustered (CL)", experiments.figure9_clustered(args.objects)
        )
        _write_load_balance(out, args.objects)
        _write_duplication(out)
        _write_cell_size(out)
        out.write(f"\nTotal regeneration time: {time.time() - started:.1f}s wall clock.\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
