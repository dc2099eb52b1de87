#!/usr/bin/env python
"""Mini reproduction of Figure 8: how the algorithms scale with dataset size.

Generates uniform datasets of doubling size (the paper doubles from 64M to
512M entries; here the sizes are scaled down so the study runs in seconds) and
prints the simulated job time per algorithm, plus the speedup of the
early-termination algorithms over the baseline.

Run with::

    python examples/scalability_study.py [max_size]
"""

from __future__ import annotations

import sys

from repro.paper.bench.harness import run_scalability
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform


def main() -> None:
    max_size = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000
    sizes = []
    size = max_size
    while size >= 1_000 and len(sizes) < 4:
        sizes.append(size)
        size //= 2
    sizes.reverse()

    def factory(num_objects: int):
        return generate_uniform(SyntheticDatasetConfig(num_objects=num_objects, seed=7))

    print(f"Scalability sweep over dataset sizes {sizes} (uniform data)\n")
    sweep = run_scalability(
        "scalability-example",
        factory,
        sizes,
        spec_defaults={"grid_size": 8, "num_keywords": 5, "radius_fraction": 0.10, "k": 10},
    )
    print(sweep.as_table())

    print("\npSPQ / eSPQsco speedup per size:")
    for size, ratio in sweep.speedup().items():
        print(f"  {size:>7} objects: {ratio:.1f}x")

    print(
        "\nAs in the paper, the gap between the baseline and the early-termination\n"
        "algorithms widens as the dataset grows: pSPQ's per-cell work grows with\n"
        "the number of feature objects, while eSPQsco keeps examining only a\n"
        "handful of features per cell."
    )


if __name__ == "__main__":
    main()
