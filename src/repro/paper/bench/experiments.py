"""One function per figure of the paper's evaluation (Section 7).

Every function returns a dict mapping a sub-figure label (e.g. ``"(a) grid
size"``) to a :class:`~repro.paper.bench.harness.SweepResult`.  The dataset
cardinalities are scaled down from the paper's (millions of objects) to sizes
that a single Python process sweeps in seconds; the *parameter values* are the
paper's own (Table 3), scaled only where the dataset-size ratio makes a value
meaningless (grid sizes beyond the point where cells hold < 1 object are
capped -- noted in EXPERIMENTS.md).

Paper grid sizes 35-100 assume tens of millions of objects; with the scaled
datasets used here the same sweep is run over proportionally smaller grids so
cells keep a comparable object population.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.paper.bench.harness import (
    ExperimentSpec,
    SweepResult,
    run_scalability,
    run_sweep,
)
from repro.datagen.realistic import (
    RealisticDatasetConfig,
    generate_flickr_like,
    generate_twitter_like,
)
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)

#: Default dataset cardinality for figure sweeps (objects = data + features).
DEFAULT_NUM_OBJECTS = 6_000

#: Grid sizes used for the scaled-down real-data sweeps (paper: 35/50/75/100).
REAL_GRID_SIZES: Sequence[int] = (8, 12, 18, 24)
#: Grid sizes for the synthetic sweeps (paper: 10/15/50/100).
SYNTHETIC_GRID_SIZES: Sequence[int] = (5, 8, 12, 20)

#: The paper's query-keyword counts, radius fractions and k values (Table 3).
QUERY_KEYWORDS: Sequence[int] = (1, 3, 5, 10)
RADIUS_FRACTIONS: Sequence[float] = (0.10, 0.25, 0.50, 1.00)
TOP_K_VALUES: Sequence[int] = (5, 10, 50, 100)


def _flickr_spec(num_objects: int = DEFAULT_NUM_OBJECTS) -> ExperimentSpec:
    config = RealisticDatasetConfig(
        num_objects=num_objects, mean_keywords=7.9, vocabulary_size=2_000, seed=11
    )
    data, features = generate_flickr_like(config=config)
    return ExperimentSpec(
        name="FL", data_objects=data, feature_objects=features,
        grid_size=12, num_keywords=3, radius_fraction=0.10, k=10,
        keyword_strategy="frequent",
    )


def _twitter_spec(num_objects: int = DEFAULT_NUM_OBJECTS) -> ExperimentSpec:
    config = RealisticDatasetConfig(
        num_objects=num_objects, mean_keywords=9.8, vocabulary_size=3_000, seed=13
    )
    data, features = generate_twitter_like(config=config)
    return ExperimentSpec(
        name="TW", data_objects=data, feature_objects=features,
        grid_size=12, num_keywords=3, radius_fraction=0.10, k=10,
        keyword_strategy="frequent",
    )


def _uniform_spec(num_objects: int = DEFAULT_NUM_OBJECTS) -> ExperimentSpec:
    config = SyntheticDatasetConfig(num_objects=num_objects, seed=7)
    data, features = generate_uniform(config)
    return ExperimentSpec(
        name="UN", data_objects=data, feature_objects=features,
        grid_size=8, num_keywords=5, radius_fraction=0.10, k=10,
    )


def _clustered_spec(num_objects: int = DEFAULT_NUM_OBJECTS) -> ExperimentSpec:
    config = SyntheticDatasetConfig(num_objects=num_objects, seed=9)
    data, features = generate_clustered(config)
    return ExperimentSpec(
        name="CL", data_objects=data, feature_objects=features,
        grid_size=8, num_keywords=5, radius_fraction=0.10, k=10,
        # As in the paper's Figure 9, pSPQ is omitted: on clustered data its
        # exhaustive per-cell nested loop is orders of magnitude slower.
        algorithms=("espq-len", "espq-sco"),
    )


def _four_panel(spec: ExperimentSpec, grid_sizes: Sequence[int]) -> Dict[str, SweepResult]:
    """The four sub-figures shared by Figures 5, 6, 7 and 9."""
    return {
        "(a) grid size": run_sweep(spec, "grid_size", list(grid_sizes)),
        "(b) query keywords": run_sweep(spec, "num_keywords", list(QUERY_KEYWORDS)),
        "(c) query radius": run_sweep(spec, "radius_fraction", list(RADIUS_FRACTIONS)),
        "(d) top-k": run_sweep(spec, "k", list(TOP_K_VALUES)),
    }


def figure5_flickr(num_objects: int = DEFAULT_NUM_OBJECTS) -> Dict[str, SweepResult]:
    """Figure 5: the four parameter sweeps on the Flickr-like dataset."""
    return _four_panel(_flickr_spec(num_objects), REAL_GRID_SIZES)


def figure6_twitter(num_objects: int = DEFAULT_NUM_OBJECTS) -> Dict[str, SweepResult]:
    """Figure 6: the four parameter sweeps on the Twitter-like dataset."""
    return _four_panel(_twitter_spec(num_objects), REAL_GRID_SIZES)


def figure7_uniform(num_objects: int = DEFAULT_NUM_OBJECTS) -> Dict[str, SweepResult]:
    """Figure 7: the four parameter sweeps on the Uniform dataset."""
    return _four_panel(_uniform_spec(num_objects), SYNTHETIC_GRID_SIZES)


def figure9_clustered(num_objects: int = DEFAULT_NUM_OBJECTS) -> Dict[str, SweepResult]:
    """Figure 9: the four parameter sweeps on the Clustered dataset (eSPQ only)."""
    return _four_panel(_clustered_spec(num_objects), SYNTHETIC_GRID_SIZES)


def figure8_scalability(
    sizes: Sequence[int] = (1_000, 2_000, 4_000, 8_000),
) -> Dict[str, SweepResult]:
    """Figure 8: job time versus dataset size on uniform data.

    The paper sweeps 64M-512M entries; the scaled sweep keeps the same x2
    progression so the linear-scaling shape is directly comparable.
    """

    def factory(size: int):
        return generate_uniform(SyntheticDatasetConfig(num_objects=size, seed=7))

    sweep = run_scalability(
        "UN-scalability",
        factory,
        sizes,
        spec_defaults={"grid_size": 8, "num_keywords": 5, "radius_fraction": 0.10, "k": 10},
    )
    return {"dataset size": sweep}


def duplication_factor_experiment(
    ratios: Sequence[float] = (2.0, 3.0, 4.0, 6.0, 10.0, 20.0),
    num_features: int = 20_000,
) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Section 6.2: predicted versus measured duplication factor.

    Returns ``{ 'duplication': {a/r ratio: {'predicted': df, 'measured': df}} }``.
    """
    import random

    from repro.paper.analysis import duplication_factor
    from repro.model.objects import FeatureObject
    from repro.spatial.geometry import BoundingBox
    from repro.spatial.grid import UniformGrid
    from repro.spatial.partitioning import GridPartitioner

    rng = random.Random(23)
    extent = BoundingBox(0.0, 0.0, 100.0, 100.0)
    features = [
        FeatureObject(f"f{i}", rng.uniform(0, 100), rng.uniform(0, 100), {"kw"})
        for i in range(num_features)
    ]
    grid = UniformGrid.square(extent, 10)  # cell side a = 10
    table: Dict[float, Dict[str, float]] = {}
    for ratio in ratios:
        radius = grid.cell_width / ratio
        partitioner = GridPartitioner(grid, radius)
        _, stats = partitioner.partition([], features)
        table[ratio] = {
            "predicted": duplication_factor(grid.cell_width, radius),
            "measured": stats.duplication_factor,
        }
    return {"duplication": table}


def cell_size_experiment(
    grid_sizes: Sequence[int] = (4, 8, 16, 32),
    num_objects: int = 8_000,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Section 6.3: per-reducer cost model df*a^4 versus measured reducer work.

    For each grid size the maximum per-reducer score-computation count of pSPQ
    is measured (the quantity the makespan depends on) and reported next to the
    normalised analytic cost.
    """
    from repro.paper.analysis import reducer_cost_model
    from repro.core.jobs import PSPQJob
    from repro.mapreduce.runtime import LocalJobRunner

    spec = _uniform_spec(num_objects)
    table: Dict[int, Dict[str, float]] = {}
    for grid_size in grid_sizes:
        varied = spec.with_overrides(grid_size=grid_size)
        query = varied.build_query()
        engine = varied.build_engine()
        grid = engine.build_grid(grid_size)
        job = PSPQJob(query, grid)
        runner = LocalJobRunner(num_reducers=grid.num_cells)
        result = runner.run(job, list(spec.data_objects) + list(spec.feature_objects))
        max_work = max(
            (report.counters.get("work", "score_computations") for report in result.reduce_reports),
            default=0,
        )
        normalised_side = 1.0 / grid_size
        normalised_radius = normalised_side * varied.radius_fraction
        table[grid_size] = {
            "analytic_cost": reducer_cost_model(normalised_side, normalised_radius),
            "max_reducer_score_computations": float(max_work),
        }
    return {"cell_size": table}
