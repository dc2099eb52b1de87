"""Generic experiment harness: one-parameter sweeps over the SPQ algorithms.

An :class:`ExperimentSpec` captures the defaults of Table 3 (grid size 50,
|q.W| = 3 for the real datasets / 5 for the synthetic ones, radius 10% of the
cell side, k = 10) and :func:`run_sweep` varies exactly one of those
parameters, executing every algorithm for every value and recording the
simulated job time plus the main work counters.  The resulting
:class:`SweepResult` renders as a text table whose rows are the series plotted
in the corresponding figure of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.centralized import dataset_extent
from repro.core.engine import SPQEngine
from repro.datagen.queries import QueryWorkload
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.text.vocabulary import Vocabulary

#: The algorithm names swept by default, in the paper's order.
DEFAULT_ALGORITHMS: Tuple[str, ...] = ("pspq", "espq-len", "espq-sco")


@dataclass
class ExperimentSpec:
    """Fixed parameters of one experiment (the defaults of Table 3)."""

    name: str
    data_objects: Sequence[DataObject]
    feature_objects: Sequence[FeatureObject]
    grid_size: int = 50
    num_keywords: int = 3
    radius_fraction: float = 0.10
    k: int = 10
    keyword_strategy: str = "random"
    seed: int = 42
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """Copy of the spec with some parameters replaced."""
        return replace(self, **kwargs)

    def build_query(self, grid_size: Optional[int] = None) -> SpatialPreferenceQuery:
        """A query with this spec's keyword count, radius fraction and k."""
        grid_size = grid_size or self.grid_size
        extent = dataset_extent(self.data_objects, self.feature_objects)
        vocabulary = Vocabulary.from_features(self.feature_objects)
        workload = QueryWorkload(vocabulary, extent, seed=self.seed)
        return workload.make_query(
            k=self.k,
            num_keywords=self.num_keywords,
            grid_size=grid_size,
            radius_fraction=self.radius_fraction,
            strategy=self.keyword_strategy,
        )

    def build_engine(self) -> SPQEngine:
        """An engine over this spec's datasets."""
        return SPQEngine(list(self.data_objects), list(self.feature_objects))


@dataclass
class SweepPoint:
    """One measurement: a parameter value, an algorithm and its statistics."""

    parameter_value: object
    algorithm: str
    simulated_seconds: float
    wall_seconds: float
    features_examined: int
    score_computations: int
    shuffled_records: int
    result_scores: List[float] = field(default_factory=list)


@dataclass
class SweepResult:
    """All measurements of one sweep plus presentation helpers."""

    experiment: str
    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, algorithm: str) -> List[Tuple[object, float]]:
        """The (x, simulated seconds) series of one algorithm."""
        return [
            (point.parameter_value, point.simulated_seconds)
            for point in self.points
            if point.algorithm == algorithm
        ]

    def algorithms(self) -> List[str]:
        """Algorithm names present in this sweep, in first-seen order."""
        seen: List[str] = []
        for point in self.points:
            if point.algorithm not in seen:
                seen.append(point.algorithm)
        return seen

    def values(self) -> List[object]:
        """Distinct x-axis parameter values, in first-seen order."""
        seen: List[object] = []
        for point in self.points:
            if point.parameter_value not in seen:
                seen.append(point.parameter_value)
        return seen

    def speedup(self, baseline: str = "pspq", against: str = "espq-sco") -> Dict[object, float]:
        """Per-value ratio baseline / against of simulated time (paper's 'x faster')."""
        base = dict(self.series(baseline))
        other = dict(self.series(against))
        return {
            value: base[value] / other[value]
            for value in base
            if value in other and other[value] > 0
        }

    def as_table(self) -> str:
        """Text table: one row per parameter value, one column per algorithm."""
        return format_series_table(self)


def format_series_table(sweep: SweepResult, unit: str = "sim s") -> str:
    """Render a sweep as the table the corresponding paper figure plots."""
    algorithms = sweep.algorithms()
    header = [sweep.parameter] + [f"{name} ({unit})" for name in algorithms]
    rows: List[List[str]] = []
    for value in sweep.values():
        row = [str(value)]
        for algorithm in algorithms:
            matching = [
                p.simulated_seconds for p in sweep.points
                if p.algorithm == algorithm and p.parameter_value == value
            ]
            row.append(f"{matching[0]:.1f}" if matching else "-")
        rows.append(row)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "-|-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _run_single(
    spec: ExperimentSpec,
    engine: SPQEngine,
    algorithm: str,
    parameter_value: object,
    query: SpatialPreferenceQuery,
    grid_size: int,
) -> SweepPoint:
    result = engine.execute(query, algorithm=algorithm, grid_size=grid_size)
    return SweepPoint(
        parameter_value=parameter_value,
        algorithm=algorithm,
        simulated_seconds=result.stats["simulated_seconds"],
        wall_seconds=result.stats["wall_seconds"],
        features_examined=result.stats["features_examined"],
        score_computations=result.stats["score_computations"],
        shuffled_records=result.stats["shuffled_records"],
        result_scores=result.scores(),
    )


def run_sweep(
    spec: ExperimentSpec,
    parameter: str,
    values: Sequence[object],
    algorithms: Optional[Sequence[str]] = None,
) -> SweepResult:
    """Vary one parameter and measure every algorithm at every value.

    Supported parameter names: ``"grid_size"``, ``"num_keywords"``,
    ``"radius_fraction"``, ``"k"``.

    Raises:
        ValueError: for an unsupported parameter name.
    """
    supported = {"grid_size", "num_keywords", "radius_fraction", "k"}
    if parameter not in supported:
        raise ValueError(f"unsupported sweep parameter {parameter!r}; expected one of {supported}")
    algorithms = tuple(algorithms or spec.algorithms)
    engine = spec.build_engine()
    sweep = SweepResult(experiment=spec.name, parameter=parameter)
    for value in values:
        varied = spec.with_overrides(**{parameter: value})
        grid_size = varied.grid_size
        query = varied.build_query(grid_size=grid_size)
        for algorithm in algorithms:
            sweep.points.append(
                _run_single(varied, engine, algorithm, value, query, grid_size)
            )
    return sweep


def run_scalability(
    name: str,
    dataset_factory,
    sizes: Sequence[int],
    spec_defaults: Optional[dict] = None,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> SweepResult:
    """Dataset-size sweep (the paper's Figure 8).

    Args:
        name: Experiment name.
        dataset_factory: Callable ``size -> (data_objects, feature_objects)``.
        sizes: Total object counts to generate.
        spec_defaults: Extra :class:`ExperimentSpec` fields (grid size, k, ...).
        algorithms: Algorithms to run.
    """
    spec_defaults = dict(spec_defaults or {})
    sweep = SweepResult(experiment=name, parameter="dataset_size")
    for size in sizes:
        data_objects, feature_objects = dataset_factory(size)
        spec = ExperimentSpec(
            name=f"{name}-{size}",
            data_objects=data_objects,
            feature_objects=feature_objects,
            **spec_defaults,
        )
        engine = spec.build_engine()
        query = spec.build_query()
        for algorithm in algorithms:
            sweep.points.append(
                _run_single(spec, engine, algorithm, size, query, spec.grid_size)
            )
    return sweep
