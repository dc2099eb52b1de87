"""Presentation helpers: ASCII charts and reducer load-balance statistics.

Two small utilities used by the benchmark harness and the CLI:

* :func:`ascii_chart` renders a sweep as a horizontal bar chart (optionally on
  a log scale, like the paper's Figures 7–9) so trends are visible directly in
  terminal output without a plotting dependency.
* :func:`load_balance` summarises how evenly reduce work is spread over the
  cells of a job, the quantity behind the paper's Figure 9 discussion: on
  clustered data some reducers are overburdened, which is why pSPQ collapses
  there while the early-termination algorithms survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.paper.bench.harness import SweepResult
from repro.mapreduce.runtime import JobResult


def _bar(value: float, maximum: float, width: int, log_scale: bool) -> str:
    if maximum <= 0 or value <= 0:
        return ""
    if log_scale:
        # Map [1, maximum] to [0, width] logarithmically; values below 1 get
        # a minimal bar so they stay visible.
        span = math.log10(max(maximum, 10.0))
        fraction = max(math.log10(max(value, 1.0)), 0.0) / span
    else:
        fraction = value / maximum
    return "#" * max(1, round(fraction * width))


def ascii_chart(sweep: SweepResult, width: int = 40, log_scale: bool = False) -> str:
    """Render a sweep as grouped horizontal bars (one group per x value)."""
    algorithms = sweep.algorithms()
    values = sweep.values()
    series = {algorithm: dict(sweep.series(algorithm)) for algorithm in algorithms}
    maximum = max(
        (seconds for per_algorithm in series.values() for seconds in per_algorithm.values()),
        default=0.0,
    )
    label_width = max((len(name) for name in algorithms), default=0)
    lines: List[str] = [f"{sweep.experiment}: simulated seconds vs {sweep.parameter}"]
    for value in values:
        lines.append(f"{sweep.parameter} = {value}")
        for algorithm in algorithms:
            seconds = series[algorithm].get(value)
            if seconds is None:
                continue
            bar = _bar(seconds, maximum, width, log_scale)
            lines.append(f"  {algorithm.ljust(label_width)} |{bar} {seconds:.1f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class LoadBalanceStats:
    """Distribution of reduce-side work across the tasks of one job."""

    num_tasks: int
    total_work: int
    max_work: int
    mean_work: float
    imbalance: float        #: max / mean (1.0 = perfectly balanced)
    gini: float             #: Gini coefficient of per-task work in [0, 1)
    idle_tasks: int         #: tasks that performed no work at all


def load_balance(result: JobResult) -> LoadBalanceStats:
    """Compute the work-distribution statistics of a finished job."""
    work = [report.work_units() for report in result.reduce_reports]
    if not work:
        return LoadBalanceStats(0, 0, 0, 0.0, 1.0, 0.0, 0)
    total = sum(work)
    mean = total / len(work)
    maximum = max(work)
    imbalance = (maximum / mean) if mean > 0 else 1.0
    gini = _gini(work)
    return LoadBalanceStats(
        num_tasks=len(work),
        total_work=total,
        max_work=maximum,
        mean_work=mean,
        imbalance=imbalance,
        gini=gini,
        idle_tasks=sum(1 for units in work if units == 0),
    )


def _gini(values: Sequence[int]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, -> 1 = concentrated)."""
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    cumulative = 0.0
    for index, value in enumerate(ordered, start=1):
        cumulative += index * value
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n


def compare_load_balance(results: Dict[str, JobResult]) -> str:
    """Render a comparison table of load-balance statistics for several jobs."""
    header = f"{'job':<20} {'tasks':>6} {'max/mean':>9} {'gini':>6} {'idle':>6}"
    lines = [header, "-" * len(header)]
    for name, result in results.items():
        stats = load_balance(result)
        lines.append(
            f"{name:<20} {stats.num_tasks:>6} {stats.imbalance:>9.2f} "
            f"{stats.gini:>6.2f} {stats.idle_tasks:>6}"
        )
    return "\n".join(lines)
