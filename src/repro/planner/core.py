"""The cost-based adaptive query planner (``algorithm="auto"``).

The paper's central empirical finding is that none of pSPQ / eSPQlen /
eSPQsco dominates: the winner flips with radius, keyword selectivity, grid
size and data distribution.  :class:`QueryPlanner` is the classic DBMS
answer -- estimate each algorithm's cost *before* running anything and pick
the cheapest:

1. :func:`~repro.planner.estimator.collect_statistics` gathers cheap
   per-query statistics from the :class:`~repro.index.dataset_index.DatasetIndex`;
2. the :class:`~repro.planner.estimator.CostEstimator` prices them through
   the simulated cluster cost model into one
   :class:`~repro.mapreduce.costmodel.CostBreakdown` per algorithm, using
   work factors supplied by the bounded-memory
   :class:`~repro.planner.calibration.Calibrator`;
3. after the chosen (or any explicitly requested) algorithm runs, the
   engine feeds the measured counters back through :meth:`QueryPlanner.observe`
   so later estimates improve.

The planner is engine-owned: one planner per :class:`~repro.core.engine.SPQEngine`
(one per pool in a query service), and always on -- every index-path query
is observed, whether ``"auto"`` chose its algorithm or the caller did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.index.dataset_index import DatasetIndex
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.costmodel import CostBreakdown, CostParameters
from repro.model.query import SpatialPreferenceQuery
from repro.planner.calibration import Calibrator, Signature, signature_of
from repro.planner.estimator import (
    DEFAULT_WORK_FACTORS,
    PLANNED_ALGORITHMS,
    CostEstimator,
    QueryStatistics,
    collect_statistics,
)

#: The algorithm name that triggers planning.
AUTO_ALGORITHM = "auto"


@dataclass
class PlannerConfig:
    """Calibration constants of one planner: the calibrator's LRU ``memory``
    (query-class entries kept) and the EWMA ``smoothing`` weight of each new
    observation.  Engines and services always run the defaults."""

    memory: int = 64
    smoothing: float = 0.3


@dataclass
class PlannerDecision:
    """Outcome of planning one query.

    Attributes:
        algorithm: The chosen algorithm (cheapest estimate; deterministic
            tie-break in :data:`PLANNED_ALGORITHMS` order).
        estimates: Algorithm -> predicted total simulated seconds (the
            estimate vector recorded in ``result.stats["planner_estimates"]``).
        breakdowns: Full per-phase breakdown behind each estimate.
        statistics: The inputs the decision was made from.
        calibrated: True when any calibration data informed the estimates.
    """

    algorithm: str
    estimates: Dict[str, float]
    breakdowns: Dict[str, CostBreakdown]
    statistics: QueryStatistics
    calibrated: bool = False


class QueryPlanner:
    """Per-engine adaptive planner: estimate, choose, then learn."""

    def __init__(
        self,
        cluster: Optional[SimulatedCluster] = None,
        parameters: Optional[CostParameters] = None,
        config: Optional[PlannerConfig] = None,
        defaults: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.estimator = CostEstimator(cluster, parameters)
        self.calibrator = Calibrator(
            memory=self.config.memory, smoothing=self.config.smoothing
        )
        self.defaults = dict(defaults or DEFAULT_WORK_FACTORS)
        #: Decisions taken / observations folded (engine stats surface).
        self.decisions = 0

    # ------------------------------------------------------------------ #

    def collect(
        self, index: DatasetIndex, query: SpatialPreferenceQuery, grid_size: int
    ) -> QueryStatistics:
        """Gather the planning statistics of one query (reusable by prepare)."""
        return collect_statistics(index, query, grid_size)

    def snapshot_state(self) -> Dict[str, object]:
        """Durable calibration state (see :meth:`Calibrator.state_dict`)."""
        return self.calibrator.state_dict()

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the calibration state with a prior :meth:`snapshot_state`.

        Raises:
            CalibrationStateError: if the state fails validation; the
                calibrator is left unchanged.
        """
        self.calibrator.restore_state(state)

    def decide(self, stats: QueryStatistics) -> PlannerDecision:
        """Pick the algorithm with the lowest predicted simulated cost."""
        signature = self._signature(stats)
        factors = {
            algorithm: self.calibrator.factors_for(
                algorithm, signature, self.defaults[algorithm]
            )
            for algorithm in PLANNED_ALGORITHMS
        }
        duplication_scale = self.calibrator.duplication_scale(
            stats.grid_size, signature[1]
        )
        breakdowns = {
            algorithm: self._apply_reduce_scale(
                breakdown,
                self.calibrator.reduce_scale_for(algorithm, signature),
            )
            for algorithm, breakdown in self.estimator.estimate(
                stats, factors, duplication_scale
            ).items()
        }
        estimates = {name: round(b.total, 6) for name, b in breakdowns.items()}
        chosen = min(
            PLANNED_ALGORITHMS,
            key=lambda name: (estimates[name], PLANNED_ALGORITHMS.index(name)),
        )
        self.decisions += 1
        return PlannerDecision(
            algorithm=chosen,
            estimates=estimates,
            breakdowns=breakdowns,
            statistics=stats,
            calibrated=self.calibrator.observations > 0,
        )

    def observe(
        self,
        stats: QueryStatistics,
        algorithm: str,
        counters: Mapping[str, Mapping[str, int]],
        breakdown: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Fold one executed query's counters into the calibration state.

        ``counters`` is the engine's ``result.stats["counters"]`` mapping and
        ``breakdown`` its ``result.stats["simulated_breakdown"]``; only
        queries run through a planned (index-backed) path report the exact
        shuffled-copy counts this needs.  Unknown algorithms (the
        centralized oracle) are ignored.
        """
        if algorithm not in PLANNED_ALGORITHMS:
            return
        spq = counters.get("spq", {})
        work = counters.get("work", {})
        actual_copies = spq.get("features_kept", 0) + spq.get("feature_duplicates", 0)
        raw_copies, raw_pairs = self.estimator.raw_work(stats)
        signature = self._signature(stats)
        self.calibrator.observe_duplication(
            stats.grid_size, signature[1], raw_copies, actual_copies
        )
        self.calibrator.observe_work(
            algorithm,
            signature,
            raw_copies,
            raw_pairs,
            actual_copies,
            work.get("features_examined", 0),
            work.get("score_computations", 0),
        )
        if breakdown is not None:
            # Re-predict the reduce makespan with the *just-updated* factors
            # (unscaled) and record actual-over-predicted, so the estimate's
            # residual per-cell distribution error is corrected too.
            predicted = self.estimator.estimate_one(
                stats,
                algorithm,
                self.calibrator.factors_for(
                    algorithm, signature, self.defaults[algorithm]
                ),
                self.calibrator.duplication_scale(stats.grid_size, signature[1]),
            )
            self.calibrator.observe_reduce(
                algorithm, signature, predicted.reduce, breakdown.get("reduce", 0.0)
            )

    @staticmethod
    def _apply_reduce_scale(
        breakdown: CostBreakdown, scale: float
    ) -> CostBreakdown:
        if scale == 1.0:
            return breakdown
        return CostBreakdown(
            startup=breakdown.startup,
            map=breakdown.map,
            shuffle=breakdown.shuffle,
            reduce=breakdown.reduce * scale,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _signature(stats: QueryStatistics) -> Signature:
        return signature_of(
            stats.grid_size,
            stats.cell_side,
            stats.query.radius,
            stats.query.keyword_count,
            stats.query.k,
        )
