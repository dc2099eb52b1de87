"""A-priori cost estimation for the three MapReduce SPQ algorithms.

The estimator predicts what the simulated cost model *would* report for a
query under each algorithm, before running any of them, from statistics a
:class:`~repro.index.dataset_index.DatasetIndex` already holds:

* the per-cell data-object histogram (exact, computed at index build),
* the candidate feature set of the query -- the union of the inverted
  index's posting lists -- and the home-cell histogram of those candidates,
* a duplication estimate per radius: the observed mean of cached Lemma-1
  lists when available, otherwise the geometric expectation, and
* the mean serialized feature-record size (for shuffle bytes).

Under the simulated cost model the three algorithms share identical startup
and shuffle costs for the same query (they emit the same records with the
same sizes); what separates them is the *work*: eSPQsco's map phase computes
the Jaccard score per kept feature (and per emitted copy's key), and on the
reduce side each algorithm differs in how many shuffled feature copies its
reducers examine before terminating and how many (data object, feature)
score computations they perform.  The reduce quantities
are modelled as fractions of the shuffled copies and of the candidate
pair count -- the :class:`WorkFactors` -- with per-algorithm defaults that
the calibration loop (:mod:`repro.planner.calibration`) refines from the
counters of previously executed queries.

Per-cell estimated reduce costs are scheduled on the simulated cluster with
the exact :class:`~repro.mapreduce.costmodel.CostModel` formulas, so the
estimate vector is directly comparable to the ``simulated_seconds`` a real
run reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.index.dataset_index import DatasetIndex
from repro.index.records import DATA_RECORD_BYTES
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.costmodel import CostBreakdown, CostModel, CostParameters
from repro.mapreduce.runtime import DEFAULT_SPLIT_SIZE
from repro.model.query import SpatialPreferenceQuery

#: The algorithms the planner chooses between (the three MapReduce jobs;
#: the centralized oracle is never planned -- it bypasses the cluster).
PLANNED_ALGORITHMS = ("pspq", "espq-len", "espq-sco")


@dataclass(frozen=True)
class WorkFactors:
    """Reduce-work fractions of one algorithm.

    Attributes:
        examined: Fraction of the shuffled feature copies the reducers
            actually read before (early) termination.  1.0 for an algorithm
            that never terminates early.
        pairs: Fraction of the candidate (feature copy, co-located data
            object) pairs that incur a score computation.
    """

    examined: float
    pairs: float


#: Cold-start priors, refined by calibration.  pSPQ always reads every copy
#: and its threshold check skips roughly a third of the nested loops on
#: mixed workloads; eSPQlen reads most copies (its length bound fires late)
#: but computes fewer pairs; eSPQsco stops after k reported objects per
#: cell, so it reads few copies and scores few pairs.
DEFAULT_WORK_FACTORS: Dict[str, WorkFactors] = {
    "pspq": WorkFactors(examined=1.0, pairs=0.65),
    "espq-len": WorkFactors(examined=0.85, pairs=0.5),
    "espq-sco": WorkFactors(examined=0.3, pairs=0.12),
}


@dataclass
class QueryStatistics:
    """Everything the estimator knows about one (query, index) pair.

    Collected once per planned query by :func:`collect_statistics`; the
    posting-list hits and candidate positions are reused for
    :meth:`DatasetIndex.prepare`, so the query's posting lists are walked
    exactly once.
    """

    query: SpatialPreferenceQuery
    grid_size: int
    num_cells: int
    cell_side: float
    num_data: int
    num_features: int
    keyword_hits: Mapping[int, int]
    candidate_positions: List[int]
    candidate_cells: Dict[int, int]
    data_cell_counts: Mapping[int, int]
    duplication: float
    avg_feature_bytes: float

    @property
    def num_candidates(self) -> int:
        """Number of candidate features after keyword pruning."""
        return len(self.candidate_positions)


def collect_statistics(
    index: DatasetIndex, query: SpatialPreferenceQuery, grid_size: int
) -> QueryStatistics:
    """Gather the planner's inputs from the index (O(candidates + keywords)).

    A scoped index (one shard's) reports only the features in reach at the
    query's radius, so a shard plans on what a shard partitioned with
    ``max_radius = radius`` would hold.
    """
    hits = index.keyword_hits(query.keywords, query.radius)
    candidates = sorted(hits)
    return QueryStatistics(
        query=query,
        grid_size=grid_size,
        num_cells=index.grid.num_cells,
        cell_side=(index.grid.cell_width + index.grid.cell_height) / 2.0,
        num_data=index.num_data,
        num_features=index.features_within(query.radius)[0],
        keyword_hits=hits,
        candidate_positions=candidates,
        candidate_cells=index.candidate_cell_counts(candidates),
        data_cell_counts=index.data_cell_counts,
        duplication=index.duplication_estimate(query.radius),
        avg_feature_bytes=index.average_feature_bytes(query.radius),
    )


class CostEstimator:
    """Prices :class:`QueryStatistics` into per-algorithm cost breakdowns."""

    def __init__(
        self,
        cluster: Optional[SimulatedCluster] = None,
        parameters: Optional[CostParameters] = None,
        split_size: int = DEFAULT_SPLIT_SIZE,
    ) -> None:
        self.model = CostModel(cluster, parameters)
        self.split_size = split_size

    # ------------------------------------------------------------------ #

    def raw_work(self, stats: QueryStatistics) -> Tuple[float, float]:
        """Factor-free work bases: (shuffled feature copies, candidate pairs).

        ``copies`` is the expected number of feature records reaching the
        reducers; ``pairs`` the expected number of (feature copy, co-located
        data object) combinations.  An algorithm's work estimate is these
        bases scaled by its :class:`WorkFactors`.
        """
        dup = self._clamped_duplication(stats, 1.0)
        copies = stats.num_candidates * dup
        data = stats.data_cell_counts
        pairs = dup * sum(
            count * data.get(cell, 0)
            for cell, count in stats.candidate_cells.items()
        )
        return copies, pairs

    def estimate(
        self,
        stats: QueryStatistics,
        factors: Mapping[str, WorkFactors],
        duplication_scale: float = 1.0,
    ) -> Dict[str, CostBreakdown]:
        """Predicted cost breakdown per algorithm (shared map/shuffle phases).

        ``duplication_scale`` is the calibration correction on the
        duplication estimate (1.0 when uncalibrated).
        """
        return {
            algorithm: self.estimate_one(
                stats, algorithm, factors[algorithm], duplication_scale
            )
            for algorithm in PLANNED_ALGORITHMS
        }

    def estimate_one(
        self,
        stats: QueryStatistics,
        algorithm: str,
        work: WorkFactors,
        duplication_scale: float = 1.0,
    ) -> CostBreakdown:
        """Predicted cost breakdown of one algorithm."""
        dup = self._clamped_duplication(stats, duplication_scale)
        copies = stats.num_candidates * dup
        map_inputs = stats.num_data + stats.num_candidates
        map_outputs = stats.num_data + copies
        num_map_tasks = max(1, -(-map_inputs // self.split_size))
        shuffle_bytes = (
            stats.num_data * DATA_RECORD_BYTES + copies * stats.avg_feature_bytes
        )
        # Per-cell reduce tasks: only cells holding at least one candidate
        # feature run (feature-free cells are skipped by the batch runner).
        data = stats.data_cell_counts
        reduce_costs = [
            self.model.reduce_task_cost(
                input_records=data.get(cell, 0) + count * dup,
                work_units=(
                    work.examined * count * dup
                    + work.pairs * count * dup * data.get(cell, 0)
                ),
            )
            for cell, count in stats.candidate_cells.items()
        ]
        # eSPQsco computes the Jaccard score in the map phase: once for
        # the shipped value of each kept feature, once per copy's key.
        map_work = copies + stats.num_candidates if algorithm == "espq-sco" else 0.0
        return self.model.compose(
            map_inputs,
            map_outputs,
            num_map_tasks,
            shuffle_bytes,
            reduce_costs,
            map_work_units=map_work,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _clamped_duplication(stats: QueryStatistics, scale: float) -> float:
        """Scaled duplication, kept in the feasible [1, num_cells] range."""
        return min(max(stats.duplication * scale, 1.0), float(stats.num_cells))
