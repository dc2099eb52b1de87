"""Cost-based adaptive query planner (``algorithm="auto"``).

See :mod:`repro.planner.core` for the full story: an a-priori cost
estimator over :class:`~repro.index.dataset_index.DatasetIndex` statistics
(:mod:`repro.planner.estimator`) plus a bounded-memory calibration loop
(:mod:`repro.planner.calibration`), owned by each
:class:`~repro.core.engine.SPQEngine` and exposed through
``algorithm="auto"`` at every layer (engine, batch API, CLI).
"""

from repro.planner.calibration import Calibrator, signature_of
from repro.planner.persistence import (
    CALIBRATION_FORMAT,
    CALIBRATION_VERSION,
    load_calibration,
    restore_calibration,
    save_calibration,
    scoped_calibration_path,
    try_restore_calibration,
)
from repro.planner.core import (
    AUTO_ALGORITHM,
    PlannerConfig,
    PlannerDecision,
    QueryPlanner,
)
from repro.planner.estimator import (
    DEFAULT_WORK_FACTORS,
    PLANNED_ALGORITHMS,
    CostEstimator,
    QueryStatistics,
    WorkFactors,
    collect_statistics,
)

__all__ = [
    "AUTO_ALGORITHM",
    "CALIBRATION_FORMAT",
    "CALIBRATION_VERSION",
    "Calibrator",
    "CostEstimator",
    "DEFAULT_WORK_FACTORS",
    "PLANNED_ALGORITHMS",
    "PlannerConfig",
    "PlannerDecision",
    "QueryPlanner",
    "QueryStatistics",
    "WorkFactors",
    "collect_statistics",
    "load_calibration",
    "restore_calibration",
    "save_calibration",
    "scoped_calibration_path",
    "signature_of",
    "try_restore_calibration",
]
