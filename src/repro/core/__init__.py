"""Core contribution of the paper: parallel/distributed SPQ processing.

Public API:

* :class:`~repro.core.engine.SPQEngine` -- runs a spatial preference query
  using keywords over (data, feature) datasets with any of the paper's three
  algorithms (``pSPQ``, ``eSPQlen``, ``eSPQsco``) on the simulated MapReduce
  substrate, or with the centralized oracle used for correctness checks.
* The individual MapReduce job classes in :mod:`repro.core.jobs`.

The Section 6 analysis helpers and the r-tree baseline are paper
reproduction, not query processing: :mod:`repro.paper.analysis`,
:mod:`repro.paper.indexed_baseline`.
"""

from repro.core.centralized import CentralizedSPQ
from repro.core.engine import ALGORITHMS, EngineConfig, SPQEngine
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob
from repro.core.scoring import compute_score, rank_objects

__all__ = [
    "SPQEngine",
    "EngineConfig",
    "ALGORITHMS",
    "CentralizedSPQ",
    "PSPQJob",
    "ESPQLenJob",
    "ESPQScoJob",
    "compute_score",
    "rank_objects",
]
