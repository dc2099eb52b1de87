"""``algorithm="auto"``: eSPQsco, the measured answer (see :mod:`repro.planner.core`)."""

from repro.planner.core import AUTO_ALGORITHM, AUTO_CHOICE, QueryPlanner

__all__ = ["AUTO_ALGORITHM", "AUTO_CHOICE", "QueryPlanner"]
