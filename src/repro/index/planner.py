"""Batch query planner.

``SPQEngine.execute_many`` accepts a heterogeneous list of queries -- plain
:class:`~repro.model.query.SpatialPreferenceQuery` objects or
:class:`BatchQuery` wrappers carrying per-query overrides -- and must return
results in input order.  The planner resolves every item against the batch
defaults and orders execution so that queries sharing a grid size (one index)
and score mode run back to back, maximising index and radius-cache reuse even
with a small index cache.

``algorithm`` may be any :data:`~repro.core.engine.ALGORITHM_CHOICES` value,
including ``"auto"``, which the engine resolves per query
(:mod:`repro.planner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.exceptions import InvalidQueryError
from repro.model.query import SpatialPreferenceQuery


@dataclass(frozen=True)
class BatchQuery:
    """One batch item with optional per-query overrides.

    Unset fields fall back to the ``execute_many`` call's defaults.
    """

    query: SpatialPreferenceQuery
    algorithm: Optional[str] = None
    grid_size: Optional[int] = None
    score_mode: Optional[str] = None


@dataclass(frozen=True)
class PlannedQuery:
    """A fully resolved batch item, remembering its input position."""

    position: int
    query: SpatialPreferenceQuery
    algorithm: str
    grid_size: int
    score_mode: str

    @property
    def group_key(self) -> tuple:
        """Execution grouping key: ``(grid_size, score_mode, algorithm)``."""
        return (self.grid_size, self.score_mode, self.algorithm)


BatchItem = Union[SpatialPreferenceQuery, BatchQuery]


def plan_batch(
    items: Sequence[BatchItem],
    default_algorithm: str,
    default_grid_size: int,
    default_score_mode: str,
) -> List[PlannedQuery]:
    """Resolve and order a batch for execution.

    The returned plan is sorted by ``(grid_size, score_mode, algorithm)``
    with a stable tie-break on input position; callers map results back to
    input order through :attr:`PlannedQuery.position`.
    """
    planned: List[PlannedQuery] = []
    for position, item in enumerate(items):
        if isinstance(item, BatchQuery):
            query = item.query
            # "is not None" rather than falsy-or: an explicit (invalid)
            # override like grid_size=0 must be rejected, not silently
            # replaced by the default.
            algorithm = item.algorithm if item.algorithm is not None else default_algorithm
            grid_size = item.grid_size if item.grid_size is not None else default_grid_size
            score_mode = item.score_mode if item.score_mode is not None else default_score_mode
        elif isinstance(item, SpatialPreferenceQuery):
            query = item
            algorithm = default_algorithm
            grid_size = default_grid_size
            score_mode = default_score_mode
        else:
            raise InvalidQueryError(
                f"batch item {position} must be a SpatialPreferenceQuery or "
                f"BatchQuery, got {type(item).__name__}"
            )
        if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 1:
            raise InvalidQueryError(
                f"batch item {position}: grid_size must be a positive integer, "
                f"got {grid_size!r}"
            )
        planned.append(
            PlannedQuery(
                position=position,
                query=query,
                algorithm=algorithm,
                grid_size=grid_size,
                score_mode=score_mode,
            )
        )
    planned.sort(key=lambda entry: (entry.group_key, entry.position))
    return planned
