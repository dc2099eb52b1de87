"""Theoretical results of Section 6: duplication factor and cell-size cost.

* ``duplication_factor(a, r) = pi*r^2/a^2 + 4*r/a + 1`` -- expected number of
  copies per feature object under a uniform distribution (Section 6.2).
* its maximum value ``3 + pi/4`` is reached at ``a = 2r``.
* ``reducer_cost_model(a, r) = df(a, r) * a^4`` -- the quantity proportional to
  the per-reducer processing cost ``|Oi| * |Fi|`` in the normalised
  ``[0,1] x [0,1]`` space (Section 6.3); it is increasing in ``a``, which is
  the paper's argument for preferring smaller cells (more parallelism).
"""

from __future__ import annotations

import math

from repro.exceptions import AnalysisError


def _validate(cell_side: float, radius: float) -> None:
    if cell_side <= 0:
        raise AnalysisError(f"cell side must be > 0, got {cell_side}")
    if radius < 0:
        raise AnalysisError(f"radius must be >= 0, got {radius}")
    if radius > cell_side / 2.0:
        raise AnalysisError(
            f"the analysis assumes r <= a/2 (got r={radius}, a={cell_side})"
        )


def duplication_factor(cell_side: float, radius: float) -> float:
    """Expected duplication factor ``df`` for uniformly distributed features.

    ``df = pi*r^2/a^2 + 4*r/a + 1`` under the standing assumption ``r <= a/2``.
    """
    _validate(cell_side, radius)
    ratio = radius / cell_side
    return math.pi * ratio * ratio + 4.0 * ratio + 1.0


def max_duplication_factor() -> float:
    """Worst-case ``df`` = ``3 + pi/4``, attained at ``a = 2r``."""
    return 3.0 + math.pi / 4.0


def reducer_cost_model(cell_side: float, radius: float) -> float:
    """``df(a, r) * a^4``: per-reducer cost in the normalised space (Section 6.3).

    Expanding the expression gives ``pi*r^2*a^2 + 4*r*a^3 + a^4``, which is
    strictly increasing in ``a`` for fixed ``r`` -- smaller cells mean cheaper
    reducers (and more of them).
    """
    _validate(cell_side, radius)
    return duplication_factor(cell_side, radius) * cell_side ** 4


def optimal_relative_cell_size(radius: float, min_ratio: float = 2.0, max_ratio: float = 64.0,
                               steps: int = 1000) -> float:
    """Cell side minimising the per-reducer cost subject to ``a >= min_ratio * r``.

    Section 6.3 concludes the cost is monotone in ``a``, so the optimum under
    the ``a >= 2r`` constraint is simply ``a = 2r``; this helper performs the
    sweep numerically (useful for sanity checks and the ablation benchmark).

    Raises:
        AnalysisError: if the radius is not positive.
    """
    if radius <= 0:
        raise AnalysisError(f"radius must be > 0, got {radius}")
    if min_ratio < 2.0:
        raise AnalysisError("min_ratio below 2 violates the r <= a/2 assumption")
    best_side = min_ratio * radius
    best_cost = reducer_cost_model(best_side, radius)
    for step in range(1, steps + 1):
        ratio = min_ratio + (max_ratio - min_ratio) * step / steps
        side = ratio * radius
        cost = reducer_cost_model(side, radius)
        if cost < best_cost:
            best_cost = cost
            best_side = side
    return best_side


def expected_shuffled_features(num_features: int, cell_side: float, radius: float) -> float:
    """Expected number of feature-object copies shuffled for a uniform dataset."""
    if num_features < 0:
        raise AnalysisError(f"num_features must be >= 0, got {num_features}")
    return num_features * duplication_factor(cell_side, radius)
