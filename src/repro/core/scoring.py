"""Scoring primitives: ``tau(p)``, exhaustive ranking and score variants.

``tau(p) = max { w(f, q) : f in F, dist(p, f) <= r }`` (Definition 2).  A data
object with no feature object inside its ``r``-neighbourhood, or only features
with zero textual relevance, has score 0 -- it can still appear in the top-k
when fewer than ``k`` objects have positive scores, which matches the paper's
definition (every data object is a potential result).

Besides the paper's *range* score, this module implements the two additional
spatial preference score variants from the centralized lineage work the paper
builds on (Yiu et al., Tsatsanifos & Vlachou): the *influence* score, where a
feature's contribution decays exponentially with its distance
(``w(f,q) * 2^(-dist(p,f)/r)``), and the *nearest-neighbour* score, where only
the feature closest to ``p`` determines the score.  They are exposed as
engine extensions (see :class:`repro.core.engine.SPQEngine`); the distributed
early-termination algorithms of the paper are defined for the range score
only, while ``pSPQ`` remains applicable to all three (its threshold check uses
``w(f, q)``, an upper bound on every variant's contribution).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Sequence

from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import ScoredObject
from repro.spatial.geometry import candidate_halfwidth
from repro.text.similarity import JaccardScorer, non_spatial_score

#: Supported score variants.
SCORE_MODES = ("range", "influence", "nearest")


def feature_contribution(
    obj: DataObject,
    feature: FeatureObject,
    query: SpatialPreferenceQuery,
    mode: str = "range",
) -> float:
    """Contribution of a single feature object to ``tau(obj)`` under a variant.

    * ``"range"``     -- ``w(f, q)`` if ``dist <= r`` else 0 (the paper).
    * ``"influence"`` -- ``w(f, q) * 2^(-dist / r)`` if ``dist <= r`` else 0
      (truncated influence: the exponential decay of the classic influence
      score, cut off at the query radius so the grid partitioning of Lemma 1
      remains exact for the distributed algorithms).
    * ``"nearest"``   -- handled by :func:`compute_score` (needs the arg-min
      over all features); per-feature it equals the range contribution.

    Raises:
        ValueError: for an unknown mode or, for "influence", a zero radius.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}; expected one of {SCORE_MODES}")
    # Distance before text: the range test is a few float operations, the
    # Jaccard score bisects the keyword tuple, and most pairs are out of range.
    if not obj.within_distance(feature, query.radius):
        return 0.0
    textual = non_spatial_score(feature.keywords, query.keywords)
    if textual == 0.0:
        return 0.0
    if mode == "influence":
        if query.radius <= 0:
            raise ValueError("influence score requires a positive radius")
        return textual * 2.0 ** (-obj.distance_to(feature) / query.radius)
    return textual


def compute_score(
    obj: DataObject,
    features: Iterable[FeatureObject],
    query: SpatialPreferenceQuery,
    mode: str = "range",
) -> float:
    """Exhaustively compute ``tau(obj)`` against the given feature objects."""
    if mode == "nearest":
        nearest = None
        nearest_distance = float("inf")
        for feature in features:
            distance = obj.distance_to(feature)
            if distance < nearest_distance:
                nearest_distance = distance
                nearest = feature
        if nearest is None or nearest_distance > query.radius:
            return 0.0
        return non_spatial_score(nearest.keywords, query.keywords)
    best = 0.0
    for feature in features:
        contribution = feature_contribution(obj, feature, query, mode)
        if contribution > best:
            best = contribution
    return best


def rank_objects(
    data_objects: Sequence[DataObject],
    features: Sequence[FeatureObject],
    query: SpatialPreferenceQuery,
    mode: str = "range",
) -> List[ScoredObject]:
    """Rank every data object by ``tau`` and return the global top-k.

    This is the O(|O| * |F|) nested loop; it serves as the correctness oracle
    for the distributed algorithms and as the per-cell computation of pSPQ.

    The "range" and "influence" variants take a columnar fast path: textual
    scores are computed once per feature (not once per pair), zero-relevance
    features are dropped, and the survivors are x-sorted so each data object
    only runs the exact squared-distance test against features inside a
    provably-superset x-window
    (:func:`~repro.spatial.geometry.candidate_halfwidth`).  Both variants
    take a *maximum* over per-feature contributions, which is independent of
    visit order, so results are bit-for-bit those of the nested loop.  The
    "nearest" variant's arg-min is order-sensitive and keeps the plain loop.
    """
    if mode not in ("range", "influence") or not data_objects:
        scored = [
            ScoredObject(obj, compute_score(obj, features, query, mode))
            for obj in data_objects
        ]
        scored.sort()
        return scored[: query.k]

    scorer = JaccardScorer(query.keywords)
    relevant: List[tuple] = []
    for feature in features:
        textual = scorer.score(feature.keywords)
        if textual != 0.0:
            relevant.append((feature.x, feature.y, textual))
    relevant.sort()
    feature_xs = [entry[0] for entry in relevant]
    radius = query.radius
    squared_radius = radius * radius
    influence = mode == "influence"

    scored = []
    for obj in data_objects:
        best = 0.0
        if relevant:
            ox = obj.x
            oy = obj.y
            window = candidate_halfwidth(radius, abs(ox) + radius)
            low = bisect_left(feature_xs, ox - window)
            high = bisect_right(feature_xs, ox + window)
            for i in range(low, high):
                fx, fy, textual = relevant[i]
                dx = ox - fx
                dy = oy - fy
                squared = dx * dx + dy * dy
                if squared <= squared_radius:
                    if influence:
                        if radius <= 0:
                            raise ValueError(
                                "influence score requires a positive radius"
                            )
                        contribution = textual * 2.0 ** (-(squared**0.5) / radius)
                    else:
                        contribution = textual
                    if contribution > best:
                        best = contribution
        scored.append(ScoredObject(obj, best))
    scored.sort()
    return scored[: query.k]
