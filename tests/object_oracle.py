"""The per-object reduce loops -- the oracle of the columnar reducers.

``repro.core.jobs`` reduces a cell over packed columns: the block's
memoized in-range rows for pSPQ and eSPQlen, a storage-order scan with a
closed-form ``score_computations`` for eSPQsco.  The loops those replaced
walk the cell's data objects one by one, as the paper's Algorithms 2-4
read; they live on here, each as the ``reduce`` of a subclass of its job.
Everything else -- map side, composite keys, routing -- is the production
job's, so the two differ in the reduce loop only, and the columnar loops are
held to these bit for bit: outputs, and counters in value and key-creation
order.

A preinjected :class:`DataBlock` is unpacked into the object list; from
there on nothing columnar is touched (``tests/test_object_oracle.py`` runs
these jobs with ``DataBlock.candidate_rows``, ``rows_within`` and
``oid_rows`` patched to raise).  Features arrive as ``(feature, score)``;
each loop rescores the feature from its keywords and holds the shipped
score to it (:func:`rescored`).

:func:`use_object_reducers` (the ``object_reducers`` fixture of
``tests/conftest.py``) selects them by patching
``repro.core.engine._JOB_CLASSES`` -- the table ``SPQEngine`` builds its jobs
from and ``tests/raw_oracle.py`` reads too -- so one patch swaps the reduce
loop of the index path and of the raw record stream alike.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Tuple

from repro.core.engine import _JOB_CLASSES
from repro.core.jobs import (
    EARLY_TERMINATIONS,
    FEATURES_EXAMINED,
    SCORE_COMPUTATIONS,
    SPQ_GROUP,
    WORK_GROUP,
    ESPQLenJob,
    ESPQScoJob,
    PSPQJob,
)
from repro.core.scoring import feature_contribution
from repro.index.columns import DataBlock
from repro.mapreduce.counters import Counters
from repro.model.objects import DataObject, FeatureObject
from repro.model.result import TopKList
from repro.text.similarity import non_spatial_score, upper_bound_for_length

#: The reduce loops a parametrized test can select (:func:`select_reduce_loop`).
REDUCE_LOOPS = ("columnar", "object")


def rescored(feature: FeatureObject, query, carried: float) -> float:
    """``w(f, q)`` recomputed from the keywords, held equal to the shipped score.

    Every job ships ``(feature, score)`` with a score the index computed
    from its postings; the oracle scores the feature itself, so a wrong
    score column cannot pass through both loops unseen.
    """
    score = non_spatial_score(feature.keywords, query.keywords)
    if score != carried:
        raise AssertionError(
            f"feature {feature.oid} shipped score {carried!r}, its keywords score {score!r}"
        )
    return score


class ObjectPSPQJob(PSPQJob):
    """pSPQ with the per-object nested loop of Algorithm 2."""

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        data_objects: List[DataObject] = []
        top = TopKList(self.query.k)
        examined = 0
        computations = 0
        range_mode = self.score_mode == "range"
        radius = self.query.radius
        for value in values:
            if value.__class__ is DataBlock:
                data_objects.extend(value.objs)
                continue
            if isinstance(value, DataObject):
                data_objects.append(value)
                continue
            feature, carried = value
            examined += 1
            score = rescored(feature, self.query, carried)
            if score <= top.threshold:
                continue
            computations += len(data_objects)
            if range_mode:
                for obj in data_objects:
                    if obj.within_distance(feature, radius):
                        top.offer(obj, score)
            else:
                for obj in data_objects:
                    contribution = feature_contribution(
                        obj, feature, self.query, self.score_mode
                    )
                    if contribution > 0.0:
                        top.offer(obj, contribution)
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return [(group, oid, score) for oid, score in top.ranked()]


class ObjectESPQLenJob(ESPQLenJob):
    """eSPQlen with the per-object loop of Algorithm 3."""

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        data_objects: List[DataObject] = []
        top = TopKList(self.query.k)
        query_len = self.query.keyword_count
        radius = self.query.radius
        examined = 0
        computations = 0
        for value in values:
            if value.__class__ is DataBlock:
                data_objects.extend(value.objs)
                continue
            if isinstance(value, DataObject):
                data_objects.append(value)
                continue
            feature, carried = value
            examined += 1
            bound = upper_bound_for_length(feature.keyword_count, query_len)
            tau = top.threshold
            if len(top) >= self.query.k and tau >= bound:
                counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
                break
            score = rescored(feature, self.query, carried)
            if score <= tau:
                continue
            computations += len(data_objects)
            for obj in data_objects:
                if obj.within_distance(feature, radius):
                    top.offer(obj, score)
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return [(group, oid, score) for oid, score in top.ranked()]


class ObjectESPQScoJob(ESPQScoJob):
    """eSPQsco with the per-object, count-every-test loop of Algorithm 4."""

    def reduce(
        self, group: int, values: Iterator[Any], counters: Counters
    ) -> Iterable[Tuple[int, str, float]]:
        data_objects: List[DataObject] = []
        reported: List[Tuple[int, str, float]] = []
        reported_ids: set = set()
        k = self.query.k
        radius = self.query.radius
        examined = 0
        computations = 0
        done = False
        for value in values:
            if value.__class__ is DataBlock:
                data_objects.extend(value.objs)
                continue
            if isinstance(value, DataObject):
                data_objects.append(value)
                continue
            feature, carried = value
            examined += 1
            score = rescored(feature, self.query, carried)
            if score <= 0.0:
                counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
                break
            for obj in data_objects:
                if obj.oid in reported_ids:
                    continue
                computations += 1
                if obj.within_distance(feature, radius):
                    reported.append((group, obj.oid, score))
                    reported_ids.add(obj.oid)
                    if len(reported) >= k:
                        counters.increment(SPQ_GROUP, EARLY_TERMINATIONS)
                        done = True
                        break
            if done:
                break
        if examined:
            counters.increment(WORK_GROUP, FEATURES_EXAMINED, examined)
        if computations:
            counters.increment(WORK_GROUP, SCORE_COMPUTATIONS, computations)
        return reported


#: Algorithm name -> oracle job class, keyed like ``_JOB_CLASSES``.
OBJECT_JOB_CLASSES = {
    "pspq": ObjectPSPQJob,
    "espq-len": ObjectESPQLenJob,
    "espq-sco": ObjectESPQScoJob,
}


def use_object_reducers(monkeypatch) -> None:
    """Make every job the engine or the raw oracle builds reduce per object."""
    for algorithm, job_class in OBJECT_JOB_CLASSES.items():
        monkeypatch.setitem(_JOB_CLASSES, algorithm, job_class)


def select_reduce_loop(monkeypatch, loop: str) -> None:
    """``"object"`` patches the oracle in; ``"columnar"`` keeps the product."""
    if loop not in REDUCE_LOOPS:
        raise ValueError(f"reduce loop must be one of {REDUCE_LOOPS}, got {loop!r}")
    if loop == "object":
        use_object_reducers(monkeypatch)
