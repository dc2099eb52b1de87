"""The raw record stream -- a test oracle beside ``centralized``.

Until PR 23 ``SPQEngine.execute`` had a second route for a fixed algorithm:
every data and feature object, in storage order, through the per-record
``job.map``, no index anywhere.  The engine now runs every distributed
query through the :class:`~repro.index.dataset_index.DatasetIndex`; the old
route lives on here, outside ``src/``, as the *independent* reference the
identity tests and bench gates compare the index path against -- an
``engine.execute`` on that side would be the index path compared with
itself.

:func:`raw_execute` is deliberately dumb: the materialised storage-order
stream (surviving base objects, then delta appends -- the input a bulk swap
of the final state would serve) fed to ``LocalJobRunner.run(job, records)``,
a per-cell merge, the cost model.  It never builds, fetches or reads an
index (``tests/test_raw_oracle.py`` runs it with ``DatasetIndex.prepare``
patched to raise) and shares no code with ``SPQEngine._execute_planned``
beyond the job classes, the runner and the cost model it is the oracle *of
the map side* for.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.engine import _JOB_CLASSES, validate_algorithm_combination
from repro.index.delta import materialize
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.runtime import LocalJobRunner
from repro.model.objects import DataObject
from repro.model.result import QueryResult, ScoredObject, merge_top_k

#: Reduce-side ingest counters.  The index path *skips* a reduce task no
#: feature reached (``reduce.tasks_skipped``; such a task reduces to nothing),
#: so the data objects of those cells are never ingested there, while the raw
#: stream runs every non-empty partition.
REDUCE_INGEST = ("input_groups", "input_records", "consumed_records")


def raw_execute(
    engine,
    query,
    algorithm: str = "espq-sco",
    grid_size: Optional[int] = None,
    score_mode: str = "range",
) -> QueryResult:
    """``query`` over ``engine``'s datasets (base + live delta), no index.

    Returns a :class:`QueryResult` whose ``stats`` carry the keys
    ``SPQEngine`` reports (minus the ``index`` / planner subtrees), so
    counters and the simulated breakdown can be compared key for key.
    """
    validate_algorithm_combination(algorithm, score_mode)
    data, features = materialize(
        engine.data_objects, engine.feature_objects, engine.delta.snapshot()
    )
    grid = engine.build_grid(grid_size)
    # The engine's own table, read per call: the ``object_reducers`` fixture
    # patches it, so both references run the same reduce loop.
    job_class = _JOB_CLASSES[algorithm]
    if algorithm == "pspq":
        job = job_class(query, grid, score_mode=score_mode)
    else:
        job = job_class(query, grid)
    runner = LocalJobRunner(num_reducers=grid.num_cells)
    started = time.perf_counter()
    job_result = runner.run(job, chain(data, features))
    elapsed = time.perf_counter() - started

    by_oid = {obj.oid: obj for obj in data}
    by_cell: Dict[int, List[ScoredObject]] = {}
    for cell_id, oid, score in job_result.outputs:
        by_cell.setdefault(cell_id, []).append(ScoredObject(by_oid[oid], score))
    entries = merge_top_k(by_cell.values(), query.k)

    counters = job_result.counters
    breakdown = CostModel().estimate(job_result)
    return QueryResult(entries, stats={
        "algorithm": job.name,
        "grid_size": grid.cells_x,
        "num_cells": grid.num_cells,
        "wall_seconds": elapsed,
        "simulated_seconds": breakdown.total,
        "simulated_breakdown": breakdown.as_dict(),
        "counters": counters.as_dict(),
        "num_map_tasks": job_result.num_map_tasks,
        "num_reduce_tasks": job_result.num_reduce_tasks,
        "shuffled_records": job_result.total_shuffle_records(),
        "shuffled_bytes": job_result.total_shuffle_bytes(),
        "features_examined": counters.get("work", "features_examined"),
        "score_computations": counters.get("work", "score_computations"),
        "feature_duplicates": counters.get("spq", "feature_duplicates"),
        "features_pruned": counters.get("spq", "features_pruned"),
    })


def reference_execute(
    engine,
    query,
    algorithm: str = "espq-sco",
    grid_size: Optional[int] = None,
    score_mode: str = "range",
) -> QueryResult:
    """The reference answer for a request whose algorithm the caller chose.

    The three MapReduce algorithms go through :func:`raw_execute`;
    ``centralized`` is its own oracle and ``auto`` never had a raw route (it
    plans on the index), so those two are the engine's own answer.
    """
    if algorithm in ("centralized", "auto"):
        return engine.execute(query, algorithm, grid_size, score_mode)
    return raw_execute(engine, query, algorithm, grid_size, score_mode)


def zero_score_padding(
    reported: Iterable[str], k: int, live_data: Sequence[DataObject]
) -> List[DataObject]:
    """The data objects that pad the ``reported`` oids to ``k`` at score 0.0.

    The distributed algorithms, like the paper's, report only positively
    scored objects, while the centralized oracle returns exactly ``k``.
    ``live_data`` is the live storage order -- surviving base objects, then
    every append, a re-appended oid included (``materialize_datasets()``)
    -- so an engine with a write delta pads with the objects a bulk-swapped
    engine would.
    """
    present = set(reported)
    missing = max(0, k - len(present))
    return [obj for obj in live_data if obj.oid not in present][:missing]


def padded(result: QueryResult, k: int, live_data: Sequence[DataObject]) -> QueryResult:
    """``result`` with :func:`zero_score_padding` appended at score 0.0."""
    padding = zero_score_padding(result.object_ids(), k, live_data)
    entries = list(result.entries) + [ScoredObject(obj, 0.0) for obj in padding]
    return QueryResult(entries, stats=result.stats)


def assert_same_work(stats: dict, raw_stats: dict) -> None:
    """``stats`` (an engine result's) counts the work ``raw_stats`` counts.

    Every counter is equal except the ones that say how much input was
    *read*: ``map.input_records`` (every record vs data + candidates),
    ``reduce.tasks_skipped`` (index path only) and, by exactly the records
    of the skipped data-only tasks, :data:`REDUCE_INGEST`.
    """
    mine = {group: dict(names) for group, names in stats["counters"].items()}
    raw = {group: dict(names) for group, names in raw_stats["counters"].items()}
    assert mine["map"].pop("input_records") <= raw["map"].pop("input_records")
    skipped_tasks = mine["reduce"].pop("tasks_skipped")
    unread = {
        name: raw["reduce"].pop(name, 0) - mine["reduce"].pop(name, 0)
        for name in REDUCE_INGEST
    }
    assert 0 <= unread["input_groups"] <= skipped_tasks
    assert unread["input_records"] == unread["consumed_records"] >= 0
    assert (unread["input_groups"] == 0) == (unread["input_records"] == 0)
    assert mine == raw
    for key in ("shuffled_records", "shuffled_bytes", "features_examined",
                "score_computations", "feature_duplicates", "features_pruned",
                "num_reduce_tasks"):
        assert stats[key] == raw_stats[key], key
    for term in ("startup", "shuffle"):
        assert (
            stats["simulated_breakdown"][term]
            == raw_stats["simulated_breakdown"][term]
        ), term
    if not unread["input_groups"]:
        assert (
            stats["simulated_breakdown"]["reduce"]
            == raw_stats["simulated_breakdown"]["reduce"]
        )
