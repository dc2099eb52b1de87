#!/usr/bin/env python
"""Milliseconds per query in the layers a query's CPU goes through.

Builds one ``BENCHMARK.json`` workload's dataset and read stream exactly as
the benchmark does (``benchmarks/e2e/inputs.py``, read-only), replays the
reads on in-process ``SPQEngine`` s and prints, per timed layer, its total
time divided by the number of queries answered::

    python tools/profile_layers.py engine_auto_batch
    python tools/profile_layers.py engine_fixed --queries 48 --seed 2713
    python tools/profile_layers.py cluster_scatter_rw

A workload with a ``cluster`` shard count in ``config.json`` is replayed the
way its nodes serve it: the data partitioned as every shard node partitions
it (``partition_datasets``, unbounded replication), one engine per
data-bearing shard over the full extent and scoped to its shard box, every
read run on each of them; each layer is summed over the shard engines.

Batched reads run as one ``execute_many(auto)``, reads that name an
algorithm run it, every other read runs ``execute(auto)``; write bursts are
skipped (the serving workloads are replayed read-only).  Each layer is timed
by wrapping the function with ``perf_counter`` for the whole run -- not
cProfile, whose per-call hook inflates the many-small-calls reducers about
twice over.  Layers nest: ``DataBlock.rows_within`` (the pSPQ / eSPQlen
in-range rows: memo misses compute them, hits are a dict look-up) runs
inside those two reduces, and every reduce inside the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
sys.path[:0] = [str(ROOT / "src"), str(E2E)]

#: label -> (module, attribute path) of every timed function.
LAYERS: List[Tuple[str, str, str]] = [
    ("index.prepare", "repro.index.dataset_index", "DatasetIndex.prepare"),
    ("map_split", "repro.core.jobs", "_SPQJobBase.map_split"),
    ("reduce pspq", "repro.core.jobs", "PSPQJob.reduce"),
    ("reduce espq-len", "repro.core.jobs", "ESPQLenJob.reduce"),
    ("reduce espq-sco", "repro.core.jobs", "ESPQScoJob.reduce"),
    ("DataBlock.rows_within", "repro.index.columns", "DataBlock.rows_within"),
    ("engine _merge", "repro.core.engine", "SPQEngine._merge"),
    ("planner collect", "repro.planner.core", "QueryPlanner.collect"),
    ("planner decide", "repro.planner.core", "QueryPlanner.decide"),
    ("CostModel.estimate", "repro.mapreduce.costmodel", "CostModel.estimate"),
]


def workload_sizes(workload: str) -> Dict[str, object]:
    """The workload's constants, as ``benchmarks/e2e/runner.py`` merges them."""
    with open(E2E / "config.json", "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if workload not in config["workloads"]:
        known = ", ".join(sorted(config["workloads"]))
        raise SystemExit(f"unknown workload {workload!r} (one of {known})")
    sizes = dict(config["common"])
    sizes.update(config["workloads"][workload])
    return sizes


def install_timers(totals: Dict[str, float]) -> None:
    """Wrap every layer function so its calls add wall time to ``totals``."""
    clock = time.perf_counter
    for label, module_name, path in LAYERS:
        owner, attribute = path.split(".")
        cls = getattr(importlib.import_module(module_name), owner)
        original = cls.__dict__[attribute]
        totals[label] = 0.0

        def timed(*args, __original=original, __label=label, **kwargs):
            started = clock()
            try:
                return __original(*args, **kwargs)
            finally:
                totals[__label] += clock() - started

        setattr(cls, attribute, functools.wraps(original)(timed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2713)
    parser.add_argument("--queries", type=int, default=96, help="queries to time")
    parser.add_argument(
        "--warmup", type=int, default=8, help="untimed queries first (index builds)"
    )
    args = parser.parse_args(argv)

    from inputs import OpStream, make_dataset
    from targets import default_radius, engine_config, make_query
    from repro.core.engine import SPQEngine
    from repro.sharding import partition_datasets

    sizes = workload_sizes(args.workload)
    dataset = make_dataset(
        str(sizes["dataset"]), int(sizes["objects"]), int(sizes["dataset_seed"])
    )
    shards = int(sizes.get("cluster", 0))
    if shards:
        plan = partition_datasets(*dataset, shards)
        engines = [
            SPQEngine(shard.data_objects, shard.feature_objects, engine_config(sizes),
                      extent=plan.extent, scope=shard.box)
            for shard in plan.shards
            if not shard.is_empty
        ]
    else:
        engines = [SPQEngine(*dataset, engine_config(sizes))]
    radius = default_radius(engines[0], sizes)
    stream = OpStream(args.workload, sizes, args.seed, dataset)

    def reads():
        block = 0
        while True:
            yield from stream.block(block).reads
            block += 1

    def run(op) -> int:
        if isinstance(op, list):
            queries = [make_query(spec, radius) for spec in op]
            for engine in engines:
                engine.execute_many(queries, algorithm="auto")
            return len(queries)
        query = make_query(op, radius)
        for engine in engines:
            engine.execute(query, algorithm=op.get("algorithm", "auto"))
        return 1

    ops = reads()
    warm = 0
    while warm < args.warmup:
        warm += run(next(ops))
    totals: Dict[str, float] = {}
    install_timers(totals)
    answered = 0
    started = time.perf_counter()
    while answered < args.queries:
        answered += run(next(ops))
    elapsed = time.perf_counter() - started

    sharded = f"  {len(engines)} shard engines" if shards else ""
    print(f"{args.workload}  seed {args.seed}  {answered} queries (reads only){sharded}")
    print(f"  {'end to end':<22} {1000.0 * elapsed / answered:8.3f} ms/query")
    for label, _, _ in LAYERS:
        print(f"  {label:<22} {1000.0 * totals[label] / answered:8.3f} ms/query")
    for engine in engines:
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
