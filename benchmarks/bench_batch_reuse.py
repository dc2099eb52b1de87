"""One execution path: batch == per-query == the raw record stream.

Until PR 23 this script timed the engine's two routes against each other --
per-query ``SPQEngine.execute`` streamed every record through ``map`` while
``execute_many`` ran on the index -- and gated the batch at >= 2x.  Every
distributed ``execute`` now runs through the index too, so that ratio is 1
by construction and the gate is re-aimed at what must hold instead:

* **identity**: ``execute_many``, per-query ``execute`` and the independent
  raw-stream oracle (``tests/raw_oracle.py``: every object through the
  per-record ``map``, no index) return the same ids and scores, and
* **no per-call tax**: on a warm engine, a loop of ``execute`` calls costs at
  most ``--max-ratio`` (1.15) times one ``execute_many`` over the same
  queries -- both use the cached index and the per-radius duplication
  lists, so anything more is overhead someone added to the single-query
  entry point.

The raw stream's time is reported for scale (it is what ``execute`` used to
cost) but gates nothing.  Run it as::

    PYTHONPATH=src python benchmarks/bench_batch_reuse.py
    python benchmarks/bench_batch_reuse.py --check   # exit 1 on a mismatch or a tax
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List

from _oracle import raw_execute
from repro.core.engine import SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.model.query import SpatialPreferenceQuery

DEFAULT_ALGORITHMS = ("espq-sco", "espq-len", "pspq")


def build_workload(
    num_queries: int, distinct_keyword_sets: int, keywords_per_query: int,
    radius: float, k: int, seed: int,
) -> List[SpatialPreferenceQuery]:
    """Repeated-keyword workload: ``num_queries`` queries cycling through a
    small pool of keyword sets, as produced by many users asking popular
    queries."""
    rng = random.Random(seed)
    pool = [
        frozenset(f"w{rng.randrange(1000):04d}" for _ in range(keywords_per_query))
        for _ in range(distinct_keyword_sets)
    ]
    return [
        SpatialPreferenceQuery.create(k=k, radius=radius, keywords=pool[i % len(pool)])
        for i in range(num_queries)
    ]


def _timed(run) -> tuple:
    """``(results, CPU seconds)``: the serial backend is single-threaded, and
    process time does not charge a shared box's stolen cycles to a side."""
    started = time.process_time()
    results = run()
    return results, time.process_time() - started


def run_once(
    data, features, queries, algorithm: str, grid_size: int, repeats: int
) -> Dict[str, object]:
    """Time per-query and batch execution on warm engines; verify identity."""
    oracle_engine = SPQEngine(data, features)
    raw, raw_seconds = _timed(lambda: [
        raw_execute(oracle_engine, query, algorithm, grid_size) for query in queries
    ])

    def per_query(engine):
        return [
            engine.execute(query, algorithm=algorithm, grid_size=grid_size)
            for query in queries
        ]

    def batched(engine):
        return engine.execute_many(queries, algorithm=algorithm, grid_size=grid_size)

    # One engine per side, warmed by an untimed first round (index build,
    # radius fill): what is timed is the per-call cost, which is what can
    # differ.  The fastest round counts and the sides swap places every
    # round, so neither a noisy neighbour nor going first decides the ratio.
    sides = [
        ("sequential", per_query, SPQEngine(data, features)),
        ("batch", batched, SPQEngine(data, features)),
    ]
    seconds = {"sequential": float("inf"), "batch": float("inf")}
    identical = True
    for round_index in range(repeats + 1):
        for name, run, engine in sides if round_index % 2 else reversed(sides):
            results, elapsed = _timed(lambda: run(engine))
            if round_index:
                seconds[name] = min(seconds[name], elapsed)
            identical = identical and all(
                r.object_ids() == mine.object_ids() and r.scores() == mine.scores()
                for r, mine in zip(raw, results)
            )
    sequential_seconds, batch_seconds = seconds["sequential"], seconds["batch"]
    return {
        "algorithm": algorithm,
        "num_queries": len(queries),
        "raw_seconds": raw_seconds,
        "sequential_seconds": sequential_seconds,
        "batch_seconds": batch_seconds,
        "ratio": sequential_seconds / batch_seconds if batch_seconds else float("inf"),
        "identical_results": identical,
        "index_cache": sides[1][2].index_cache_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=30_000)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--keyword-sets", type=int, default=5,
                        help="distinct keyword sets the workload cycles through")
    parser.add_argument("--keywords-per-query", type=int, default=1)
    parser.add_argument("--radius", type=float, default=2.0)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--grid-size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--algorithms", default=",".join(DEFAULT_ALGORITHMS),
                        help="comma-separated list to benchmark")
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per side (the fastest counts)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless batch, per-query and raw-oracle results "
                             "are identical and per-query stays within --max-ratio "
                             "of the batch")
    parser.add_argument("--max-ratio", type=float, default=1.15)
    args = parser.parse_args(argv)

    config = SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    data, features = generate_uniform(config)
    queries = build_workload(
        args.queries, args.keyword_sets, args.keywords_per_query,
        args.radius, args.k, args.seed,
    )

    algorithms = [name for name in args.algorithms.split(",") if name]
    runs = []
    print(f"workload: {len(queries)} queries over {args.keyword_sets} keyword sets, "
          f"{args.objects} objects, grid {args.grid_size}")
    print(f"{'algorithm':<10} {'raw':>8} {'per-query':>10} {'batch':>8} "
          f"{'ratio':>7}  identical")
    for algorithm in algorithms:
        run = run_once(
            data, features, queries, algorithm, args.grid_size, args.repeats
        )
        runs.append(run)
        print(f"{algorithm:<10} {run['raw_seconds']:>7.2f}s "
              f"{run['sequential_seconds']:>9.2f}s {run['batch_seconds']:>7.2f}s "
              f"{run['ratio']:>6.2f}x  {run['identical_results']}")

    summary = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "keyword_sets": args.keyword_sets,
            "keywords_per_query": args.keywords_per_query,
            "radius": args.radius,
            "k": args.k,
            "grid_size": args.grid_size,
            "seed": args.seed,
        },
        "runs": runs,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        if not all(run["identical_results"] for run in runs):
            print("FAIL: batch, per-query and raw-oracle results differ",
                  file=sys.stderr)
            return 1
        slow = [run for run in runs if run["ratio"] > args.max_ratio]
        for run in slow:
            print(
                f"FAIL: {run['algorithm']} per-query execute costs "
                f"{run['ratio']:.2f}x the batch, above {args.max_ratio}x",
                file=sys.stderr,
            )
        if slow:
            return 1
        print(f"OK: batch == per-query == raw oracle; per-query within "
              f"{max(run['ratio'] for run in runs):.2f}x of the batch "
              f"(<= {args.max_ratio}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
