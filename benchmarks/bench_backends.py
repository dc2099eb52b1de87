"""Execution-backend equivalence + speedup benchmark.

Runs the same multi-query workload through the pluggable execution backends
(``serial``, ``process``) and

1. **asserts bit-for-bit result equality first**: object ids, scores, work
   counters and the cost model's ``simulated_seconds`` must match the serial
   reference exactly for every backend, and
2. reports the wall-clock speedup of each backend over serial.

``--check`` exits non-zero when results differ, and -- on a multi-core
machine -- when the process backend's speedup falls below ``--min-speedup``
(default 1.5x).  On a single-core machine (where a process pool cannot beat
serial execution by construction) the speedup gate is skipped and only the
equality gate applies.  Run it as::

    PYTHONPATH=src python benchmarks/bench_backends.py
    python benchmarks/bench_backends.py --check          # CI gate

The workload defaults (40,000 objects, grid 6, four 6-keyword pSPQ queries
at k=30) make reduce-side compute dominate the shuffle serialization, which
is what the process backend parallelises.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Sequence

from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.execution import default_worker_count
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import QueryResult

#: Stats keys that must be identical across backends (wall time and the
#: backend identity itself legitimately differ).
COMPARED_STATS = (
    "simulated_seconds",
    "counters",
    "num_map_tasks",
    "num_reduce_tasks",
    "shuffled_records",
    "shuffled_bytes",
    "features_examined",
    "score_computations",
)


def build_workload(
    num_queries: int, keywords_per_query: int, radius: float, k: int, seed: int
) -> List[SpatialPreferenceQuery]:
    rng = random.Random(seed)
    return [
        SpatialPreferenceQuery.create(
            k=k,
            radius=radius,
            keywords=frozenset(
                f"w{rng.randrange(1000):04d}" for _ in range(keywords_per_query)
            ),
        )
        for _ in range(num_queries)
    ]


def fingerprint(results: Sequence[QueryResult]) -> List[Dict[str, object]]:
    """Everything that must be identical across backends, per query."""
    return [
        {
            "oids": result.object_ids(),
            "scores": result.scores(),
            **{key: result.stats.get(key) for key in COMPARED_STATS},
        }
        for result in results
    ]


def run_backend(
    data, features, queries, algorithm: str, grid_size: int,
    backend: str, workers: int, warmup: int,
) -> Dict[str, object]:
    """Time one backend on the workload (after ``warmup`` untimed rounds)."""
    config = EngineConfig(backend=backend, workers=workers if backend != "serial" else 1)
    with SPQEngine(data, features, config=config) as engine:
        for _ in range(warmup):
            engine.execute_many(queries, algorithm=algorithm, grid_size=grid_size)
        started = time.perf_counter()
        results = engine.execute_many(queries, algorithm=algorithm, grid_size=grid_size)
        seconds = time.perf_counter() - started
    return {
        "backend": backend,
        "workers": config.workers,
        "seconds": seconds,
        "fingerprint": fingerprint(results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=40_000)
    parser.add_argument("--queries", type=int, default=4,
                        help="workload size (the issue gate requires >= 4)")
    parser.add_argument("--keywords-per-query", type=int, default=6)
    parser.add_argument("--radius", type=float, default=6.0)
    parser.add_argument("--k", type=int, default=30)
    parser.add_argument("--grid-size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--algorithm", default="pspq")
    parser.add_argument("--backends", default="serial,process",
                        help="comma-separated backends to benchmark (serial is "
                             "always run first as the reference)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the parallel backends "
                             "(default: CPU count, capped at 8)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed rounds per backend (pool start-up, index "
                             "build and shuffle-blob caching)")
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless all backends match serial exactly and "
                             "(on a multi-core machine) the process backend "
                             "reaches --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--min-cores", type=int, default=2,
                        help="skip the speedup gate below this many CPUs")
    args = parser.parse_args(argv)

    workers = args.workers or default_worker_count()
    cpus = os.cpu_count() or 1
    config = SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    data, features = generate_uniform(config)
    queries = build_workload(
        args.queries, args.keywords_per_query, args.radius, args.k, args.seed
    )

    backends = [name for name in args.backends.split(",") if name]
    if "serial" in backends:
        backends.remove("serial")
    backends.insert(0, "serial")

    print(f"workload: {len(queries)} x {args.algorithm} queries "
          f"(k={args.k}, {args.keywords_per_query} keywords, r={args.radius}) over "
          f"{args.objects} objects, grid {args.grid_size}; "
          f"{workers} workers on {cpus} CPU(s)")
    print(f"{'backend':<9} {'workers':>7} {'seconds':>8} {'speedup':>8}  identical")

    runs = []
    reference = None
    for backend in backends:
        run = run_backend(
            data, features, queries, args.algorithm, args.grid_size,
            backend, workers, args.warmup,
        )
        if reference is None:
            reference = run
            run["identical"] = True
            run["speedup"] = 1.0
        else:
            run["identical"] = run["fingerprint"] == reference["fingerprint"]
            run["speedup"] = (
                reference["seconds"] / run["seconds"] if run["seconds"] else float("inf")
            )
        runs.append(run)
        print(f"{run['backend']:<9} {run['workers']:>7} {run['seconds']:>7.2f}s "
              f"{run['speedup']:>7.2f}x  {run['identical']}")

    summary = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "keywords_per_query": args.keywords_per_query,
            "radius": args.radius,
            "k": args.k,
            "grid_size": args.grid_size,
            "seed": args.seed,
            "algorithm": args.algorithm,
        },
        "cpus": cpus,
        "runs": [
            {key: value for key, value in run.items() if key != "fingerprint"}
            for run in runs
        ],
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        # Equality gates first: a fast wrong answer must never pass.
        broken = [run["backend"] for run in runs if not run["identical"]]
        if broken:
            print(f"FAIL: backends {broken} differ from the serial reference",
                  file=sys.stderr)
            return 1
        process_runs = [run for run in runs if run["backend"] == "process"]
        if not process_runs:
            print("FAIL: --check requires the process backend in --backends",
                  file=sys.stderr)
            return 1
        if cpus < args.min_cores:
            print(f"OK: all backends identical; speedup gate skipped on a "
                  f"{cpus}-CPU machine (needs >= {args.min_cores})")
            return 0
        speedup = process_runs[0]["speedup"]
        if speedup < args.min_speedup:
            print(f"FAIL: process backend speedup {speedup:.2f}x below required "
                  f"{args.min_speedup}x on {cpus} CPUs", file=sys.stderr)
            return 1
        print(f"OK: all backends identical, process speedup {speedup:.2f}x "
              f">= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
