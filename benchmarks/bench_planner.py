"""Adaptive-planner quality benchmark: ``auto`` vs. the per-query oracle.

Builds a *mixed* workload -- uniform and clustered datasets, varied radius,
keyword count/selectivity, ``k`` and grid size, i.e. exactly the regime where
the paper shows no fixed algorithm wins everywhere -- and measures the total
simulated job cost of four strategies:

* ``auto``     -- the cost-based planner picks per query (after a short
  calibration warmup on a disjoint workload from the same distribution);
* ``pspq`` / ``espq-len`` / ``espq-sco`` -- always the same algorithm;
* ``oracle``   -- the per-query minimum over the three fixed algorithms
  (computable offline because every query is run with every algorithm).

``--check`` exits non-zero unless

1. every ``auto`` result is bit-for-bit identical to the fixed run of the
   algorithm the planner chose (planning must never change answers),
2. ``auto``'s total simulated cost is within ``--max-overhead`` (default
   10%) of the oracle total, and
3. ``auto`` is strictly cheaper than the *worst* fixed strategy.

Run it as::

    PYTHONPATH=src python benchmarks/bench_planner.py
    python benchmarks/bench_planner.py --check          # CI gate
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from typing import Dict, List, Sequence, Tuple

from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.index.planner import BatchQuery
from repro.model.query import SpatialPreferenceQuery
from repro.planner import PLANNED_ALGORITHMS

#: The workload mixes these parameter axes (cycled, not crossed, so the
#: workload size stays linear while every axis still varies).  The mix
#: deliberately includes the k=1 / large-radius / fine-grid regime where
#: eSPQlen genuinely beats eSPQsco (whose map phase pays per-copy score
#: computations) next to the regimes eSPQsco dominates -- the flip the
#: paper reports and the planner exists to catch.
RADII = (1.0, 2.5, 6.0, 12.0, 25.0)
KEYWORD_COUNTS = (1, 2, 4, 8)
KS = (1, 10, 1, 50)
GRID_SIZES = (10, 30)


def build_workload(
    num_queries: int, vocabulary_size: int, seed: int
) -> List[BatchQuery]:
    """A seeded mixed workload over the synthetic vocabulary.

    Keyword choice mixes selectivities: low ids are as frequent as any
    (keywords are sampled uniformly by the generators), but drawing from a
    narrow id band concentrates the candidate set while the full band
    spreads it; a couple of queries use out-of-vocabulary keywords so the
    zero-candidate path is part of the measured mix.
    """
    rng = random.Random(seed)
    axes = zip(
        itertools.cycle(RADII),
        itertools.cycle(KEYWORD_COUNTS),
        itertools.cycle(KS),
        itertools.cycle(GRID_SIZES),
    )
    items: List[BatchQuery] = []
    for index, (radius, num_keywords, k, grid_size) in enumerate(
        itertools.islice(axes, num_queries)
    ):
        if index % 9 == 8:
            keywords = {f"zz-missing-{index}"}
        else:
            band = vocabulary_size if index % 2 else max(50, vocabulary_size // 10)
            keywords = {
                f"w{rng.randrange(band):04d}" for _ in range(num_keywords)
            }
        query = SpatialPreferenceQuery.create(k=k, radius=radius, keywords=keywords)
        items.append(BatchQuery(query=query, grid_size=grid_size))
    return items


def run_strategy(
    engine: SPQEngine, items: Sequence[BatchQuery], algorithm: str
) -> List[Dict[str, object]]:
    """Execute the workload under one strategy; per-query cost + identity."""
    results = engine.execute_many(items, algorithm=algorithm)
    return [
        {
            "oids": result.object_ids(),
            "scores": result.scores(),
            "cost": result.stats["simulated_seconds"],
            "planned": result.stats.get("planned_algorithm"),
        }
        for result in results
    ]


def evaluate_dataset(
    name: str,
    dataset: Tuple[list, list],
    num_queries: int,
    warmup_queries: int,
    vocabulary_size: int,
    seed: int,
) -> Dict[str, object]:
    data, features = dataset
    engine = SPQEngine(data, features, config=EngineConfig())
    eval_items = build_workload(num_queries, vocabulary_size, seed)

    # Calibration warmup: a disjoint workload from the same distribution,
    # executed once per fixed algorithm.  Every executed query feeds the
    # engine's calibrator, mirroring a deployment that has served traffic
    # before trusting the planner.
    warmup_items = build_workload(warmup_queries, vocabulary_size, seed + 1)
    for algorithm in PLANNED_ALGORITHMS:
        run_strategy(engine, warmup_items, algorithm)

    # Auto runs first so its decisions cannot profit from eval-set fixed
    # runs; the fixed sweeps afterwards provide the oracle reference.
    auto_runs = run_strategy(engine, eval_items, "auto")
    fixed_runs = {
        algorithm: run_strategy(engine, eval_items, algorithm)
        for algorithm in PLANNED_ALGORITHMS
    }

    mismatches = []
    for position, auto_run in enumerate(auto_runs):
        chosen = auto_run["planned"]
        reference = fixed_runs[chosen][position]
        if (
            auto_run["oids"] != reference["oids"]
            or auto_run["scores"] != reference["scores"]
            or auto_run["cost"] != reference["cost"]
        ):
            mismatches.append((position, chosen))

    totals = {
        algorithm: sum(run["cost"] for run in runs)
        for algorithm, runs in fixed_runs.items()
    }
    oracle_total = sum(
        min(fixed_runs[algorithm][position]["cost"] for algorithm in PLANNED_ALGORITHMS)
        for position in range(len(eval_items))
    )
    optimal_picks = sum(
        1
        for position, auto_run in enumerate(auto_runs)
        if auto_run["cost"]
        <= min(fixed_runs[a][position]["cost"] for a in PLANNED_ALGORITHMS)
    )
    return {
        "dataset": name,
        "queries": len(eval_items),
        "auto_total": sum(run["cost"] for run in auto_runs),
        "oracle_total": oracle_total,
        "fixed_totals": totals,
        "optimal_picks": optimal_picks,
        "chosen": {
            algorithm: sum(1 for run in auto_runs if run["planned"] == algorithm)
            for algorithm in PLANNED_ALGORITHMS
        },
        "mismatches": mismatches,
        "calibration": engine.planner.calibrator.snapshot(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=3000)
    parser.add_argument("--queries", type=int, default=40, help="eval queries per dataset")
    parser.add_argument("--warmup-queries", type=int, default=24,
                        help="calibration queries per dataset (disjoint seed)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless auto matches the chosen algorithm "
                             "bit-for-bit, lands within --max-overhead of the "
                             "oracle and strictly beats the worst fixed strategy")
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help="allowed fraction above the oracle total (default 0.10)")
    args = parser.parse_args(argv)

    config = SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    datasets = {
        "uniform": generate_uniform(config),
        "clustered": generate_clustered(config),
    }
    vocabulary_size = config.vocabulary_size

    reports = []
    for name, dataset in datasets.items():
        report = evaluate_dataset(
            name, dataset, args.queries, args.warmup_queries, vocabulary_size,
            args.seed,
        )
        reports.append(report)
        worst = max(report["fixed_totals"].values())
        best_fixed = min(report["fixed_totals"].values())
        print(f"[{name}] {report['queries']} queries")
        print(f"  oracle     {report['oracle_total']:>10.1f}s")
        print(f"  auto       {report['auto_total']:>10.1f}s "
              f"({report['auto_total'] / report['oracle_total']:.3f}x oracle, "
              f"{report['optimal_picks']}/{report['queries']} optimal picks)")
        for algorithm, total in sorted(report["fixed_totals"].items(), key=lambda kv: kv[1]):
            print(f"  {algorithm:<10} {total:>10.1f}s")
        print(f"  chosen mix {report['chosen']}  "
              f"(best fixed {best_fixed:.1f}s, worst fixed {worst:.1f}s)")

    summary = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "warmup_queries": args.warmup_queries,
            "seed": args.seed,
            "radii": RADII,
            "keyword_counts": KEYWORD_COUNTS,
            "ks": KS,
            "grid_sizes": GRID_SIZES,
        },
        "datasets": reports,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        for report in reports:
            name = report["dataset"]
            if report["mismatches"]:
                failures.append(
                    f"{name}: auto differs from its chosen algorithm at "
                    f"positions {report['mismatches']}"
                )
            bound = (1.0 + args.max_overhead) * report["oracle_total"]
            if report["auto_total"] > bound:
                failures.append(
                    f"{name}: auto total {report['auto_total']:.1f}s exceeds "
                    f"{bound:.1f}s ({1 + args.max_overhead:.2f}x oracle)"
                )
            worst = max(report["fixed_totals"].values())
            if not report["auto_total"] < worst:
                failures.append(
                    f"{name}: auto total {report['auto_total']:.1f}s does not "
                    f"beat the worst fixed strategy ({worst:.1f}s)"
                )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"OK: auto within {1 + args.max_overhead:.2f}x of the oracle and "
              "below the worst fixed strategy on every dataset")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
