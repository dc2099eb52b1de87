"""Which algorithm, where: the measured per-query oracle over the paper's axes.

For every regime of the paper's Section 7 sweeps -- the four datasets
(FL, TW, UN, CL) x the four axes (grid size, ``|q.W|``, radius, ``k``) x
their four values, as :mod:`repro.paper.bench.experiments` defines them --
this runs a few seeded queries with every fixed algorithm and with
``algorithm="auto"``, and times each ``SPQEngine.execute`` in CPU seconds
(one warm run, then the best of ``--repeat``).  The per-query *oracle* is
the cheapest fixed algorithm of that query.  Per regime it reports:

* the winner shares (which fixed algorithm the oracle picked, how often),
* a constant eSPQsco's total CPU over the oracle's,
* ``auto``'s total CPU over the oracle's -- ``auto`` runs none of the
  paper's per-cell jobs but one global Lemma-3 scan, so below 1.0 it beats
  the best paper algorithm of every query, and
* the worst single query of a constant eSPQsco and of ``auto``.

CL runs eSPQlen and eSPQsco only, as the paper's Figure 9 does: pSPQ's
exhaustive per-cell loop is orders of magnitude slower on clustered data.
The committed table in ``docs/paper-map.md`` is this script's
``--markdown`` output.

``--check`` exits 1 unless every ``auto`` query returns exactly the
centralized oracle's positively scored prefix -- ids and scores, ties
included -- with eSPQsco's score sequence.  CPU ratios are reported, never
gated: on a shared 2-vCPU box they flap by more than the differences they
would gate.

Run it as::

    PYTHONPATH=src python benchmarks/bench_planner.py --objects 20000 --markdown
    python benchmarks/bench_planner.py --check          # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Sequence

from repro.core.engine import SPQEngine
from repro.paper.bench.experiments import (
    QUERY_KEYWORDS,
    RADIUS_FRACTIONS,
    REAL_GRID_SIZES,
    SYNTHETIC_GRID_SIZES,
    TOP_K_VALUES,
    _clustered_spec,
    _flickr_spec,
    _twitter_spec,
    _uniform_spec,
)

#: Dataset label -> (spec factory, grid sizes of its sweep).
DATASETS = {
    "FL": (_flickr_spec, REAL_GRID_SIZES),
    "TW": (_twitter_spec, REAL_GRID_SIZES),
    "UN": (_uniform_spec, SYNTHETIC_GRID_SIZES),
    "CL": (_clustered_spec, SYNTHETIC_GRID_SIZES),
}


def axes(grid_sizes: Sequence[int]) -> Dict[str, Sequence[object]]:
    """The four swept parameters of one dataset (Figures 5-7 and 9)."""
    return {
        "grid_size": grid_sizes,
        "num_keywords": QUERY_KEYWORDS,
        "radius_fraction": RADIUS_FRACTIONS,
        "k": TOP_K_VALUES,
    }


def timed_run(engine: SPQEngine, query, algorithm: str, grid_size: int, repeat: int):
    """``(result, best CPU seconds)`` of ``execute`` after one warm run."""
    result = engine.execute(query, algorithm=algorithm, grid_size=grid_size)
    best = float("inf")
    for _ in range(repeat):
        started = time.process_time()
        engine.execute(query, algorithm=algorithm, grid_size=grid_size)
        best = min(best, time.process_time() - started)
    return result, best


def answer(result) -> list:
    """``(oid, score)`` pairs, best first."""
    return list(zip(result.object_ids(), result.scores()))


def measure_regime(engine, spec, parameter, value, queries: int, repeat: int):
    """Every query of one regime under every strategy."""
    varied = spec.with_overrides(**{parameter: value})
    rows = []
    for offset in range(queries):
        query = varied.with_overrides(seed=spec.seed + offset).build_query()
        auto, auto_cpu = timed_run(engine, query, "auto", varied.grid_size, repeat)
        cpu = {}
        sco = None
        for algorithm in varied.algorithms:
            result, cpu[algorithm] = timed_run(
                engine, query, algorithm, varied.grid_size, repeat
            )
            if algorithm == "espq-sco":
                sco = result
        oracle = engine.execute(query, algorithm="centralized")
        rows.append({
            "cpu": cpu,
            "auto_cpu": auto_cpu,
            "identical": (
                answer(auto) == [pair for pair in answer(oracle) if pair[1] > 0.0]
                and auto.scores() == sco.scores()
            ),
        })
    return summarize(rows)


def summarize(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Per-regime winner shares and ratios over the per-query oracle."""
    oracle = [min(row["cpu"].values()) for row in rows]
    winners = [min(row["cpu"], key=row["cpu"].get) for row in rows]
    sco = [row["cpu"]["espq-sco"] for row in rows]
    auto = [row["auto_cpu"] for row in rows]
    return {
        "queries": len(rows),
        "winners": {name: winners.count(name) / len(rows) for name in sorted(set(winners))},
        "sco_over_oracle": sum(sco) / sum(oracle),
        "auto_over_oracle": sum(auto) / sum(oracle),
        "worst_sco": max(s / o for s, o in zip(sco, oracle)),
        "worst_auto": max(a / o for a, o in zip(auto, oracle)),
        "mismatches": sum(1 for row in rows if not row["identical"]),
        "oracle_ms": 1000.0 * sum(oracle),
    }


def markdown(report: Dict[str, object]) -> str:
    """The per-regime table of ``docs/paper-map.md``."""
    lines = [
        "| dataset | axis | value | oracle winners | eSPQsco / oracle | "
        "`auto` / oracle | worst query eSPQsco / `auto` |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["regimes"]:
        winners = ", ".join(
            f"{name} {share:.0%}" for name, share in row["winners"].items()
        )
        lines.append(
            f"| {row['dataset']} | {row['axis']} | {row['value']} | {winners} | "
            f"{row['sco_over_oracle']:.2f}x | {row['auto_over_oracle']:.2f}x | "
            f"{row['worst_sco']:.2f}x / {row['worst_auto']:.2f}x |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=3000,
                        help="objects per dataset (data + features)")
    parser.add_argument("--queries", type=int, default=2,
                        help="seeded queries per regime")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per (query, strategy) after the warm run")
    parser.add_argument("--datasets", default=",".join(DATASETS),
                        help="comma-separated subset of FL,TW,UN,CL")
    parser.add_argument("--json", default=None, help="write the report JSON here")
    parser.add_argument("--markdown", action="store_true",
                        help="print the per-regime markdown table")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every auto query equals the "
                             "centralized oracle's positively scored prefix "
                             "(ids and scores, ties included)")
    args = parser.parse_args(argv)

    regimes = []
    for name in args.datasets.split(","):
        factory, grid_sizes = DATASETS[name]
        spec = factory(args.objects)
        engine = SPQEngine(list(spec.data_objects), list(spec.feature_objects))
        for parameter, values in axes(grid_sizes).items():
            for value in values:
                row = measure_regime(
                    engine, spec, parameter, value, args.queries, args.repeat
                )
                regimes.append({"dataset": name, "axis": parameter, "value": value, **row})
                print(
                    f"[{name}] {parameter}={value}: oracle {row['oracle_ms']:.1f} ms, "
                    f"eSPQsco {row['sco_over_oracle']:.2f}x, "
                    f"auto {row['auto_over_oracle']:.2f}x, winners {row['winners']}"
                )
                sys.stdout.flush()
        engine.close()

    report = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "repeat": args.repeat,
            "datasets": args.datasets,
        },
        "regimes": regimes,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    if args.markdown:
        print(markdown(report))

    if args.check:
        mismatches = sum(row["mismatches"] for row in regimes)
        if mismatches:
            print(f"FAIL: {mismatches} auto queries differ from the centralized "
                  "oracle", file=sys.stderr)
            return 1
        total = sum(row["queries"] for row in regimes)
        print(f"OK: all {total} auto queries equal the centralized oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
