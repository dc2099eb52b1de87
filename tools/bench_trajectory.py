#!/usr/bin/env python
"""The committed performance trajectory: ``BENCH_<pr>.json`` at the repo root.

A PR that claims a gain commits the ``--compare`` table of its seed-matched
parent/change run sets (``benchmarks/e2e/README.md``) as ``BENCH_<pr>.json``.
Two commands:

``python tools/bench_trajectory.py check``
    The CI step.  Loads every ``BENCH_*.json`` and fails if one names a
    workload or a metric that ``BENCHMARK.json`` does not declare -- a
    renamed metric must not silently orphan the numbers quoted in ``docs/``.

``python tools/bench_trajectory.py write OUT.json --pr N --title T A.json B.json
[--traced-a FILE --traced-b FILE] [--note TEXT ...]``
    Builds the file from two run sets written by ``benchmarks/e2e/run.py
    --repeat N --out`` (A = parent, B = change): one row per workload x
    end-to-end metric exactly as ``--compare`` prints it, the seed-matched
    pairs of every metric (who won each pair), optionally the per-layer
    metrics of traced runs, and the machine's fingerprint.

Stdlib only; the comparison itself is ``benchmarks/e2e``'s own code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def declared_names() -> Dict[str, set]:
    """The workload and metric names ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declaration = json.load(handle)
    return {
        "workloads": {entry["name"] for entry in declaration["workloads"]},
        "end_to_end": {entry["name"] for entry in declaration["end_to_end"]},
        "per_layer": {entry["name"] for entry in declaration["per_layer"]},
    }


def check() -> int:
    """Every name a committed BENCH file quotes must still be declared."""
    names = declared_names()
    files = sorted(ROOT.glob("BENCH_*.json"))
    problems: List[str] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        rows = document.get("rows")
        if not rows:
            problems.append(f"{path.name}: no rows")
            continue
        for row in rows:
            if row["workload"] not in names["workloads"]:
                problems.append(f"{path.name}: unknown workload {row['workload']!r}")
            if row["metric"] not in names["end_to_end"]:
                problems.append(f"{path.name}: unknown end-to-end metric {row['metric']!r}")
        for entry in document.get("per_layer", []):
            if entry["workload"] not in names["workloads"]:
                problems.append(f"{path.name}: unknown workload {entry['workload']!r}")
            for metric in entry["metrics"]:
                if metric not in names["per_layer"]:
                    problems.append(f"{path.name}: unknown per-layer metric {metric!r}")
    for problem in problems:
        print(problem)
    print(f"{len(files)} BENCH file(s), {len(problems)} problem(s)")
    return 1 if problems or not files else 0


def machine_fingerprint() -> Dict[str, object]:
    """Where the runs were made (the ruler's readings, ``machine.ref_kernel_ms``,
    are among the traced runs' per-layer metrics)."""
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": model,
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def traced_metrics(path: str) -> List[Dict[str, object]]:
    """Per-layer metrics of every traced run in a run-set file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return [
        {
            "workload": run["workload"],
            "seed": run["seed"],
            "seconds": run["seconds"],
            "traced_blocks": run["samples"]["traced_blocks"],
            "scores_digest": run["scores_digest"],
            "metrics": {
                name: metric["value"] for name, metric in sorted(run["metrics"].items())
            },
        }
        for run in document["runs"]
        if int(run["trace"]) == 1
    ]


def write(args: argparse.Namespace) -> int:
    """Build one BENCH file from a parent and a change run set."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import compare  # noqa: E402  (benchmarks/e2e's own comparison)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    base, change = compare.load_run_set(args.a), compare.load_run_set(args.b)
    by_name = {entry["name"]: entry for entry in declared}
    rows = []
    for workload, metric, row in compare.compare_sets(base, change, declared):
        by_seed = {int(run["seed"]): run for run in change[workload]}
        pairs = [
            {
                "seed": int(run["seed"]),
                "A": run["metrics"][metric]["value"],
                "B": by_seed[int(run["seed"])]["metrics"][metric]["value"],
            }
            for run in base[workload]
            if int(run["seed"]) in by_seed
        ]
        sign = 1.0 if by_name[metric]["better"] == "lower" else -1.0
        rows.append({
            "workload": workload,
            "metric": metric,
            "A": row["base"],
            "B": row["change"],
            "worse_by": row["worse_by"],
            "bound": by_name[metric]["bound"],
            "verdict": row["status"],
            "pairs": pairs,
            "B_wins": sum(sign * (p["A"] - p["B"]) > 0 for p in pairs),
        })
    document = {
        "pr": args.pr,
        "title": args.title,
        "sets": {"A": args.label_a, "B": args.label_b},
        "command": "python3 benchmarks/e2e/run.py --seed S --repeat 1 --out FILE "
                   "(one fresh interpreter per run; sides alternate which runs first)",
        "machine": machine_fingerprint(),
        "notes": args.note,
        "failed_operations": sum(
            int(run["failed"])
            for runs in (*base.values(), *change.values())
            for run in runs
        ),
        "digest_mismatches": compare.digest_mismatches(base, change),
        "rows": rows,
        "per_layer": [
            dict(entry, set=label)
            for label, path in (("A", args.traced_a), ("B", args.traced_b))
            if path
            for entry in traced_metrics(path)
        ],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}: {len(rows)} rows, {len(document['per_layer'])} traced runs")
    return 0


def main(argv: Sequence[str]) -> int:
    """Command line: ``check`` or ``write``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("check")
    writer = commands.add_parser("write")
    writer.add_argument("out")
    writer.add_argument("a")
    writer.add_argument("b")
    writer.add_argument("--pr", type=int, required=True)
    writer.add_argument("--title", required=True)
    writer.add_argument("--label-a", default="parent")
    writer.add_argument("--label-b", default="change")
    writer.add_argument("--traced-a")
    writer.add_argument("--traced-b")
    writer.add_argument("--note", action="append", default=[],
                        help="free text kept in the file, e.g. runs made outside the sets")
    args = parser.parse_args(argv)
    return check() if args.command == "check" else write(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
