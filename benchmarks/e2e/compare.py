"""``--compare A.json B.json``: the A/A tool and the parent/change tool.

A *run set* is what ``run.py --repeat N --out FILE`` writes: one entry per
(workload, seed) run.  For every workload x end-to-end metric this prints
both medians with their quartiles, how much worse B is than A, and a
verdict judged against the bound ``BENCHMARK.json`` fixes:

* ``ok``         -- B's median is not worse than A's by more than the bound;
* ``regressed``  -- it is;
* ``unresolved`` -- a side's own run-to-run spread (IQR / median) is wider
  than the bound, so a difference of that size cannot be told from noise.

Runs of one (workload, seed) present in both sets must agree on
``inputs_digest`` and on the score digests of the blocks both measured.
Exit code 1 on any ``regressed`` or digest mismatch.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Mapping, Sequence, Tuple

import estimators

Runs = Dict[str, List[Mapping[str, object]]]


def load_run_set(path: str, trace: int = 0) -> Runs:
    """``workload -> runs`` of one run-set file (untraced runs by default)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    runs: Runs = defaultdict(list)
    for run in document["runs"]:
        if int(run["trace"]) == trace:
            runs[str(run["workload"])].append(run)
    return runs


def digest_mismatches(base: Runs, change: Runs) -> List[str]:
    """Same (workload, seed) on both sides must mean the same inputs/answers."""
    problems: List[str] = []
    for workload, runs in base.items():
        by_seed = {int(run["seed"]): run for run in change.get(workload, [])}
        for run in runs:
            other = by_seed.get(int(run["seed"]))
            if other is None:
                continue
            label = f"{workload} seed {run['seed']}"
            if run["inputs_digest"] != other["inputs_digest"]:
                problems.append(f"{label}: inputs_digest differs")
            shared = min(len(run["block_digests"]), len(other["block_digests"]))
            if run["block_digests"][:shared] != other["block_digests"][:shared]:
                problems.append(f"{label}: scores differ on shared blocks")
    return problems


def compare_sets(
    base: Runs, change: Runs, declared: Sequence[Mapping[str, object]]
) -> List[Tuple[str, str, Dict[str, object]]]:
    """One ``(workload, metric, verdict)`` row per declared metric."""
    rows = []
    for workload in base:
        if workload not in change:
            continue
        for entry in declared:
            name = str(entry["name"])
            a = [float(run["metrics"][name]["value"]) for run in base[workload]]
            b = [float(run["metrics"][name]["value"]) for run in change[workload]]
            rows.append((
                workload,
                name,
                estimators.verdict(a, b, str(entry["better"]), float(entry["bound"])),
            ))
    return rows


def format_rows(
    rows: Sequence[Tuple[str, str, Mapping[str, object]]],
    declared: Sequence[Mapping[str, object]],
) -> str:
    """The comparison table."""
    bounds = {str(entry["name"]): float(entry["bound"]) for entry in declared}
    lines = [
        f"{'workload':20s} {'metric':18s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'spreadA':>8s} {'spreadB':>8s} "
        f"{'worse':>8s} {'bound':>6s}  verdict"
    ]
    for workload, name, row in rows:
        a, b = row["base"], row["change"]
        lines.append(
            f"{workload:20s} {name:18s} "
            f"{a['median']:12.4f} [{a['q1']:9.4f},{a['q3']:9.4f}] "
            f"{b['median']:12.4f} [{b['q1']:9.4f},{b['q3']:9.4f}] "
            f"{a['spread']:8.1%} {b['spread']:8.1%} "
            f"{row['worse_by']:+8.1%} {bounds[name]:6.0%}  {row['status']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str, declaration: Mapping[str, object]) -> int:
    """Print the comparison of two run sets; 1 on a regression."""
    declared = declaration["end_to_end"]
    base = load_run_set(path_a)
    change = load_run_set(path_b)
    rows = compare_sets(base, change, declared)
    print(f"A = {path_a}   B = {path_b}")
    for workload in base:
        print(f"  {workload}: {len(base[workload])} runs in A, "
              f"{len(change.get(workload, []))} in B")
    print(format_rows(rows, declared))
    failed = sum(
        int(run["failed"]) for runs in (*base.values(), *change.values()) for run in runs
    )
    problems = digest_mismatches(base, change)
    for problem in problems:
        print(f"DIGEST MISMATCH: {problem}")
    print(f"failed operations across both sets: {failed}")
    regressed = [row for row in rows if row[2]["status"] == "regressed"]
    unresolved = [row for row in rows if row[2]["status"] == "unresolved"]
    print(f"{len(rows)} pairings: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed or problems or failed else 0
