"""``--selftest``: a seconds-long check of the benchmark itself.

Every check is a plain function that raises ``AssertionError`` with a
message; ``test_e2e.py`` runs the same functions under pytest.  The checks
that need real runs share one set of tiny runs (500 objects, ~1 s measured
phase, traced and untraced, all four workloads).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Tuple

import estimators
import procstat
import trace as tracing
from inputs import OpStream, inputs_digest, make_dataset

HERE = Path(__file__).resolve().parent
SEED = 7

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _setup():
    import run

    run._bootstrap()
    return run, run.load_config(), run.load_declaration()


@functools.lru_cache(maxsize=None)
def tiny_runs() -> Dict[Tuple[str, int], Mapping[str, object]]:
    """``(workload, trace) -> result`` of the shared tiny runs."""
    run, config, declaration = _setup()
    seconds = float(config["selftest"]["seconds"])
    results = {}
    for entry in declaration["workloads"]:
        for traced in (0, 1):
            results[(entry["name"], traced)] = run.run_once(
                entry["name"], SEED, seconds, bool(traced), config, declaration,
                selftest=True,
            )
    return results


# --------------------------------------------------------------------- #
# checks that need no run


def check_declaration_schema() -> None:
    """``BENCHMARK.json`` has exactly the contract's shape and limits."""
    _, _, declaration = _setup()
    _require(
        set(declaration) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        },
        f"unexpected top-level keys: {sorted(declaration)}",
    )
    _require(declaration["paths"] == ["benchmarks/e2e"], "paths must be the one directory")
    _require(2 <= len(declaration["workloads"]) <= 8, "2..8 workloads")
    _require(1 <= len(declaration["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    _require(1 <= len(declaration["per_layer"]) <= 128, "1..128 per-layer metrics")
    _require(
        isinstance(declaration["run_seconds"], int)
        and 1 <= declaration["run_seconds"] <= 60,
        "run_seconds must be a whole number in 1..60",
    )
    names: List[str] = []
    for entry in declaration["workloads"]:
        _require(set(entry) == {"name", "why"}, f"workload keys: {entry}")
        _require(len(entry["why"]) <= 200 and "\n" not in entry["why"], "why: one line")
        names.append(entry["name"])
    for entry in declaration["end_to_end"]:
        _require(set(entry) == {"name", "unit", "better", "bound"}, f"keys: {entry}")
        _require(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
        names.append(entry["name"])
    for entry in declaration["per_layer"]:
        _require(set(entry) == {"name", "unit", "better"}, f"keys: {entry}")
        names.append(entry["name"])
    for entry in declaration["end_to_end"] + declaration["per_layer"]:
        _require(bool(UNIT.match(entry["unit"])), f"bad unit {entry['unit']!r}")
        _require(entry["better"] in ("lower", "higher"), f"better of {entry['name']}")
    for name in names:
        _require(bool(NAME.match(name)), f"bad name {name!r}")
    _require(len(names) == len(set(names)), "every name is used once")
    setup = [e for e in declaration["end_to_end"] if e["name"] == "setup_s"]
    _require(
        bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s (s, lower) must be declared",
    )
    _require(
        len(json.dumps(declaration)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB"
    )


def check_estimators() -> None:
    """Percentile, spread, verdict and interval estimators against brute force."""
    rng = random.Random(5)
    for _ in range(200):
        values = [rng.random() for _ in range(rng.randint(1, 60))]
        fraction = rng.choice([0.5, 0.9, 0.95, 0.99, 1.0])
        # Brute force: the smallest value with at least fraction*n values <= it.
        want = min(
            v for v in values
            if sum(1 for w in values if w <= v) >= fraction * len(values) - 1e-12
        )
        _require(estimators.percentile(values, fraction) == want, "percentile")
        beyond = sum(1 for w in values if w > want)
        _require(
            estimators.samples_beyond(len(values), fraction) >= beyond,
            "samples_beyond is an upper bound on samples above the percentile",
        )
    _require(
        abs(estimators.normalised(30.0, 7.5, 6.0) - 24.0) < 1e-12, "normalised"
    )
    values = [rng.uniform(10, 12) for _ in range(10)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = estimators.quartile_summary(values)
    _require(
        abs(summary["spread"] - (q3 - q1) / statistics.median(values)) < 1e-12,
        "quartile spread is the driver's definition",
    )
    for _ in range(100):
        intervals = []
        for _ in range(rng.randint(0, 6)):
            start = rng.randint(0, 40)
            intervals.append((float(start), float(start + rng.randint(0, 15))))
        covered = sum(
            1 for tick in range(60)
            if any(start <= tick < end for start, end in intervals)
        )
        _require(tracing.union_length(intervals) == covered, "union_length")
    _require(
        estimators.verdict([10] * 5, [12] * 5, "lower", 0.1)["status"] == "regressed"
        and estimators.verdict([10] * 5, [12] * 5, "higher", 0.1)["status"] == "ok"
        and estimators.verdict([8, 10, 14, 9, 13], [10] * 5, "lower", 0.1)["status"]
        == "unresolved",
        "verdict",
    )


def check_inputs_deterministic() -> None:
    """Same seed, same inputs; another seed, other inputs."""
    _, config, _ = _setup()
    from runner import resolve_sizes

    sizes = resolve_sizes(config, "serve_http_rw", selftest=True)

    def digest(seed: int) -> str:
        dataset = make_dataset(
            sizes["dataset"], sizes["objects"], sizes["dataset_seed"]
        )
        return inputs_digest(dataset, OpStream("serve_http_rw", sizes, seed, dataset))

    _require(digest(3) == digest(3), "inputs_digest must repeat for one seed")
    _require(digest(3) != digest(4), "inputs_digest must differ across seeds")


def check_refkernel_frozen() -> None:
    """The reference kernel's source is the one the baseline was taken with."""
    _, config, _ = _setup()
    digest = hashlib.sha256((HERE / "refkernel.py").read_bytes()).hexdigest()
    _require(
        digest == config["refkernel_sha256"],
        "refkernel.py changed: every committed number is rescaled by it "
        f"(sha256 {digest})",
    )


def check_forbidden_imports() -> None:
    """The benchmark generates its own load: no repro.traffic / repro.bench."""
    pattern = re.compile(r"^\s*(from|import)\s+repro\.(traffic|bench)\b", re.M)
    for path in HERE.glob("*.py"):
        _require(
            not pattern.search(path.read_text(encoding="utf-8")),
            f"{path.name} imports repro.traffic or repro.bench",
        )


# --------------------------------------------------------------------- #
# checks over the shared tiny runs


def check_every_metric_everywhere() -> None:
    """Each declared metric is emitted, as a number, on each workload."""
    _, _, declaration = _setup()
    for (workload, traced), result in tiny_runs().items():
        declared = declaration["per_layer" if traced else "end_to_end"]
        emitted = result["metrics"]
        _require(
            set(emitted) == {entry["name"] for entry in declared},
            f"{workload} trace {traced}: metric names differ from BENCHMARK.json",
        )
        for name, metric in emitted.items():
            _require(
                isinstance(metric["value"], float)
                and metric["value"] == metric["value"],
                f"{workload} trace {traced}: {name} is not a number",
            )
        if not traced:
            for name, metric in emitted.items():
                _require(metric["value"] > 0, f"{workload}: {name} must never be 0")
        _require(
            result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace {traced}: operations failed",
        )
        _require(
            result["samples"]["verified_reads"] >= 0.1 * result["samples"]["read_samples"],
            f"{workload}: fewer than 10% of reads were verified",
        )


def check_span_nesting_and_sum() -> None:
    """Spans nest inside their parents; self times add up to end-to-end."""
    for (workload, traced), result in tiny_runs().items():
        if not traced:
            continue
        path = HERE / "out" / f"{workload}-seed{SEED}-trace1.spans.jsonl"
        spans = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                span = tracing.Span(
                    row["id"], row["name"], row["start"], row["parent"],
                    row["thread"], row["op"],
                )
                span.end = row["end"]
                spans.append(span)
        by_id = {span.sid: span for span in spans}
        for span in spans:
            if span.parent is not None:
                parent = by_id[span.parent]
                _require(
                    parent.start <= span.start and span.end <= parent.end
                    and parent.thread == span.thread,
                    f"{workload}: span {span.name} escapes its parent {parent.name}",
                )
        summary = tracing.TraceSummary(spans)
        _require(summary.operations > 0, f"{workload}: no traced operations")
        share = summary.accounted_seconds() / summary.end_to_end_seconds()
        _require(
            abs(share - 1.0) <= 0.05,
            f"{workload}: self times sum to {share:.3f} of end-to-end",
        )
        _require(
            abs(result["metrics"]["trace.accounted_share"]["value"] - share) < 1e-6,
            f"{workload}: trace.accounted_share disagrees with the span file",
        )


def check_answers_deterministic() -> None:
    """One seed gives the same scores in both deployment shapes of a workload."""
    runs = tiny_runs()
    for (workload, traced), result in runs.items():
        if traced:
            continue
        other = runs[(workload, 1)]
        _require(
            result["inputs_digest"] == other["inputs_digest"],
            f"{workload}: inputs_digest differs between the two runs",
        )
        shared = min(len(result["block_digests"]), len(other["block_digests"]))
        _require(
            shared > 0
            and result["block_digests"][:shared] == other["block_digests"][:shared],
            f"{workload}: scores differ between the untraced and traced run",
        )


def check_write_burst_phase() -> None:
    """Every write burst compacts once and leaves exactly one live batch."""
    _, config, _ = _setup()
    for (workload, traced), result in tiny_runs().items():
        samples = result["samples"]
        _require(
            samples["off_phase_blocks"] == 0,
            f"{workload} trace {traced}: {samples['off_phase_blocks']} of "
            f"{samples['blocks']} blocks left the designed overlay state",
        )
        if config["workloads"][workload].get("write_batches_per_block"):
            _require(
                samples["write_samples"] > 0,
                f"{workload} trace {traced}: no write burst ran",
            )


def check_nothing_survives() -> None:
    """No shared-memory segment, child process or work file outlives a run."""
    tiny_runs()
    leaked = [name for name in os.listdir("/dev/shm") if name.startswith("repro_dp_")]
    _require(not leaked, f"/dev/shm segments survived: {leaked}")
    children = procstat.children_of(os.getpid())
    _require(not children, f"child processes survived: {children}")
    work = HERE / "work"
    datasets = list(work.glob("*.tsv")) if work.exists() else []
    _require(not datasets, f"dataset files survived: {datasets}")


CHECKS: List[Callable[[], None]] = [
    check_declaration_schema,
    check_estimators,
    check_inputs_deterministic,
    check_refkernel_frozen,
    check_forbidden_imports,
    check_every_metric_everywhere,
    check_span_nesting_and_sum,
    check_answers_deterministic,
    check_write_burst_phase,
    check_nothing_survives,
]


def main(config: Mapping[str, object], declaration: Mapping[str, object]) -> int:
    """Run every check; 0 when all pass."""
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    print(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0
