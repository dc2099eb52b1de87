"""The repo benchmark: four seeded workloads, end to end and layer by layer.

Driver contract (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

For people::

    python3 benchmarks/e2e/run.py --seed 1                 # all four workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace         # ... traced
    python3 benchmarks/e2e/run.py --seed 100 --repeat 10 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selftest

Every run also writes its full result (raw samples, digests, diagnostics)
under ``benchmarks/e2e/out/``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / "work"


def _pin_hash_seed() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0``.

    String hashing is randomised per process; it decides the layout of every
    keyword set and dict, and two runs of identical code and inputs differed
    by up to 7% in median latency for that reason alone.  The servers the
    benchmark starts get the same pinned seed (``targets.py``).
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)


def _bootstrap() -> None:
    """Put this checkout's sources first on ``sys.path`` -- and insist on them.

    The benchmark measures the checkout it sits in, never an installed
    ``repro``; without the sources there is nothing to measure and the run
    must fail rather than report somebody else's numbers.
    """
    for path in (str(HERE), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import repro from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(
            f"error: repro resolved to {origin}, outside this checkout ({SRC})"
        )


def load_config() -> Dict[str, object]:
    """The benchmark's constants (``config.json``)."""
    with open(HERE / "config.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_declaration() -> Dict[str, object]:
    """``BENCHMARK.json`` at the root of the checkout."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    config: Mapping[str, object],
    declaration: Mapping[str, object],
    selftest: bool = False,
) -> Dict[str, object]:
    """One run of one workload: the result object (also written to ``out/``)."""
    import metrics
    from runner import run_workload

    record = run_workload(
        workload, seed, seconds, trace, config, SRC, WORK_DIR, selftest=selftest
    )
    if trace:
        values = metrics.per_layer(record, config)
        metrics.check_declared(values, declaration["per_layer"])
    else:
        values = metrics.end_to_end(record, config)
        metrics.check_declared(values, declaration["end_to_end"])
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": values,
        "samples": metrics.sample_counts(record, config),
        "inputs_digest": record.inputs_digest,
        "scores_digest": record.scores_digest,
        "block_digests": [block.digest for block in record.blocks],
        "diagnostics": {
            "ref_kernel_ms": [block.ref_ms for block in record.blocks],
            "setup_raw_s": record.setup_raw,
            "setup_per_ruler": record.setup_per_ruler,
            "steal_pct": record.steal_pct,
            # per block: [latency ms, ruler ms] of every read / write
            "reads": [
                [[round(1000.0 * s.seconds, 4), round(s.ruler_ms, 4)] for s in block.reads]
                for block in record.blocks
            ],
            "writes": [
                [[round(1000.0 * s.seconds, 4), round(s.ruler_ms, 4)] for s in block.writes]
                for block in record.blocks
            ],
            "block_wall_s": [block.wall for block in record.blocks],
            "block_wall_per_ruler": [block.wall_per_ruler for block in record.blocks],
            "block_cpu_s": [block.cpu_seconds for block in record.blocks],
            "block_cpu_per_ruler": [block.cpu_per_ruler for block in record.blocks],
            "block_queries": [block.queries for block in record.blocks],
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        record.tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
        from trace import TraceSummary

        result["layer_self_ms"] = TraceSummary(record.tracer.spans).layer_table()
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def print_report(result: Mapping[str, object]) -> None:
    """Every metric by name with its unit, and the sample counts."""
    samples = result["samples"]
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"blocks {samples['blocks']}  reads {samples['read_samples']} "
        f"({samples['read_samples_beyond_tail']} beyond the tail)  "
        f"writes {samples['write_samples']}  setups {samples['setup_samples']}  "
        f"verified {samples['verified_reads']}  "
        f"off-phase blocks {samples['off_phase_blocks']}  "
        f"failed {result['failed']}/{result['attempted']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  inputs_digest {result['inputs_digest'][:16]}  "
          f"scores_digest {result['scores_digest'][:16]}")


def driver_line(result: Mapping[str, object]) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def build_parser() -> argparse.ArgumentParser:
    """The command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, in declared order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase budget per run")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1),
                        help="1: the traced run that fills the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds SEED .. SEED+N-1")
    parser.add_argument("--out", default=None,
                        help="append every run's result to this run-set file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two run-set files and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="seconds-long check of the benchmark itself")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(args.compare[0], args.compare[1], load_declaration())
    _bootstrap()
    config = load_config()
    declaration = load_declaration()
    if args.selftest:
        import selftest

        return selftest.main(config, declaration)
    names = [str(entry["name"]) for entry in declaration["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(
                f"error: unknown workload {args.workload!r}; expected one of {names}"
            )
        names = [args.workload]
    seconds = float(
        args.seconds if args.seconds is not None else config["default_seconds"]
    )
    runs = [
        (name, seed)
        for seed in range(args.seed, args.seed + args.repeat)
        for name in names
    ]
    if len(runs) > 1:
        return _run_each_in_its_own_process(runs, seconds, args)
    _pin_hash_seed()
    name, seed = runs[0]
    result = run_once(name, seed, seconds, bool(args.trace), config, declaration)
    print_report(result)
    if args.out:
        _append_run_set(Path(args.out), result)
    print(driver_line(result))
    return 0


def _run_each_in_its_own_process(
    runs: Sequence[Tuple[str, int]], seconds: float, args: argparse.Namespace
) -> int:
    """Several runs: one fresh interpreter each, exactly as the driver runs them.

    Peak RSS is a high-water mark of the process and the collector's state
    carries over, so runs sharing an interpreter would not measure what a
    driver run measures.
    """
    attempted = failed = 0
    for name, seed in runs:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        if args.out:
            command += ["--out", args.out]
        finished = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = finished.stdout.splitlines()
        if finished.returncode != 0 or not lines:
            raise SystemExit(f"error: run ({name}, seed {seed}) failed")
        print("\n".join(lines[:-1]))
        outcome = json.loads(lines[-1])
        attempted += int(outcome["attempted"])
        failed += int(outcome["failed"])
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "runs": len(runs),
    }))
    return 0


def _append_run_set(path: Path, result: Mapping[str, object]) -> None:
    """Add one run (without its raw samples) to a run-set file."""
    runs: List[object] = []
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    slim = {key: value for key, value in result.items() if key != "diagnostics"}
    runs.append(slim)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)


if __name__ == "__main__":
    sys.exit(main())
