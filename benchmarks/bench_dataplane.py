"""Columnar data-plane gate: the cluster's dataset segment attaches cheaply and leaks nothing.

Two checks over ``src/repro/index/columns.py`` and
``src/repro/execution/shm.py``:

1. **Attach cost** -- attaching the dataset segment ``repro serve
   --cluster`` publishes for its shard nodes (``publish_dataset_segment``,
   then ``attach_segment`` + ``ColumnStore.attach``) is an ``shm_open`` +
   ``mmap`` + header parse: its cost must stay roughly constant while the
   dataset grows 4x, and must beat unpickling the same datasets by a wide
   margin.  Skipped (and not gated) where shared memory is unavailable --
   nodes load the dataset file there by design.
2. **No leaks** -- no shared-memory segment this process opened is still
   open after the run (CI's ``dataplane-gate`` also checks ``/dev/shm``).

Two earlier phases are retired.  The identity sweep (the columnar reduce
loops against the per-object loops, entries and counters) is a tier-1 test,
``tests/test_differential_fuzz.py::TestDataplaneParity``, beside the
per-reducer hypothesis oracles of ``tests/test_core_jobs.py``: the
per-object loops are test code (``tests/object_oracle.py``).  The 2x
"columnar vs object" reduce-throughput gate compared the product with that
test code; the repo benchmark's ``engine_fixed`` workload measures the
columnar loops end to end.

Run it as::

    PYTHONPATH=src python benchmarks/bench_dataplane.py
    python benchmarks/bench_dataplane.py --check         # CI gate
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from typing import Dict

from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.execution.shm import (
    attach_segment,
    live_segment_names,
    publish_dataset_segment,
    shared_memory_available,
)
from repro.index.columns import ColumnStore


def _time_best(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _attach_and_detach(name: str) -> None:
    """What a shard node does before it reads a row: map and index the
    segment's columns zero-copy, then drop every view."""
    segment = attach_segment(name)
    try:
        ColumnStore.attach(segment.buf).detach()
    finally:
        segment.release()


def run_attach_phase(
    small: int, large: int, seed: int, repeats: int = 30
) -> Dict[str, object]:
    """Dataset-segment attach vs dataset size, vs unpickling the datasets."""
    if not shared_memory_available():
        return {"skipped": "shared memory unavailable here"}
    sizes = {}
    segments = []
    try:
        for label, objects in (("small", small), ("large", large)):
            data, features = generate_uniform(
                SyntheticDatasetConfig(num_objects=objects, seed=seed)
            )
            segment = publish_dataset_segment(data, features)
            segments.append(segment)
            blob = pickle.dumps((data, features), protocol=pickle.HIGHEST_PROTOCOL)
            sizes[label] = {
                "objects": objects,
                "segment_bytes": len(segment.buf),
                "attach_seconds": _time_best(
                    lambda name=segment.name: _attach_and_detach(name), repeats
                ),
                "unpickle_seconds": _time_best(lambda: pickle.loads(blob), repeats),
            }
    finally:
        for segment in segments:
            segment.release()
    ratio = sizes["large"]["attach_seconds"] / max(
        sizes["small"]["attach_seconds"], 1e-9
    )
    return {
        "small": sizes["small"],
        "large": sizes["large"],
        "size_ratio": large / small,
        "attach_ratio": ratio,
        # "~constant": growing the dataset 4x must not grow the attach
        # anywhere near 4x (mmap + header parse does not touch the rows).
        # The bound is loose because both sides are tens of microseconds.
        "attach_constant": ratio < 3.0,
        "attach_beats_unpickle": (
            sizes["large"]["attach_seconds"] < sizes["large"]["unpickle_seconds"]
        ),
    }


# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--attach-small", type=int, default=10_000)
    parser.add_argument("--attach-large", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    args = parser.parse_args(argv)

    attach = run_attach_phase(args.attach_small, args.attach_large, args.seed)
    if "skipped" in attach:
        print(f"attach phase: skipped ({attach['skipped']})")
    else:
        print(f"attach phase: {attach['small']['attach_seconds'] * 1e6:.0f}us at "
              f"{attach['small']['objects']} objects vs "
              f"{attach['large']['attach_seconds'] * 1e6:.0f}us at "
              f"{attach['large']['objects']} "
              f"(x{attach['attach_ratio']:.2f} for x{attach['size_ratio']:.0f} data), "
              f"unpickle {attach['large']['unpickle_seconds'] * 1e3:.1f}ms, "
              f"constant={attach['attach_constant']}, "
              f"beats_unpickle={attach['attach_beats_unpickle']}")

    leaked = live_segment_names()
    print(f"leaked segments: {leaked or 'none'}")

    summary = {"attach": attach, "leaked_segments": leaked}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if "skipped" not in attach:
            if not attach["attach_constant"]:
                failures.append(
                    f"attach cost grew x{attach['attach_ratio']:.2f} for "
                    f"x{attach['size_ratio']:.0f} data (not ~constant)"
                )
            if not attach["attach_beats_unpickle"]:
                failures.append(
                    "attaching the dataset segment is slower than unpickling"
                )
        if leaked:
            failures.append(f"leaked shared-memory segments: {leaked}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("OK: attach is ~constant and beats pickle, no leaked segments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
