"""Columnar data-plane gate: the cluster's dataset hand-off maps cheaply and leaks nothing.

Two checks over ``src/repro/index/columns.py`` and the hand-off in
``src/repro/cluster/spawn.py``:

1. **Attach cost** -- mapping the dataset memory file ``repro serve
   --cluster`` writes for its shard nodes (``publish_dataset``, then
   ``mmap`` of the descriptor + ``ColumnStore.attach``) is constant in
   dataset size: its cost must stay roughly flat while the dataset grows
   4x, and must beat unpickling the same datasets by a wide margin.
   Skipped (and not gated) where ``os.memfd_create`` does not exist --
   nodes load the dataset file there by design.
2. **No leaks** -- no dataset memory file is still open in this process
   after the run (``/proc/self/fd``; CI's ``dataplane-gate`` also checks
   ``/dev/shm`` for named segments, which nothing creates any more).

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
import mmap
import os
import pickle
import sys
import time
from typing import Dict, List

from repro.cluster.spawn import DATASET_MEMFD, publish_dataset
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.index.columns import ColumnStore


def _time_best(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def _attach_and_detach(fd: int) -> None:
    """What a shard node does before it reads a row: map the file, index
    its columns zero-copy, then drop every view and unmap."""
    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as mapping:
        ColumnStore.attach(mapping).detach()


def open_dataset_memfds() -> List[str]:
    """The dataset memory files this process still holds a descriptor to."""
    held = []
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:  # the listing's own descriptor, already closed
            continue
        if target.startswith(f"/memfd:{DATASET_MEMFD}"):
            held.append(target)
    return held


def run_attach_phase(
    small: int, large: int, seed: int, repeats: int = 30
) -> Dict[str, object]:
    """Dataset-file attach vs dataset size, vs unpickling the datasets."""
    if not hasattr(os, "memfd_create"):
        return {"skipped": "os.memfd_create unavailable here"}
    sizes = {}
    fds = []
    try:
        for label, objects in (("small", small), ("large", large)):
            data, features = generate_uniform(
                SyntheticDatasetConfig(num_objects=objects, seed=seed)
            )
            fd = publish_dataset(data, features)
            fds.append(fd)
            blob = pickle.dumps((data, features), protocol=pickle.HIGHEST_PROTOCOL)
            sizes[label] = {
                "objects": objects,
                "file_bytes": os.fstat(fd).st_size,
                "attach_seconds": _time_best(
                    lambda fd=fd: _attach_and_detach(fd), repeats
                ),
                "unpickle_seconds": _time_best(lambda: pickle.loads(blob), repeats),
            }
    finally:
        for fd in fds:
            os.close(fd)
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

    leaked = open_dataset_memfds()
    print(f"leaked dataset memory files: {leaked or 'none'}")

    summary = {"attach": attach, "leaked_memfds": leaked}
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
                    "attaching the dataset file is slower than unpickling"
                )
        if leaked:
            failures.append(f"leaked dataset memory files: {leaked}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("OK: attach is ~constant and beats pickle, no leaked memory files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
