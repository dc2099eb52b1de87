"""Columnar data-plane gates: identity, reduce throughput, attach cost.

Three checks over the columnar data plane (``src/repro/index/columns.py``,
``src/repro/execution/shm.py`` and the columnar reduce paths of
``src/repro/core/jobs.py``):

1. **Identity** -- a randomized differential sweep: every query of every
   trial dataset is executed under ``REPRO_DATAPLANE=object`` (the original
   per-object loops, kept verbatim as the oracle) and
   ``REPRO_DATAPLANE=columnar``, across all three MapReduce algorithms.
   Entries (oids *and* scores) and every counter group must match
   bit-for-bit -- the counters feed planner calibration, so the columnar
   plane must preserve the cost model's accounting, not just the answers.
2. **Reduce throughput** -- a reduce-dominated pSPQ workload (large cells,
   selective radius) must run at least ``--min-speedup`` (default 2x)
   faster columnar than object, after one warm-up run per mode (the index
   build is shared cost, not reduce cost).
3. **Attach cost** -- attaching the dataset segment ``repro serve
   --cluster`` publishes for its shard nodes (``publish_dataset_segment``,
   then ``attach_segment`` + ``ColumnStore.attach``) is an ``shm_open`` +
   ``mmap`` + header parse: its cost must stay roughly constant while the
   dataset grows 4x, and must beat unpickling the same datasets by a wide
   margin.  Skipped (and not gated) where shared memory is unavailable --
   nodes load the dataset file there by design.

Run it as::

    PYTHONPATH=src python benchmarks/bench_dataplane.py
    python benchmarks/bench_dataplane.py --check         # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import sys
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.execution.shm import (
    attach_segment,
    live_segment_names,
    publish_dataset_segment,
    shared_memory_available,
)
from repro.index.columns import DATAPLANE_ENV, ColumnStore
from repro.model.query import SpatialPreferenceQuery

ALGORITHMS = ("pspq", "espq-len", "espq-sco")

Entry = Tuple[str, float]


def _set_mode(mode: str) -> None:
    os.environ[DATAPLANE_ENV] = mode


def _run_mode(
    mode: str,
    data,
    features,
    specs: Sequence[Tuple[SpatialPreferenceQuery, str]],
    grid_size: int,
) -> List[Tuple[List[Entry], Dict[str, Dict[str, object]]]]:
    """Execute every (query, algorithm) spec under one data-plane mode."""
    _set_mode(mode)
    out: List[Tuple[List[Entry], Dict[str, Dict[str, object]]]] = []
    with SPQEngine(data, features, config=EngineConfig(grid_size=grid_size)) as engine:
        for query, algorithm in specs:
            result = engine.execute_many(
                [query], algorithm=algorithm, grid_size=grid_size
            )[0]
            out.append((
                [(entry.obj.oid, entry.score) for entry in result.entries],
                {
                    group: dict(values)
                    for group, values in result.stats["counters"].items()
                },
            ))
    return out


# --------------------------------------------------------------------- #
# phase 1: randomized identity sweep


def run_identity_phase(trials: int, seed: int) -> Dict[str, object]:
    """Columnar vs object-mode oracle, bit-for-bit, over random workloads."""
    rng = random.Random(seed)
    started = time.perf_counter()
    mismatches = 0
    compared = 0
    for trial in range(trials):
        data, features = generate_uniform(
            SyntheticDatasetConfig(
                num_objects=rng.randint(200, 700), seed=seed * 1000 + trial
            )
        )
        grid_size = rng.choice((3, 5, 8))
        specs = []
        for _ in range(3):
            query = SpatialPreferenceQuery.create(
                k=rng.randint(1, 12),
                radius=rng.choice((0.5, 1.5, 3.0, 8.0)),
                keywords={f"w{rng.randrange(400):04d}"
                          for _ in range(rng.randint(1, 3))},
            )
            for algorithm in ALGORITHMS:
                specs.append((query, algorithm))
        oracle = _run_mode("object", data, features, specs, grid_size)
        columnar = _run_mode("columnar", data, features, specs, grid_size)
        for want, got in zip(oracle, columnar):
            compared += 1
            if want != got:
                mismatches += 1
    return {
        "trials": trials,
        "compared_runs": compared,
        "mismatches": mismatches,
        "identical": mismatches == 0,
        "seconds": time.perf_counter() - started,
    }


# --------------------------------------------------------------------- #
# phase 2: reduce-stream throughput


def run_throughput_phase(
    objects: int, grid_size: int, queries: int, seed: int
) -> Dict[str, object]:
    """Wall-clock of a reduce-dominated pSPQ workload, columnar vs object.

    The radius is a small fraction of the extent while the grid is coarse,
    so each reduce partition holds thousands of data rows of which only a
    narrow x-window can match any feature, and ``k`` is large so plenty of
    features survive the threshold check and reach the nested loop --
    exactly the shape the candidate-window prefilter accelerates.  Results
    are also compared to keep the timing honest.
    """
    data, features = generate_uniform(
        SyntheticDatasetConfig(num_objects=objects, seed=seed)
    )
    rng = random.Random(seed + 1)
    specs = [
        (
            SpatialPreferenceQuery.create(
                k=100, radius=0.4,
                keywords={f"w{rng.randrange(400):04d}" for _ in range(6)},
            ),
            "pspq",
        )
        for _ in range(queries)
    ]
    timings: Dict[str, float] = {}
    outputs = {}
    for mode in ("object", "columnar"):
        _set_mode(mode)
        with SPQEngine(
            data, features, config=EngineConfig(grid_size=grid_size)
        ) as engine:
            engine.execute_many(
                [specs[0][0]], algorithm="pspq", grid_size=grid_size
            )  # warm-up: index build + reduce blocks
            started = time.perf_counter()
            results = engine.execute_many(
                [query for query, _ in specs],
                algorithm="pspq",
                grid_size=grid_size,
            )
            timings[mode] = time.perf_counter() - started
            outputs[mode] = [
                [(entry.obj.oid, entry.score) for entry in result.entries]
                for result in results
            ]
    return {
        "objects": objects,
        "grid_size": grid_size,
        "queries": queries,
        "object_seconds": timings["object"],
        "columnar_seconds": timings["columnar"],
        "speedup": timings["object"] / max(timings["columnar"], 1e-9),
        "identical": outputs["object"] == outputs["columnar"],
    }


# --------------------------------------------------------------------- #
# phase 3: attach cost vs dataset size (and vs pickle)


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
    parser.add_argument("--trials", type=int, default=6,
                        help="identity-phase random datasets")
    parser.add_argument("--objects", type=int, default=20_000,
                        help="throughput-phase dataset size")
    parser.add_argument("--grid-size", type=int, default=4,
                        help="throughput-phase grid (coarse = big reduce cells)")
    parser.add_argument("--queries", type=int, default=3,
                        help="throughput-phase timed queries")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required columnar speedup on the reduce workload")
    parser.add_argument("--attach-small", type=int, default=10_000)
    parser.add_argument("--attach-large", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    args = parser.parse_args(argv)

    previous_mode = os.environ.get(DATAPLANE_ENV)
    try:
        identity = run_identity_phase(args.trials, args.seed)
        print(f"identity phase: {identity['compared_runs']} runs over "
              f"{identity['trials']} random datasets, "
              f"mismatches={identity['mismatches']} "
              f"({identity['seconds']:.1f}s)")

        throughput = run_throughput_phase(
            args.objects, args.grid_size, args.queries, args.seed
        )
        print(f"throughput phase: {throughput['queries']} pSPQ queries over "
              f"{throughput['objects']} objects (grid {throughput['grid_size']}): "
              f"object {throughput['object_seconds']:.2f}s, columnar "
              f"{throughput['columnar_seconds']:.2f}s "
              f"(x{throughput['speedup']:.2f}), "
              f"identical={throughput['identical']}")
    finally:
        if previous_mode is None:
            os.environ.pop(DATAPLANE_ENV, None)
        else:
            os.environ[DATAPLANE_ENV] = previous_mode

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

    summary = {
        "identity": identity,
        "throughput": throughput,
        "attach": attach,
        "leaked_segments": leaked,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not identity["identical"]:
            failures.append(
                f"{identity['mismatches']} of {identity['compared_runs']} "
                "columnar runs differ from the object-mode oracle"
            )
        if not throughput["identical"]:
            failures.append("throughput workload results differ between modes")
        if throughput["speedup"] < args.min_speedup:
            failures.append(
                f"columnar reduce speedup x{throughput['speedup']:.2f} is below "
                f"the x{args.min_speedup:.1f} gate"
            )
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
        print("OK: columnar plane is bit-for-bit identical, "
              f"x{throughput['speedup']:.2f} on the reduce workload, "
              "attach is ~constant and beats pickle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
