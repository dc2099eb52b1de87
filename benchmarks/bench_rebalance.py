"""Skew-layout gates: identity, hotspot p99 win, rebalance under load.

Three checks over the skew-aware shard layout and live rebalancing
(``src/repro/sharding/layout.py``, ``ShardRouter.rebalance``):

1. **Identity** -- every response of a 4-shard *skew-layout* router is
   bit-for-bit identical (oids and scores) to offline ``SPQEngine.execute``
   on a fresh unsharded engine, across all three MapReduce algorithms,
   ``auto`` and zero-match queries (the bench grid equals the layout
   resolution, so the layout is grid-aligned and the identity contract
   covers tie composition too -- see ``docs/sharding.md``).
2. **Hotspot p99** -- on a dataset with ~90% of its mass in one corner, a
   uniform 2x2 layout parks nearly every object in one shard: that shard
   serializes the fleet and caps tail latency.  The skew layout splits the
   hot mass count-evenly; under concurrent clients its p99 must be at
   least ``--min-p99-ratio`` (default 1.5x) better than uniform's.  The
   four shard services run in this one process with tasks inline (see
   ``bench_sharding.py``).
   Auto-skips (with the reason reported) below ``--min-cores`` usable
   cores (default 4).
3. **Rebalance under load** -- ~3000 requests hammer a router while
   ``rebalance()`` flips the layout skew -> uniform -> skew.  The dataset
   never changes, so every single response must equal the one unsharded
   oracle: zero failures, zero lost requests, zero divergent answers.

Run it as::

    python benchmarks/bench_rebalance.py                  # report only
    python benchmarks/bench_rebalance.py --check          # exit 1 on any gate
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import random
import sys
import threading
import time
from typing import Dict, List, Sequence, Tuple

from _oracle import raw_execute, reference_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_clustered
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import ServiceConfig
from repro.sharding import ShardRouter, ShardingConfig

Entry = Tuple[str, float]

VOCABULARY = 400


def generate_hotspot(num_objects: int, seed: int):
    """~90% of objects inside one corner box of a [0, 100]^2 extent."""
    rng = random.Random(seed)

    def point() -> Tuple[float, float]:
        if rng.random() < 0.9:
            return rng.uniform(5.0, 15.0), rng.uniform(5.0, 15.0)
        return rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)

    def words() -> frozenset:
        return frozenset(
            f"w{rng.randrange(VOCABULARY):04d}"
            for _ in range(rng.randrange(1, 4))
        )

    data = [DataObject(f"d{i:06d}", *point()) for i in range(num_objects)]
    features = [
        FeatureObject(f"f{i:06d}", *point(), keywords=words())
        for i in range(num_objects // 2)
    ]
    # Anchor the full extent so layouts grid over [0, 100]^2 exactly.
    data.append(DataObject("d-anchor-lo", 0.0, 0.0))
    data.append(DataObject("d-anchor-hi", 100.0, 100.0))
    return data, features


def reference_results(
    data, features, specs: Sequence[Dict[str, object]], grid_size: int
) -> List[List[Entry]]:
    """Per-spec (oid, score) oracle from a fresh unsharded engine."""
    results: List[List[Entry]] = []
    with SPQEngine(data, features, config=EngineConfig(grid_size=grid_size)) as engine:
        for spec in specs:
            query = SpatialPreferenceQuery.create(
                k=spec["k"], radius=spec["radius"], keywords=set(spec["keywords"])
            )
            result = reference_execute(
                engine, query, algorithm=spec.get("algorithm", "espq-sco"),
                grid_size=grid_size,
            )
            results.append([(entry.obj.oid, entry.score) for entry in result])
    return results


def response_entries(response: Dict[str, object]) -> List[Entry]:
    return [(entry["oid"], entry["score"]) for entry in response["results"]]


def make_router(
    data, features, shards: int, grid_size: int, layout: str,
) -> ShardRouter:
    """A router over ``grid_size`` grids with the layout grid snapped to it."""
    return ShardRouter(
        data,
        features,
        engine_config=EngineConfig(grid_size=grid_size),
        service_config=ServiceConfig(
            engines=1,
            result_cache_capacity=0,
            default_grid_size=grid_size,
        ),
        sharding=ShardingConfig(shards=shards, layout=layout),
    )


# --------------------------------------------------------------------- #
# phase 1: identity on the skew layout

def identity_specs(seed: int) -> List[Dict[str, object]]:
    rng = random.Random(seed)
    pool = [f"w{rng.randrange(VOCABULARY):04d}" for _ in range(6)]
    specs: List[Dict[str, object]] = []
    for index, algorithm in enumerate(("pspq", "espq-len", "espq-sco", "auto")):
        for offset, radius in enumerate((4.0, 8.0)):
            specs.append({
                "keywords": [pool[(index + offset) % len(pool)]],
                "k": 5 + 5 * offset,
                "radius": radius,
                "algorithm": algorithm,
            })
        specs.append({
            "keywords": [pool[index % len(pool)], pool[(index + 1) % len(pool)]],
            "k": 10,
            "radius": 6.0,
            "algorithm": algorithm,
        })
    specs.append({
        "keywords": ["zz-no-such-keyword"], "k": 5, "radius": 4.0,
        "algorithm": "espq-sco",
    })
    return specs


def run_identity_phase(
    data, features, grid_size: int, shards: int, seed: int
) -> Dict[str, object]:
    """Skew-layout router responses vs the unsharded oracle, bit-for-bit.

    ``auto`` specs are compared through the response's
    ``planned_algorithm``: the oracle runs the algorithm that answered.
    """
    specs = identity_specs(seed)
    mismatches = 0
    engine = SPQEngine(data, features, config=EngineConfig(grid_size=grid_size))

    def oracle(spec: Dict[str, object], algorithm: str) -> List[Entry]:
        query = SpatialPreferenceQuery.create(
            k=spec["k"], radius=spec["radius"], keywords=set(spec["keywords"])
        )
        result = raw_execute(engine, query, algorithm=algorithm, grid_size=grid_size)
        return [(entry.obj.oid, entry.score) for entry in result]

    with engine, make_router(data, features, shards, grid_size, "skew") as router:
        aligned = router.plan.grid_aligned(grid_size)
        layout_kind = router.plan.stats.kind
        imbalance = router.stats()["sharding"]["balance"]["imbalance"]
        for spec in specs:
            response = router.submit(spec)
            got = response_entries(response)
            algorithm = response.get("planned_algorithm", spec["algorithm"])
            if got != oracle(spec, algorithm):
                mismatches += 1
    return {
        "num_specs": len(specs),
        "shards": shards,
        "grid_size": grid_size,
        "layout": layout_kind,
        "grid_aligned": aligned,
        "imbalance": imbalance,
        "mismatches": mismatches,
        "identical_results": mismatches == 0,
    }


# --------------------------------------------------------------------- #
# phase 2: hotspot p99, uniform vs skew

def measure_p99(
    router: ShardRouter, specs: Sequence[Dict[str, object]],
    client_threads: int,
) -> Tuple[float, float]:
    """(p99 ms, mean ms) per-request latency under concurrent clients."""
    durations: List[float] = []
    lock = threading.Lock()

    def timed(spec: Dict[str, object]) -> None:
        started = time.perf_counter()
        router.submit(spec)
        elapsed = time.perf_counter() - started
        with lock:
            durations.append(elapsed)

    with concurrent.futures.ThreadPoolExecutor(client_threads) as pool:
        list(pool.map(timed, specs))
    durations.sort()
    p99 = durations[min(len(durations) - 1, int(0.99 * len(durations)))]
    mean = sum(durations) / len(durations)
    return p99 * 1000.0, mean * 1000.0


def run_p99_phase(
    data, features, grid_size: int, shards: int, requests: int,
    client_threads: int, seed: int, min_cores: int = 4,
) -> Dict[str, object]:
    """Uniform vs skew tail latency on hotspot data, four in-process shards."""
    # Cores this process may run on (a container's cpuset, not the host's
    # count).
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    if cores < min_cores:
        return {
            "skipped": True,
            "reason": f"{cores} usable core(s) (gate needs >= {min_cores})",
        }
    rng = random.Random(seed)
    pool = [f"w{rng.randrange(VOCABULARY):04d}" for _ in range(8)]
    specs = [
        {
            "keywords": [pool[i % len(pool)]],
            "k": 10,
            "radius": (4.0, 6.0)[i % 2],
        }
        for i in range(requests)
    ]
    results: Dict[str, Dict[str, float]] = {}
    for layout in ("uniform", "skew"):
        with make_router(data, features, shards, grid_size, layout) as router:
            imbalance = router.stats()["sharding"]["balance"]["imbalance"]
            # Warm engines and indexes off the clock.
            measure_p99(router, specs[: max(8, len(specs) // 4)],
                        client_threads)
            p99_ms, mean_ms = measure_p99(router, specs, client_threads)
        results[layout] = {
            "p99_ms": p99_ms, "mean_ms": mean_ms, "imbalance": imbalance,
        }
    return {
        "skipped": False,
        "cores": cores,
        "shards": shards,
        "requests": requests,
        "client_threads": client_threads,
        "uniform": results["uniform"],
        "skew": results["skew"],
        "p99_ratio": (
            results["uniform"]["p99_ms"] / results["skew"]["p99_ms"]
            if results["skew"]["p99_ms"] else float("inf")
        ),
    }


# --------------------------------------------------------------------- #
# phase 3: rebalance under load

def run_rebalance_phase(
    data, features, grid_size: int, shards: int,
    client_threads: int, requests_per_client: int, seed: int,
) -> Dict[str, object]:
    """Layout flips under sustained load: every answer must equal the one
    oracle (the dataset never changes), with zero failures or losses."""
    rng = random.Random(seed)
    pool = [f"w{rng.randrange(VOCABULARY):04d}" for _ in range(6)]
    specs = [
        {"keywords": [word], "k": 5, "radius": radius}
        for word in pool for radius in (4.0, 6.0)
    ]
    oracle = [
        tuple(map(tuple, entries))
        for entries in reference_results(data, features, specs, grid_size)
    ]

    issued = 0
    completed = 0
    invalid = 0
    errors: List[str] = []
    lock = threading.Lock()
    router = make_router(data, features, shards, grid_size, "uniform")

    def client(worker: int) -> None:
        nonlocal issued, completed, invalid
        for turn in range(requests_per_client):
            index = (worker + turn) % len(specs)
            with lock:
                issued += 1
            try:
                response = router.submit(specs[index])
            except Exception as exc:  # noqa: BLE001 - counted as a loss
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            entries = tuple(response_entries(response))
            with lock:
                completed += 1
                if entries != oracle[index]:
                    invalid += 1

    layouts = ("skew", "uniform", "skew")
    with router:
        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(client_threads)
        ]
        for thread in threads:
            thread.start()
        rebalance_seconds = []
        for layout in layouts:  # layout flips spread across the run
            time.sleep(0.15)
            started = time.perf_counter()
            router.rebalance(layout)
            rebalance_seconds.append(time.perf_counter() - started)
        for thread in threads:
            thread.join()
        stats = router.stats()

    return {
        "shards": shards,
        "client_threads": client_threads,
        "issued": issued,
        "completed": completed,
        "failed": len(errors),
        "invalid_responses": invalid,
        "errors": errors[:5],
        "rebalances": stats["sharding"]["balance"]["rebalances"],
        "final_layout": stats["sharding"]["balance"]["kind"],
        "rebalance_seconds": rebalance_seconds,
        "lost_requests": issued - completed,
        "router_failed_counter": stats["requests"]["failed"],
    }


# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--grid-size", type=int, default=12,
                        help="query grid == layout resolution (grid-aligned)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--p99-requests", type=int, default=200)
    parser.add_argument("--load-requests", type=int, default=3_000,
                        help="total rebalance-phase requests across clients")
    parser.add_argument("--client-threads", type=int, default=8)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    parser.add_argument("--min-p99-ratio", type=float, default=1.5)
    parser.add_argument("--min-cores", type=int, default=4,
                        help="skip the p99 gate below this many usable CPUs")
    args = parser.parse_args(argv)

    hot_data, hot_features = generate_hotspot(args.objects, args.seed)
    clustered_data, clustered_features = generate_clustered(
        SyntheticDatasetConfig(
            num_objects=args.objects // 4, seed=args.seed + 1,
            vocabulary_size=VOCABULARY,
        )
    )

    print(f"datasets: hotspot {args.objects} objects, clustered "
          f"{args.objects // 4} objects, grid {args.grid_size}, "
          f"{args.shards} shards")
    identity = run_identity_phase(
        clustered_data, clustered_features, args.grid_size, args.shards,
        args.seed,
    )
    print(f"identity phase: {identity['num_specs']} specs on the skew layout "
          f"(imbalance {identity['imbalance']:.2f}, aligned="
          f"{identity['grid_aligned']}), identical="
          f"{identity['identical_results']}")

    p99 = run_p99_phase(
        hot_data, hot_features, args.grid_size, args.shards,
        args.p99_requests, args.client_threads, args.seed,
        min_cores=args.min_cores,
    )
    if p99.get("skipped"):
        print(f"p99 phase: skipped ({p99['reason']})")
    else:
        print(f"p99 phase: uniform {p99['uniform']['p99_ms']:.1f}ms "
              f"(imbalance {p99['uniform']['imbalance']:.2f}) vs skew "
              f"{p99['skew']['p99_ms']:.1f}ms (imbalance "
              f"{p99['skew']['imbalance']:.2f}) -> {p99['p99_ratio']:.2f}x "
              f"on {p99['cores']} cores")

    requests_per_client = max(1, args.load_requests // args.client_threads)
    rebalance = run_rebalance_phase(
        clustered_data, clustered_features, args.grid_size, args.shards,
        args.client_threads, requests_per_client, args.seed,
    )
    print(f"rebalance phase: {rebalance['completed']}/{rebalance['issued']} "
          f"served across {rebalance['rebalances']} rebalances, "
          f"{rebalance['failed']} failed, "
          f"{rebalance['invalid_responses']} invalid, final layout "
          f"{rebalance['final_layout']}")

    summary = {
        "workload": {
            "objects": args.objects,
            "grid_size": args.grid_size,
            "shards": args.shards,
            "p99_requests": args.p99_requests,
            "load_requests": args.load_requests,
            "client_threads": args.client_threads,
            "seed": args.seed,
        },
        "identity": identity,
        "p99": p99,
        "rebalance": rebalance,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not identity["identical_results"]:
            failures.append(
                f"{identity['mismatches']} skew-sharded responses differ "
                "from the unsharded engine"
            )
        if not p99.get("skipped") and p99["p99_ratio"] < args.min_p99_ratio:
            failures.append(
                f"skew p99 win {p99['p99_ratio']:.2f}x below required "
                f"{args.min_p99_ratio}x"
            )
        if rebalance["failed"] or rebalance["lost_requests"]:
            failures.append(
                f"rebalance lost requests: {rebalance['failed']} failed, "
                f"{rebalance['lost_requests']} unanswered"
            )
        if rebalance["invalid_responses"]:
            failures.append(
                f"{rebalance['invalid_responses']} responses diverged from "
                "the oracle across rebalances"
            )
        if rebalance["rebalances"] != 3:
            failures.append(
                f"expected 3 rebalances, saw {rebalance['rebalances']}"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        ratio_note = (
            "skipped" if p99.get("skipped")
            else f"{p99['p99_ratio']:.2f}x >= {args.min_p99_ratio}x"
        )
        print(f"OK: identical results, p99 win {ratio_note}, "
              f"rebalance lost nothing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
