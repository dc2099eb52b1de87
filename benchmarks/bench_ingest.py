"""Streaming-ingest gates: identity, incremental cost, writes under load.

Four checks over the delta-index write path (``POST /objects``,
``src/repro/index/delta.py``; see ``docs/ingest.md``):

1. **Identity** -- after a scripted sequence of incremental append/delete
   batches, every response of (a) an unsharded delta-serving service and
   (b) a 4-shard delta-routing :class:`ShardRouter` is **bit-for-bit**
   identical (oids and scores, ties included) to a fresh engine
   bulk-swapped to the final dataset state with the served extent pinned
   -- across pSPQ, eSPQlen, eSPQsco and ``auto`` (an ``auto`` answer must
   equal the centralized oracle's positively scored prefix, ties
   included).  Re-checked after a compaction folds the delta.
2. **Incremental cost** -- absorbing a 1% append batch (write + first
   probe query) must be at least ``--min-speedup`` (default 5x) cheaper
   than a full ``swap_datasets`` of the same final state (swap + first
   probe query), which is the whole point of the delta layer.
3. **Writes under load** -- ``--requests`` (default 3000) requests are
   served by client threads while write batches land and one compaction
   runs mid-stream: no request may fail or be lost, and every response
   must be bit-for-bit equal to one of the staged dataset states (the
   state before any write, or the state after any complete batch) --
   a torn answer that mixes two states fails the gate.  Run twice: against
   the unsharded service, and against the 4-shard router, where a write
   batch is applied shard by shard and only the router's quiesce gate
   keeps a concurrent scatter from merging two states.

4. **Tombstone cost** -- two engines over the same 10k clustered dataset,
   one carrying a single live data tombstone (in its most crowded cell),
   one bulk-swapped to that state, read alternately with the same warmed
   queries on the index path: per algorithm the tombstoned median may be
   at most 1.25x the compacted one (ROADMAP item 2: "within 1.25x of a
   compacted read"), and the *first* read after each new tombstone at most
   1.5x the steady tombstoned read -- a delete must reach the reducers as
   a filtered view of the cell's block, not by re-deriving the base.

5. **Compaction fold** -- two services over the same 10k clustered
   dataset take the same write burst (2 data and 64 feature appends, one
   delete of each kind); one then compacts, folding the delta into its
   retired index (``DatasetIndex.fold``), the other is swapped to the
   identical final state with ``swap_datasets`` (a fresh build).  The
   first read of a warmed query after each is timed, sides alternating,
   over ``FOLD_ROUNDS`` rounds: the median folded first read may be at
   most ``MAX_FOLD_RATIO`` of the swapped one, both must answer alike,
   and the warmed query must find its Lemma-1 lists carried over the
   fold (``radius_cache_hit``).

Run it as::

    python benchmarks/bench_ingest.py                  # report only
    python benchmarks/bench_ingest.py --check          # exit 1 on any gate
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import threading
import time
from typing import Dict, List, Sequence, Tuple

from _oracle import reference_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.index.delta import DatasetDelta, materialize
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig
from repro.sharding import ShardRouter, ShardingConfig

Entry = Tuple[str, float]

MR_ALGORITHMS = ("pspq", "espq-len", "espq-sco")


def response_entries(response: Dict[str, object]) -> Tuple[Entry, ...]:
    """The (oid, score) fingerprint of one service/router response."""
    return tuple(
        (entry["oid"], entry["score"]) for entry in response["results"]
    )


def engine_entries(result) -> Tuple[Entry, ...]:
    return tuple((entry.obj.oid, entry.score) for entry in result.entries)


def make_specs(seed: int) -> List[Dict[str, object]]:
    """Mixed workload: every algorithm, multi-keyword and zero-match specs."""
    rng = random.Random(seed)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(6)]
    specs: List[Dict[str, object]] = []
    for index, algorithm in enumerate((*MR_ALGORITHMS, "auto")):
        for offset, radius in enumerate((2.0, 3.0)):
            specs.append({
                "keywords": [pool[(index + offset) % len(pool)]],
                "k": 5 + 5 * offset,
                "radius": radius,
                "algorithm": algorithm,
            })
        specs.append({
            "keywords": [pool[index % len(pool)], pool[(index + 1) % len(pool)]],
            "k": 10,
            "radius": 2.0,
            "algorithm": algorithm,
        })
    specs.append({
        "keywords": ["zz-no-such-keyword"], "k": 5, "radius": 2.0,
        "algorithm": "espq-sco",
    })
    return specs


def scripted_ops(data, features, extent, seed: int, batches: int = 6):
    """Deterministic append/delete batches, appends inside the extent."""
    rng = random.Random(seed)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(6)]
    pad_x = (extent.max_x - extent.min_x) * 0.05
    pad_y = (extent.max_y - extent.min_y) * 0.05
    live_data = [obj.oid for obj in data]
    live_features = [obj.oid for obj in features]
    ops = []
    for batch in range(batches):
        append_data = [
            DataObject(
                oid=f"in-d{batch}-{i}",
                x=rng.uniform(extent.min_x + pad_x, extent.max_x - pad_x),
                y=rng.uniform(extent.min_y + pad_y, extent.max_y - pad_y),
            )
            for i in range(rng.randrange(2, 6))
        ]
        append_features = [
            FeatureObject(
                oid=f"in-f{batch}-{i}",
                x=rng.uniform(extent.min_x + pad_x, extent.max_x - pad_x),
                y=rng.uniform(extent.min_y + pad_y, extent.max_y - pad_y),
                keywords=frozenset(rng.sample(pool, 2)),
            )
            for i in range(rng.randrange(1, 4))
        ]
        delete_data = (
            rng.sample(live_data, 2) if batch % 2 else []
        )
        delete_features = (
            rng.sample(live_features, 2) if batch % 3 == 1 else []
        )
        for oid in delete_data:
            live_data.remove(oid)
        for oid in delete_features:
            live_features.remove(oid)
        live_data.extend(obj.oid for obj in append_data)
        live_features.extend(obj.oid for obj in append_features)
        ops.append({
            "append_data": append_data,
            "append_features": append_features,
            "delete_data_oids": delete_data,
            "delete_feature_oids": delete_features,
        })
    return ops


def apply_ops(target, ops) -> None:
    for op in ops:
        target.apply_objects(**op)


def final_state(data, features, ops):
    """The bulk-swap endpoint: every batch folded, in storage order."""
    delta = DatasetDelta()
    cur_data, cur_features = list(data), list(features)
    for op in ops:
        delta.reset()
        delta.apply(
            **op,
            base_data_oids={obj.oid for obj in cur_data},
            base_feature_oids={obj.oid for obj in cur_features},
        )
        cur_data, cur_features = materialize(
            cur_data, cur_features, delta.snapshot()
        )
    return cur_data, cur_features


def oracle_answers(
    data, features, extent, specs: Sequence[Dict[str, object]], grid_size: int
) -> List[Dict[str, Tuple[Entry, ...]]]:
    """Per-spec oracle fingerprints from a pinned-extent bulk-swap engine.

    An explicit spec maps to its algorithm's raw-stream fingerprint; an
    ``auto`` spec to the centralized oracle's positively scored prefix,
    ties included (``reference_execute``).
    """
    answers: List[Dict[str, Tuple[Entry, ...]]] = []
    with SPQEngine(
        data, features, config=EngineConfig(grid_size=grid_size), extent=extent
    ) as engine:
        for spec in specs:
            query = SpatialPreferenceQuery.create(
                k=spec["k"], radius=spec["radius"],
                keywords=set(spec["keywords"]),
            )
            answers.append({
                spec["algorithm"]: engine_entries(reference_execute(
                    engine, query, algorithm=spec["algorithm"], grid_size=grid_size
                ))
            })
    return answers


def check_identity(target, specs, expected) -> int:
    mismatches = 0
    for spec, want in zip(specs, expected):
        got = response_entries(target.submit(spec))
        if got not in set(want.values()):
            mismatches += 1
    return mismatches


# --------------------------------------------------------------------- #
# phase 1: identity (unsharded service + 4-shard router vs bulk swap)


def run_identity_phase(
    data, features, grid_size: int, shards: int, seed: int
) -> Dict[str, object]:
    specs = make_specs(seed)
    service = QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=grid_size),
        config=ServiceConfig(engines=1, default_grid_size=grid_size),
    )
    router = ShardRouter(
        data,
        features,
        engine_config=EngineConfig(grid_size=grid_size),
        service_config=ServiceConfig(
            engines=1, result_cache_capacity=0, default_grid_size=grid_size
        ),
        sharding=ShardingConfig(shards=shards),
    )
    with service, router:
        extent = service.engines[0].extent
        ops = scripted_ops(data, features, extent, seed + 5)
        fdata, ffeatures = final_state(data, features, ops)
        expected = oracle_answers(fdata, ffeatures, extent, specs, grid_size)

        apply_ops(service, ops)
        apply_ops(router, ops)
        service_mismatches = check_identity(service, specs, expected)
        router_mismatches = check_identity(router, specs, expected)

        compact_info = service.compact()
        router_compact = router.compact()
        service_post_compact = check_identity(service, specs, expected)
        router_post_compact = check_identity(router, specs, expected)

    total_ops = sum(
        len(op["append_data"]) + len(op["append_features"])
        + len(op["delete_data_oids"]) + len(op["delete_feature_oids"])
        for op in ops
    )
    return {
        "num_specs": len(specs),
        "write_batches": len(ops),
        "incremental_ops": total_ops,
        "shards": shards,
        "grid_size": grid_size,
        "service_mismatches": service_mismatches,
        "router_mismatches": router_mismatches,
        "service_post_compaction_mismatches": service_post_compact,
        "router_post_compaction_mismatches": router_post_compact,
        "compaction_folded_ops": compact_info["folded_ops"],
        "router_compaction_folded_ops": router_compact["folded_ops"],
        "identical_results": not (
            service_mismatches or router_mismatches
            or service_post_compact or router_post_compact
        ),
    }


# --------------------------------------------------------------------- #
# phase 2: incremental cost (1% append vs full swap)


def run_cost_phase(
    data, features, grid_size: int, seed: int, append_fraction: float = 0.01
) -> Dict[str, object]:
    rng = random.Random(seed + 9)
    probe = {"keywords": [f"w{rng.randrange(400):04d}"], "k": 10, "radius": 2.0}

    def timed(service, action) -> float:
        # One-shot timings: start both from a collected heap, or whichever
        # side a pending full collection (~80 ms after the identity phase)
        # happens to land in decides the ratio.
        gc.collect()
        started = time.perf_counter()
        action()
        service.submit(probe)  # first post-op query pays any rebuild
        return time.perf_counter() - started

    def build():
        return QueryService(
            data,
            features,
            engine_config=EngineConfig(grid_size=grid_size),
            config=ServiceConfig(
                engines=1, result_cache_capacity=0,
                default_grid_size=grid_size,
            ),
        )

    count = max(1, int(len(data) * append_fraction))
    with build() as service:
        extent = service.engines[0].extent
        pad_x = (extent.max_x - extent.min_x) * 0.05
        pad_y = (extent.max_y - extent.min_y) * 0.05
        appended = [
            DataObject(
                oid=f"cost-d{i}",
                x=rng.uniform(extent.min_x + pad_x, extent.max_x - pad_x),
                y=rng.uniform(extent.min_y + pad_y, extent.max_y - pad_y),
            )
            for i in range(count)
        ]
        service.submit(probe)  # warm the base indexes
        append_seconds = timed(
            service, lambda: service.apply_objects(append_data=appended)
        )
    swapped = list(data) + appended
    with build() as service:
        service.submit(probe)
        swap_seconds = timed(
            service, lambda: service.swap_datasets(swapped, features)
        )
    return {
        "appended_objects": count,
        "append_fraction": append_fraction,
        "append_seconds": append_seconds,
        "full_swap_seconds": swap_seconds,
        "speedup": (
            swap_seconds / append_seconds if append_seconds else float("inf")
        ),
    }


# --------------------------------------------------------------------- #
# phase 3: writes (and one compaction) under sustained load


def run_load_phase(
    data, features, grid_size: int, requests: int, client_threads: int,
    seed: int, write_batches: int = 8, shards: int = 0,
) -> Dict[str, object]:
    """Serve under writes; ``shards`` > 0 targets a shard router instead."""
    rng = random.Random(seed + 17)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(6)]
    specs = [
        {"keywords": [word], "k": 5, "radius": radius, "algorithm": algorithm}
        for word, radius, algorithm in (
            (pool[0], 2.0, "pspq"),
            (pool[1], 3.0, "pspq"),
            (pool[2], 2.0, "espq-len"),
            (pool[3], 3.0, "espq-len"),
            (pool[4], 2.0, "espq-sco"),
            (pool[5], 3.0, "espq-sco"),
        )
    ]

    engine_config = EngineConfig(grid_size=grid_size)
    service_config = ServiceConfig(
        engines=2, result_cache_capacity=64, default_grid_size=grid_size
    )
    if shards:
        service = ShardRouter(
            data, features, engine_config=engine_config,
            service_config=service_config,
            sharding=ShardingConfig(shards=shards),
        )
    else:
        service = QueryService(
            data, features, engine_config=engine_config, config=service_config
        )
    with service:
        extent = service.plan.extent if shards else service.engines[0].extent
        ops = scripted_ops(data, features, extent, seed + 23,
                           batches=write_batches)

        # K+1 staged oracles: before any write, and after each batch.
        staged: List[List[Tuple[Entry, ...]]] = []
        cur_data, cur_features = list(data), list(features)
        staged.append([
            answers[spec["algorithm"]]
            for spec, answers in zip(
                specs,
                oracle_answers(cur_data, cur_features, extent, specs, grid_size),
            )
        ])
        states = [None] * len(ops)
        for index, op in enumerate(ops):
            cur_data, cur_features = final_state(cur_data, cur_features, [op])
            states[index] = (cur_data, cur_features)
            staged.append([
                answers[spec["algorithm"]]
                for spec, answers in zip(
                    specs,
                    oracle_answers(
                        cur_data, cur_features, extent, specs, grid_size
                    ),
                )
            ])
        references = [
            {stage[spec_index] for stage in staged}
            for spec_index in range(len(specs))
        ]

        issued = 0
        completed = 0
        invalid = 0
        errors: List[str] = []
        lock = threading.Lock()

        def client(worker: int) -> None:
            nonlocal issued, completed, invalid
            local_rng = random.Random(seed + worker)
            while True:
                with lock:
                    if issued >= requests:
                        return
                    issued += 1
                index = local_rng.randrange(len(specs))
                try:
                    response = service.submit(specs[index])
                except Exception as exc:  # noqa: BLE001 - counted as a loss
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                entries = response_entries(response)
                with lock:
                    completed += 1
                    if entries not in references[index]:
                        invalid += 1

        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(client_threads)
        ]
        for thread in threads:
            thread.start()
        compactions = 0
        for index, op in enumerate(ops):
            service.apply_objects(**op)
            if index == len(ops) // 2 and service.compact()["compacted"]:
                compactions += 1
            time.sleep(0.05)
        for thread in threads:
            thread.join()

    return {
        "requests": requests,
        "client_threads": client_threads,
        "shards": shards,
        "write_batches": len(ops),
        "compactions": compactions,
        "issued": issued,
        "completed": completed,
        "failed": len(errors),
        "errors": errors[:5],
        "invalid_responses": invalid,
        "lost_requests": issued - completed,
    }


# --------------------------------------------------------------------- #

#: Phase-4 gates: tombstoned / compacted median read, and first read after a
#: new tombstone / steady tombstoned read.
MAX_TOMBSTONE_RATIO = 1.25
MAX_FIRST_READ_RATIO = 1.5


def run_tombstone_phase(
    grid_size: int, seed: int, reads: int = 40, rounds: int = 8
) -> Dict[str, object]:
    """Phase 4: what live data tombstones cost a read on the index path."""
    data, features = generate_clustered(
        SyntheticDatasetConfig(num_objects=10_000, seed=7)
    )
    rng = random.Random(seed)
    config = EngineConfig(grid_size=grid_size)
    vocabulary = [f"w{number:04d}" for number in range(1000)]
    queries = [
        SpatialPreferenceQuery.create(
            k=10, radius=0.25 * 100.0 / grid_size, keywords=rng.sample(vocabulary, 3)
        )
        for _ in range(reads)
    ]

    def read_ms(engine, query, algorithm) -> float:
        started = time.perf_counter()
        engine.execute_many([query], algorithm=algorithm)
        return (time.perf_counter() - started) * 1000.0

    with SPQEngine(data, features, config=config) as tombstoned:
        index = tombstoned.get_index(grid_size)
        # Victims come from the most crowded cells, where a filtered view
        # costs the most and nearly every read touches it.
        crowded = sorted(index.data_cell_counts, key=index.data_cell_counts.get)
        victims = [
            next(
                obj.oid
                for position, obj in enumerate(data)
                if index.data_cell_of(position) == cell
            )
            for cell in reversed(crowded[-(rounds + 1):])
        ]
        tombstoned.apply_updates(delete_data_oids=victims[:1])
        final_data, final_features = tombstoned.materialize_datasets()
        algorithms: Dict[str, Dict[str, float]] = {}
        with SPQEngine(
            final_data, final_features, config=config, extent=tombstoned.extent
        ) as compacted:
            for algorithm in MR_ALGORITHMS:
                for query in queries:  # warm: blocks, radius lists, planner
                    read_ms(tombstoned, query, algorithm)
                    read_ms(compacted, query, algorithm)
                samples = {"tombstoned": [], "compacted": []}
                for number, query in enumerate(queries):
                    order = (
                        (("tombstoned", tombstoned), ("compacted", compacted))
                        if number % 2
                        else (("compacted", compacted), ("tombstoned", tombstoned))
                    )
                    for name, engine in order:
                        samples[name].append(read_ms(engine, query, algorithm))
                medians = {
                    name: statistics.median(values) for name, values in samples.items()
                }
                algorithms[algorithm] = {
                    "tombstoned_ms": medians["tombstoned"],
                    "compacted_ms": medians["compacted"],
                    "ratio": medians["tombstoned"] / medians["compacted"],
                }
        # First read after each *new* tombstone vs the same read repeated.
        first: Dict[str, List[float]] = {name: [] for name in MR_ALGORITHMS}
        steady: Dict[str, List[float]] = {name: [] for name in MR_ALGORITHMS}
        for number, victim in enumerate(victims[1:]):
            tombstoned.apply_updates(delete_data_oids=[victim])
            query = queries[number % len(queries)]
            for algorithm in MR_ALGORITHMS:
                first[algorithm].append(read_ms(tombstoned, query, algorithm))
            for algorithm in MR_ALGORITHMS:
                steady[algorithm].extend(
                    read_ms(tombstoned, query, algorithm) for _ in range(3)
                )
        for algorithm in MR_ALGORITHMS:
            entry = algorithms[algorithm]
            entry["first_read_ms"] = statistics.median(first[algorithm])
            entry["steady_read_ms"] = statistics.median(steady[algorithm])
            entry["first_read_ratio"] = (
                entry["first_read_ms"] / entry["steady_read_ms"]
            )
    return {
        "objects": len(data) + len(features),
        "reads_per_algorithm": reads,
        "new_tombstone_rounds": rounds,
        "algorithms": algorithms,
        "worst_ratio": max(entry["ratio"] for entry in algorithms.values()),
        "worst_first_read_ratio": max(
            entry["first_read_ratio"] for entry in algorithms.values()
        ),
    }


# --------------------------------------------------------------------- #
# phase 5: the first read after a compaction vs after a full swap

#: Phase-5 gate: median folded first read / median swapped first read.
MAX_FOLD_RATIO = 0.5
FOLD_ROUNDS = 7


def run_fold_phase(
    grid_size: int, seed: int, rounds: int = FOLD_ROUNDS
) -> Dict[str, object]:
    """Phase 5: what the first read after ``compact()`` costs."""
    data, features = generate_clustered(
        SyntheticDatasetConfig(num_objects=10_000, seed=7)
    )
    rng = random.Random(seed + 5)
    vocabulary = [f"w{number:04d}" for number in range(1000)]
    # The appended features never hold the query's words, so every
    # candidate of the first folded read is a carried one.
    spec = {"keywords": vocabulary[:3], "k": 10, "radius": 0.25 * 100.0 / grid_size,
            "stats": True}

    def build():
        return QueryService(
            data, features,
            engine_config=EngineConfig(grid_size=grid_size),
            config=ServiceConfig(
                engines=1, result_cache_capacity=0, default_grid_size=grid_size,
            ),
        )

    def first_read(service, action) -> Tuple[float, Dict[str, object]]:
        gc.collect()
        action()
        started = time.perf_counter()
        response = service.submit(spec)
        return (time.perf_counter() - started) * 1000.0, response

    folded_ms: List[float] = []
    swapped_ms: List[float] = []
    mismatches = 0
    cold_radius = 0
    with build() as folding, build() as swapping:
        extent = folding.engines[0].extent
        live_data = [obj.oid for obj in data]
        live_features = [obj.oid for obj in features]
        rng.shuffle(live_data)
        rng.shuffle(live_features)
        for number in range(rounds):
            folding.submit(spec)  # warm both: index, radius lists, blocks
            swapping.submit(spec)
            appended_data = [
                DataObject(oid=f"fold-d{number}-{i}", x=rng.uniform(10, 90),
                           y=rng.uniform(10, 90))
                for i in range(2)
            ]
            appended_features = [
                FeatureObject(
                    oid=f"fold-f{number}-{i}", x=rng.uniform(10, 90),
                    y=rng.uniform(10, 90),
                    keywords=rng.sample(vocabulary[3:], rng.randint(10, 100)),
                )
                for i in range(64)
            ]
            folding.apply_objects(
                append_data=appended_data, append_features=appended_features,
                delete_data_oids=[live_data.pop()],
                delete_feature_oids=[live_features.pop()],
            )
            final = folding.engines[0].materialize_datasets()
            sides = [
                ("fold", folding, folding.compact),
                ("swap", swapping,
                 lambda: swapping.swap_datasets(*final, extent=extent)),
            ]
            answers = {}
            for name, service, action in sides[::-1] if number % 2 else sides:
                elapsed, answers[name] = first_read(service, action)
                (folded_ms if name == "fold" else swapped_ms).append(elapsed)
            mismatches += answers["fold"]["results"] != answers["swap"]["results"]
            cold_radius += not answers["fold"]["stats"]["index"]["radius_cache_hit"]
    folded, swapped = statistics.median(folded_ms), statistics.median(swapped_ms)
    return {
        "objects": len(data) + len(features),
        "rounds": rounds,
        "folded_first_read_ms": folded,
        "swapped_first_read_ms": swapped,
        "ratio": folded / swapped,
        "mismatches": mismatches,
        "cold_radius_reads": cold_radius,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--grid-size", type=int, default=12,
                        help="query grid (12 is aligned with the 2x2 shard layout)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--requests", type=int, default=3_000,
                        help="load-phase request count")
    parser.add_argument("--client-threads", type=int, default=8)
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required full-swap/append cost ratio")
    args = parser.parse_args(argv)

    data, features = generate_uniform(
        SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    )

    print(f"dataset: {args.objects} objects, grid {args.grid_size}, "
          f"{args.shards} shards")
    identity = run_identity_phase(
        data, features, args.grid_size, args.shards, args.seed
    )
    print(f"identity phase: {identity['num_specs']} specs after "
          f"{identity['write_batches']} batches "
          f"({identity['incremental_ops']} ops): service="
          f"{identity['service_mismatches']} router="
          f"{identity['router_mismatches']} post-compaction="
          f"{identity['service_post_compaction_mismatches']}/"
          f"{identity['router_post_compaction_mismatches']} mismatches")

    cost = run_cost_phase(data, features, args.grid_size, args.seed)
    print(f"cost phase: {cost['appended_objects']}-object append "
          f"{cost['append_seconds'] * 1000:.1f}ms vs full swap "
          f"{cost['full_swap_seconds'] * 1000:.1f}ms -> "
          f"{cost['speedup']:.1f}x cheaper")

    loads = {}
    for name, shards in (("service", 0), ("router", args.shards)):
        load = loads[name] = run_load_phase(
            data, features, args.grid_size, args.requests,
            args.client_threads, args.seed, shards=shards,
        )
        print(f"load phase ({name}): {load['completed']}/{load['issued']} "
              f"served during {load['write_batches']} write batches + "
              f"{load['compactions']} compaction(s); {load['failed']} failed, "
              f"{load['invalid_responses']} invalid")

    tombstone = run_tombstone_phase(args.grid_size, args.seed)
    for algorithm, entry in tombstone["algorithms"].items():
        print(f"tombstone phase ({algorithm}): {entry['tombstoned_ms']:.1f}ms "
              f"with one live data tombstone vs {entry['compacted_ms']:.1f}ms "
              f"compacted -> x{entry['ratio']:.2f}; first read after a new "
              f"tombstone {entry['first_read_ms']:.1f}ms vs "
              f"{entry['steady_read_ms']:.1f}ms steady -> "
              f"x{entry['first_read_ratio']:.2f}")

    fold = run_fold_phase(args.grid_size, args.seed)
    print(f"fold phase: first read after compact() {fold['folded_first_read_ms']:.1f}ms "
          f"vs after a swap {fold['swapped_first_read_ms']:.1f}ms -> "
          f"x{fold['ratio']:.2f} over {fold['rounds']} rounds; "
          f"{fold['mismatches']} mismatches, "
          f"{fold['cold_radius_reads']} reads without the carried radius")

    summary = {
        "workload": {
            "objects": args.objects,
            "grid_size": args.grid_size,
            "shards": args.shards,
            "requests": args.requests,
            "client_threads": args.client_threads,
            "seed": args.seed,
        },
        "identity": identity,
        "cost": cost,
        "load": loads["service"],
        "load_sharded": loads["router"],
        "tombstone": tombstone,
        "fold": fold,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not identity["identical_results"]:
            failures.append(
                f"identity: service={identity['service_mismatches']} "
                f"router={identity['router_mismatches']} post-compaction="
                f"{identity['service_post_compaction_mismatches']}/"
                f"{identity['router_post_compaction_mismatches']} responses "
                "differ from the bulk-swap oracle"
            )
        if cost["speedup"] < args.min_speedup:
            failures.append(
                f"incremental cost: {cost['speedup']:.1f}x below required "
                f"{args.min_speedup}x vs a full swap"
            )
        for name, load in loads.items():
            if load["failed"] or load["lost_requests"]:
                failures.append(
                    f"load ({name}): {load['failed']} failed, "
                    f"{load['lost_requests']} unanswered requests"
                )
            if load["invalid_responses"]:
                failures.append(
                    f"load ({name}): {load['invalid_responses']} responses "
                    "matched no staged dataset state"
                )
            if not load["compactions"]:
                failures.append(
                    f"load ({name}): the mid-stream compaction did not run"
                )
        for algorithm, entry in tombstone["algorithms"].items():
            if entry["ratio"] > MAX_TOMBSTONE_RATIO:
                failures.append(
                    f"tombstone cost ({algorithm}): x{entry['ratio']:.2f} a "
                    f"compacted read, above x{MAX_TOMBSTONE_RATIO}"
                )
            if entry["first_read_ratio"] > MAX_FIRST_READ_RATIO:
                failures.append(
                    f"tombstone cost ({algorithm}): first read after a new "
                    f"tombstone x{entry['first_read_ratio']:.2f} the steady "
                    f"read, above x{MAX_FIRST_READ_RATIO}"
                )
        if fold["ratio"] > MAX_FOLD_RATIO:
            failures.append(
                f"compaction fold: the first read after compact() is "
                f"x{fold['ratio']:.2f} the first read after a swap, above "
                f"x{MAX_FOLD_RATIO}"
            )
        if fold["mismatches"] or fold["cold_radius_reads"]:
            failures.append(
                f"compaction fold: {fold['mismatches']} answers differ from "
                f"the swap's, {fold['cold_radius_reads']} warmed reads missed "
                "their carried radius"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"OK: identity bit-for-bit, append {cost['speedup']:.1f}x >= "
              f"{args.min_speedup}x cheaper than a swap, "
              f"{sum(load['completed'] for load in loads.values())} requests "
              "served losslessly under writes (service + router), a live data "
              f"tombstone costs x{tombstone['worst_ratio']:.2f} <= "
              f"x{MAX_TOMBSTONE_RATIO} (first read "
              f"x{tombstone['worst_first_read_ratio']:.2f} <= "
              f"x{MAX_FIRST_READ_RATIO}), the first read after a compaction "
              f"x{fold['ratio']:.2f} <= x{MAX_FOLD_RATIO} the first read "
              "after a swap")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
