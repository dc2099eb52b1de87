"""Cluster gates: healthy identity, SIGKILL failover, degraded shape.

Three checks over cluster mode (``src/repro/cluster/``) -- real
``repro shard-node`` OS processes spawned from a dataset file, fronted by
a :class:`~repro.cluster.router.ClusterRouter`:

1. **Healthy identity** -- every response of a 4-shard x 1-replica fleet
   is bit-for-bit identical (oids and scores) to offline
   ``SPQEngine.execute`` on an unsharded engine, across all three
   MapReduce algorithms, ``auto`` and zero-match queries, on a
   shard-aligned grid (where the identity contract covers tie composition
   too -- see ``docs/sharding.md``).  ``auto`` responses are checked
   against the oracle running the algorithm the fleet actually planned:
   every node's cost model calibrates on its own shard slice, so its plan
   can legitimately differ from the full-data oracle's, and exact score
   ties at rank k may resolve to a different -- equally correct -- tied
   subset under a different algorithm's traversal order.  When the nodes
   themselves plan differently from each other, the response is instead
   held to the tie-aware contract: scores bit-for-bit, entries strictly
   above the rank-k score bit-for-bit, and every boundary entry a member
   of the true tied group.
2. **Failover** -- a 2-shard x 2-replica fleet serves a concurrent
   workload (default 3000 requests from 8 clients) while one node is
   SIGKILLed mid-run.  The gate requires **zero lost** requests (every
   issued request completes, none errors) and **zero incorrect**
   responses (every answer matches the unsharded oracle; none is
   degraded) -- the surviving replica of the killed shard absorbs the
   traffic via the router's per-request failover.
3. **Degraded shape** -- with *both* replicas of one shard dead, the
   router must still answer from the surviving shard, explicitly marked
   ``"degraded": true`` with ``"shards_answered"`` / ``"shards_missing"``
   listed.
4. **Keep-alive reuse** -- the router transport must actually ride warm
   connections: a probe burst against one node must reuse its pooled
   connection for every request after the first.  The per-request latency
   is reported; the reuse *counters* are the gate.

Every node binds port 0 and reports its OS-assigned port on its ready
line, so concurrent CI runs cannot collide.

Run it as::

    python benchmarks/bench_cluster.py                  # report only
    python benchmarks/bench_cluster.py --check          # exit 1 on any gate
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from _oracle import raw_execute, reference_execute
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    NodeSpec,
    spawn_local_nodes,
    terminate_nodes,
)
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.io import save_dataset
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.model.query import SpatialPreferenceQuery
from repro.server import ServiceConfig

Entry = Tuple[str, float]


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
    """The (oid, score) list of one router response."""
    return [(entry["oid"], entry["score"]) for entry in response["results"]]


class SpawnedFleet:
    """Shard-node subprocesses plus the router fronting them, one unit.

    The router is configured exactly like ``repro serve --cluster``
    builds it: node-matching grid size, single engine per node, and the
    requested replication laid out by :func:`spawn_local_nodes`.
    """

    def __init__(
        self,
        input_path,
        data,
        features,
        shards: int,
        replication: int,
        grid_size: int,
        result_cache: int,
        heartbeat_interval: float,
        node_deadline: float,
        log_dir,
    ) -> None:
        self.nodes = spawn_local_nodes(
            input_path,
            shards,
            replication=replication,
            grid_size=grid_size,
            engines=1,
            log_dir=log_dir,
        )
        try:
            self.router = ClusterRouter(
                data,
                features,
                [
                    NodeSpec(url=node.url, shard_index=node.shard_index)
                    for node in self.nodes
                ],
                cluster=ClusterConfig(
                    shards=shards,
                    heartbeat_interval=heartbeat_interval,
                    node_deadline=node_deadline,
                    result_cache_capacity=result_cache,
                ),
                engine_config=EngineConfig(grid_size=grid_size),
                service_config=ServiceConfig(
                    engines=1, default_grid_size=grid_size
                ),
            )
        except BaseException:
            terminate_nodes(self.nodes, grace_seconds=0.0)
            raise

    def node(self, shard_index: int, replica_rank: int):
        """The spawned process serving one (shard, replica) slot."""
        for node in self.nodes:
            if (node.shard_index, node.replica_rank) == (shard_index, replica_rank):
                return node
        raise LookupError(f"no node for shard {shard_index} replica {replica_rank}")

    def __enter__(self) -> "SpawnedFleet":
        self.router.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.router.shutdown()
        terminate_nodes(self.nodes)


# --------------------------------------------------------------------- #
# phase 1: healthy-fleet identity

def identity_specs(keyword_sets: int, seed: int) -> List[Dict[str, object]]:
    """Mixed-algorithm workload including zero-match and multi-keyword specs."""
    import random

    rng = random.Random(seed)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(keyword_sets)]
    specs: List[Dict[str, object]] = []
    for index, algorithm in enumerate(("pspq", "espq-len", "espq-sco", "auto")):
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


def oracle_entries(
    oracle: SPQEngine, spec: Dict[str, object], grid_size: int,
    algorithm: str, k: int = None,
) -> List[Entry]:
    """One explicit-algorithm oracle run (unaffected by calibration)."""
    query = SpatialPreferenceQuery.create(
        k=k if k is not None else spec["k"],
        radius=spec["radius"],
        keywords=set(spec["keywords"]),
    )
    result = raw_execute(oracle, query, algorithm=algorithm, grid_size=grid_size)
    return [(entry.obj.oid, entry.score) for entry in result]


def tied_group(
    oracle: SPQEngine, spec: Dict[str, object], grid_size: int,
    boundary: float,
) -> set:
    """Every oid whose exact score equals the rank-k boundary score.

    Runs the oracle with a widened ``k`` until the result extends past
    the boundary score (or runs out of candidates), at which point no
    boundary-tied candidate can have been tau-pruned away.
    """
    k2 = max(spec["k"] * 2, spec["k"] + 32)
    while True:
        entries = oracle_entries(oracle, spec, grid_size, "espq-sco", k=k2)
        if len(entries) < k2 or entries[-1][1] < boundary:
            return {oid for oid, score in entries if score == boundary}
        k2 *= 2


def tie_aware_match(
    oracle: SPQEngine, spec: Dict[str, object], grid_size: int,
    got: List[Entry],
) -> bool:
    """The cross-algorithm identity contract for one response.

    Scores must be bit-for-bit the oracle's; entries scoring strictly
    above the rank-k boundary must match exactly (every exact algorithm
    returns them); boundary-scored entries may be any members of the
    true tied group.
    """
    want = oracle_entries(oracle, spec, grid_size, "espq-sco")
    if [score for _, score in got] != [score for _, score in want]:
        return False
    if not want:
        return True
    boundary = want[-1][1]
    if [e for e in got if e[1] > boundary] != [e for e in want if e[1] > boundary]:
        return False
    group = tied_group(oracle, spec, grid_size, boundary)
    return all(oid in group for oid, score in got if score == boundary)


def run_identity_phase(
    input_path, data, features, grid_size: int, shards: int, seed: int,
    node_deadline: float, log_dir,
) -> Dict[str, object]:
    """Healthy fleet responses vs the unsharded oracle, bit-for-bit.

    Explicit-algorithm specs compare against the oracle running that
    algorithm.  ``auto`` specs compare against the oracle running the
    algorithm the fleet's nodes unanimously planned; when the nodes split
    (each calibrates on its own slice), the response is checked with
    :func:`tie_aware_match` instead.  One oracle engine serves the whole
    sequence -- explicit-algorithm results do not depend on its
    calibration state.
    """
    specs = identity_specs(keyword_sets=6, seed=seed)
    started = time.perf_counter()
    mismatches = 0
    degraded = 0
    split_plans = 0
    auto_planned: List[str] = []
    with SpawnedFleet(
        input_path, data, features, shards, replication=1,
        grid_size=grid_size, result_cache=0, heartbeat_interval=0,
        node_deadline=node_deadline, log_dir=log_dir,
    ) as fleet:
        aligned = fleet.router.plan.grid_aligned(grid_size)
        with SPQEngine(
            data, features, config=EngineConfig(grid_size=grid_size)
        ) as oracle:
            for spec in specs:
                response = fleet.router.submit(dict(spec, stats=True))
                if response.get("degraded"):
                    degraded += 1
                got = response_entries(response)
                algorithm = spec["algorithm"]
                if algorithm == "auto":
                    planned = response["stats"]["cluster"].get(
                        "planned_algorithms"
                    ) or {}
                    choices = sorted(set(planned.values()))
                    auto_planned.extend(choices)
                    if len(choices) != 1:
                        split_plans += 1
                        if not tie_aware_match(oracle, spec, grid_size, got):
                            mismatches += 1
                        continue
                    algorithm = choices[0]
                if got != oracle_entries(oracle, spec, grid_size, algorithm):
                    mismatches += 1
    return {
        "num_specs": len(specs),
        "shards": shards,
        "grid_size": grid_size,
        "grid_aligned": aligned,
        "mismatches": mismatches,
        "split_auto_plans": split_plans,
        "auto_planned": sorted(set(auto_planned)),
        "degraded_responses": degraded,
        "identical_results": mismatches == 0 and degraded == 0,
        "seconds": time.perf_counter() - started,
    }


# --------------------------------------------------------------------- #
# phases 2 + 3: SIGKILL failover under load, then degraded shape

def workload_specs(unique: int, seed: int) -> List[Dict[str, object]]:
    """A small pool of unique specs the failover workload cycles over."""
    import random

    rng = random.Random(seed)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(unique)]
    return [
        {"keywords": [word], "k": 10, "radius": radius}
        for word in pool for radius in (2.0, 3.0)
    ]


def run_failover_phase(
    input_path, data, features, grid_size: int, shards: int, replication: int,
    requests: int, client_threads: int, kill_after: int, seed: int,
    node_deadline: float, log_dir,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """SIGKILL one node mid-workload; then kill its replica for the shape.

    Returns (failover summary, degraded-shape summary).  The gate demands
    zero lost and zero incorrect responses while a replica of the killed
    shard is present; every answer is checked bit-for-bit against the
    unsharded oracle.  The router result cache is off so every request
    really scatters (a cached healthy answer would mask a routing fault).
    """
    pool = workload_specs(unique=6, seed=seed)
    oracle = [
        tuple(map(tuple, entries))
        for entries in reference_results(data, features, pool, grid_size)
    ]
    specs = [pool[index % len(pool)] for index in range(requests)]

    completed = 0
    wrong = 0
    degraded = 0
    completed_at_kill = -1
    errors: List[str] = []
    lock = threading.Lock()
    started = time.perf_counter()

    with SpawnedFleet(
        input_path, data, features, shards, replication=replication,
        grid_size=grid_size, result_cache=0, heartbeat_interval=0.5,
        node_deadline=node_deadline, log_dir=log_dir,
    ) as fleet:
        victim = fleet.node(shard_index=0, replica_rank=0)

        def client(index: int) -> None:
            nonlocal completed, wrong, degraded, completed_at_kill
            try:
                response = fleet.router.submit(specs[index])
            except Exception as exc:  # noqa: BLE001 - counted as a loss
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                return
            entries = tuple(response_entries(response))
            with lock:
                completed += 1
                if response.get("degraded"):
                    degraded += 1
                if entries != oracle[index % len(pool)]:
                    wrong += 1
                fire = completed_at_kill < 0 and completed >= kill_after
                if fire:
                    completed_at_kill = completed
            if fire:
                victim.kill()

        with concurrent.futures.ThreadPoolExecutor(client_threads) as executor:
            list(executor.map(client, range(requests)))

        router_stats = fleet.router.stats()
        failover = {
            "shards": shards,
            "replication": replication,
            "requests": requests,
            "client_threads": client_threads,
            "killed_node": {
                "shard_index": victim.shard_index,
                "replica_rank": victim.replica_rank,
                "exit_code": victim.poll(),
            },
            "completed_at_kill": completed_at_kill,
            "killed_mid_workload": 0 < completed_at_kill < requests,
            "issued": requests,
            "completed": completed,
            "lost_requests": requests - completed,
            "failed": len(errors),
            "errors": errors[:5],
            "incorrect_responses": wrong,
            "degraded_responses": degraded,
            "router_failovers": router_stats["requests"]["failovers"],
            "seconds": time.perf_counter() - started,
        }

        # Phase 3 on the same fleet: the killed shard loses its last
        # replica too, so the next (uncached) request must come back
        # explicitly degraded from the surviving shards.
        fleet.node(shard_index=0, replica_rank=1).kill()
        shape_started = time.perf_counter()
        try:
            response = fleet.router.submit(pool[0])
            shape_error = None
        except Exception as exc:  # noqa: BLE001 - a loss, reported below
            response = {}
            shape_error = f"{type(exc).__name__}: {exc}"
        degraded_shape = {
            "error": shape_error,
            "degraded": response.get("degraded", False),
            "shards_answered": response.get("shards_answered"),
            "shards_missing": response.get("shards_missing"),
            "results_returned": len(response.get("results", ())),
            "shape_correct": (
                shape_error is None
                and response.get("degraded") is True
                and response.get("shards_missing") == [0]
                and response.get("shards_answered") == sorted(
                    shard for shard in range(shards) if shard != 0
                )
            ),
            "seconds": time.perf_counter() - shape_started,
        }
    return failover, degraded_shape


# --------------------------------------------------------------------- #
# phase 4: keep-alive connection reuse

def run_keepalive_phase(
    input_path, grid_size: int, probes: int, log_dir,
) -> Dict[str, object]:
    """Probe one node in a burst; gate on the pool's reuse counters.

    Every probe after the first must ride the pooled connection, and a
    fresh connection may only be opened to replace a stale one.
    """
    from repro.cluster import transport

    nodes = spawn_local_nodes(
        input_path, 1, grid_size=grid_size, engines=1, log_dir=log_dir,
    )
    try:
        url = nodes[0].url + "/healthz"
        transport.close_pooled_connections()
        transport.reset_pool_stats()
        started = time.perf_counter()
        for _ in range(probes):
            transport.get_json(url, timeout=10.0)
        elapsed = time.perf_counter() - started
        pool = transport.pool_stats()
        transport.close_pooled_connections()
    finally:
        terminate_nodes(nodes)
    return {
        "probes": probes,
        "seconds": elapsed,
        "per_request_us": elapsed / probes * 1e6,
        "pool": pool,
        "reuse_correct": (
            pool["reused"] >= probes - 1
            and pool["opened"] <= 1 + pool["stale_retries"]
        ),
    }


# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=8_000)
    parser.add_argument("--grid-size", type=int, default=12,
                        help="query grid (12 is aligned with the shard layouts)")
    parser.add_argument("--shards", type=int, default=4,
                        help="identity-phase shard count")
    parser.add_argument("--requests", type=int, default=3_000,
                        help="failover-phase request count")
    parser.add_argument("--client-threads", type=int, default=8)
    parser.add_argument("--kill-after", type=int, default=None,
                        help="completed requests before the SIGKILL "
                             "(default: requests // 6)")
    parser.add_argument("--node-deadline", type=float, default=10.0)
    parser.add_argument("--keepalive-probes", type=int, default=200,
                        help="keep-alive phase: probes in the burst")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    args = parser.parse_args(argv)
    kill_after = (
        args.kill_after if args.kill_after is not None else args.requests // 6
    )

    data, features = generate_uniform(
        SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-cluster-"))
    input_path = workdir / "dataset.tsv"
    save_dataset(input_path, data, features)

    print(f"dataset: {args.objects} objects, grid {args.grid_size}, "
          f"file {input_path}")
    identity = run_identity_phase(
        input_path, data, features, args.grid_size, args.shards, args.seed,
        args.node_deadline, workdir / "identity-logs",
    )
    print(f"identity phase: {identity['num_specs']} specs over "
          f"{identity['shards']} nodes, aligned={identity['grid_aligned']}, "
          f"identical={identity['identical_results']}, auto planned "
          f"{identity['auto_planned']} ({identity['split_auto_plans']} split) "
          f"({identity['seconds']:.1f}s)")

    failover, degraded_shape = run_failover_phase(
        input_path, data, features, args.grid_size, shards=2, replication=2,
        requests=args.requests, client_threads=args.client_threads,
        kill_after=kill_after, seed=args.seed,
        node_deadline=args.node_deadline, log_dir=workdir / "failover-logs",
    )
    print(f"failover phase: SIGKILL shard 0 replica 0 after "
          f"{failover['completed_at_kill']} of {failover['issued']} requests: "
          f"{failover['completed']} completed, {failover['failed']} failed, "
          f"{failover['incorrect_responses']} incorrect, "
          f"{failover['degraded_responses']} degraded, "
          f"{failover['router_failovers']} failovers "
          f"({failover['seconds']:.1f}s)")
    print(f"degraded phase: degraded={degraded_shape['degraded']}, "
          f"answered={degraded_shape['shards_answered']}, "
          f"missing={degraded_shape['shards_missing']}, "
          f"shape_correct={degraded_shape['shape_correct']}")

    keepalive = run_keepalive_phase(
        input_path, args.grid_size, args.keepalive_probes,
        workdir / "keepalive-logs",
    )
    print(f"keep-alive phase: {keepalive['probes']} probes, "
          f"{keepalive['per_request_us']:.0f}us/req, reused "
          f"{keepalive['pool']['reused']} connections, "
          f"reuse_correct={keepalive['reuse_correct']}")

    summary = {
        "workload": {
            "objects": args.objects,
            "grid_size": args.grid_size,
            "identity_shards": args.shards,
            "requests": args.requests,
            "client_threads": args.client_threads,
            "kill_after": kill_after,
            "node_deadline": args.node_deadline,
            "seed": args.seed,
        },
        "identity": identity,
        "failover": failover,
        "degraded_shape": degraded_shape,
        "keepalive": keepalive,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not identity["grid_aligned"]:
            failures.append(
                f"grid {args.grid_size} is not aligned with the "
                f"{args.shards}-shard layout (bad bench configuration)"
            )
        if not identity["identical_results"]:
            failures.append(
                f"healthy fleet: {identity['mismatches']} responses differ "
                f"from the unsharded engine, {identity['degraded_responses']} "
                f"degraded, {identity['split_auto_plans']} non-unanimous "
                "auto plans"
            )
        if not failover["killed_mid_workload"]:
            failures.append(
                "the SIGKILL did not land mid-workload "
                f"(completed_at_kill={failover['completed_at_kill']})"
            )
        if failover["killed_node"]["exit_code"] is None:
            failures.append("the SIGKILLed node is somehow still running")
        if failover["failed"] or failover["lost_requests"]:
            failures.append(
                f"failover lost requests: {failover['failed']} failed, "
                f"{failover['lost_requests']} unanswered"
            )
        if failover["incorrect_responses"]:
            failures.append(
                f"{failover['incorrect_responses']} responses differ from the "
                "oracle despite a live replica"
            )
        if failover["degraded_responses"]:
            failures.append(
                f"{failover['degraded_responses']} responses were degraded "
                "despite a live replica"
            )
        if not degraded_shape["shape_correct"]:
            failures.append(
                "degraded-mode response shape is wrong: "
                f"{json.dumps({k: v for k, v in degraded_shape.items() if k != 'seconds'})}"
            )
        if not keepalive["reuse_correct"]:
            failures.append(
                "keep-alive transport did not reuse connections as required: "
                f"{json.dumps(keepalive['pool'])}"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("OK: healthy fleet identical to the oracle, SIGKILL under load "
              "lost nothing, degraded mode is explicit, keep-alive reuses "
              "connections")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
