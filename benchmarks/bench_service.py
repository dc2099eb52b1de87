"""Online service gates: identity and warm throughput.

Two checks over the ``repro serve`` layer (``src/repro/server/``):

1. **Identity** -- every response of the live HTTP server is bit-for-bit
   identical (oids and scores) to offline ``SPQEngine.execute`` on a fresh
   engine.
2. **Throughput** -- a warm service (shared index cache, micro-batching,
   result cache) must clear ``--min-speedup`` (default 2x) over the cold
   baseline that today's CLI implies: one fresh engine per request, each
   rebuilding grid/keyword/duplication state from scratch.

Run it as::

    python benchmarks/bench_service.py                  # report only
    python benchmarks/bench_service.py --check          # exit 1 on any gate
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Sequence, Tuple

from _oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.server import QueryService, ServiceConfig, make_server

DEFAULT_ALGORITHM = "espq-sco"


def build_workload(
    num_queries: int, keyword_sets: int, radii: Sequence[float], k: int, seed: int
) -> List[Dict[str, object]]:
    """Repeated-keyword online workload: popular queries cycling through a
    small pool of keyword sets and radii, the way many users ask similar
    questions."""
    import random

    rng = random.Random(seed)
    pool = [f"w{rng.randrange(400):04d}" for _ in range(keyword_sets)]
    return [
        {
            "keywords": [pool[i % len(pool)]],
            "k": k,
            "radius": radii[i % len(radii)],
        }
        for i in range(num_queries)
    ]


# --------------------------------------------------------------------- #
# phase 1+2: HTTP identity + warm-vs-cold throughput


def run_http_phase(
    data, features, specs: List[Dict[str, object]], grid_size: int,
    engines: int, client_threads: int,
) -> Dict[str, object]:
    """Serve the workload over live HTTP; measure throughput and identity."""
    service = QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=grid_size),
        config=ServiceConfig(engines=engines, default_grid_size=grid_size),
    )
    responses: List[Dict[str, object]] = [{} for _ in specs]
    with service:
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}/query"

        def post(index: int) -> None:
            body = json.dumps(specs[index]).encode("utf-8")
            request = urllib.request.Request(url, data=body, method="POST")
            with urllib.request.urlopen(request) as reply:
                responses[index] = json.loads(reply.read())

        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(client_threads) as pool:
            list(pool.map(post, range(len(specs))))
        warm_seconds = time.perf_counter() - started
        stats = service.stats()
        server.shutdown()
        server.server_close()

    # Cold baseline: a fresh engine per request (per-request CLI behaviour).
    from repro.model.query import SpatialPreferenceQuery

    # The cold side is timed through ``execute`` (what the CLI runs: index
    # build included); the identity reference is the raw-stream oracle, so
    # the service is never compared with the path it serves from.
    cold_seconds = 0.0
    offline: List[List[Tuple[str, float]]] = []
    cold: List[List[Tuple[str, float]]] = []
    for spec in specs:
        started = time.perf_counter()
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(
            k=spec["k"], radius=spec["radius"], keywords=set(spec["keywords"])
        )
        result = engine.execute(query, algorithm=DEFAULT_ALGORITHM, grid_size=grid_size)
        engine.close()
        cold_seconds += time.perf_counter() - started
        cold.append([(entry.obj.oid, entry.score) for entry in result])
        raw = raw_execute(engine, query, algorithm=DEFAULT_ALGORITHM, grid_size=grid_size)
        offline.append([(entry.obj.oid, entry.score) for entry in raw])

    identical = cold == offline and all(
        [(entry["oid"], entry["score"]) for entry in response["results"]] == expected
        for response, expected in zip(responses, offline)
    )
    return {
        "num_requests": len(specs),
        "client_threads": client_threads,
        "engines": engines,
        "warm_seconds": warm_seconds,
        "cold_seconds": cold_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "identical_results": identical,
        "result_cache": stats["result_cache"],
        "index_cache": stats["index_cache"],
        "batching": stats["batching"],
    }


# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=20_000)
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--keyword-sets", type=int, default=6,
                        help="distinct keyword sets the workload cycles through")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--grid-size", type=int, default=12)
    parser.add_argument("--engines", type=int, default=2)
    parser.add_argument("--client-threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--json", default=None, help="write the summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)

    config = SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
    data, features = generate_uniform(config)
    radii = [2.0, 3.0]
    specs = build_workload(
        args.queries, args.keyword_sets, radii, args.k, args.seed
    )

    print(f"workload: {len(specs)} requests over {args.keyword_sets} keyword "
          f"sets x {len(radii)} radii, {args.objects} objects, "
          f"grid {args.grid_size}")
    http_phase = run_http_phase(
        data, features, specs, args.grid_size, args.engines, args.client_threads
    )
    print(f"HTTP phase: warm {http_phase['warm_seconds']:.2f}s vs cold "
          f"{http_phase['cold_seconds']:.2f}s -> "
          f"{http_phase['speedup']:.2f}x, identical="
          f"{http_phase['identical_results']}, "
          f"mean batch {http_phase['batching']['mean_batch']:.2f}")

    summary = {
        "workload": {
            "objects": args.objects,
            "queries": args.queries,
            "keyword_sets": args.keyword_sets,
            "radii": radii,
            "k": args.k,
            "grid_size": args.grid_size,
            "engines": args.engines,
            "client_threads": args.client_threads,
            "seed": args.seed,
        },
        "http": http_phase,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"wrote {args.json}")

    if args.check:
        failures = []
        if not http_phase["identical_results"]:
            failures.append("server results differ from offline execute")
        if http_phase["speedup"] < args.min_speedup:
            failures.append(
                f"warm speedup {http_phase['speedup']:.2f}x below required "
                f"{args.min_speedup}x"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"OK: identical results, {http_phase['speedup']:.2f}x >= "
              f"{args.min_speedup}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
