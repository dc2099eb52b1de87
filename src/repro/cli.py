"""Command-line interface.

The subcommands cover the full workflow a downstream user needs:

* ``generate``    -- create a dataset file (UN / CL / FL-like / TW-like).
* ``query``       -- run a spatial preference query over a dataset file with
  any of the algorithms and print the top-k plus execution statistics.
* ``batch``       -- run many queries from a JSONL file through the batch
  engine (shared index builds) and emit one JSON result line per query.
* ``serve``       -- run the persistent HTTP query service: warm engine
  pool, micro-batching, result cache, durable planner calibration.
* ``loadgen``     -- fire a seeded open-loop workload (Poisson/diurnal
  arrivals, Zipf keywords, hotspots, bursts) at a running server or an
  in-process service and print the reconciled results ledger.
* ``analyze``     -- print the Section 6 analytical tables (duplication factor
  and cell-size cost) for given parameters.
* ``experiments`` -- regenerate the figure series (same engine as
  ``benchmarks/run_all.py``) for one figure or all of them.

Examples::

    python -m repro generate --dataset uniform --objects 10000 --output un.tsv
    python -m repro query --input un.tsv --keywords w0001,w0002 --k 10 \
        --radius-fraction 0.1 --grid-size 20 --algorithm espq-sco
    python -m repro batch --input un.tsv --queries queries.jsonl --output -
    python -m repro serve --input un.tsv --port 8787 \
        --calibration-path calibration.json
    python -m repro analyze duplication --cell-side 10 --radius 2
    python -m repro experiments --figure 7 --objects 4000
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import List, Optional, Sequence

from repro import __version__
from repro.core.analysis import duplication_factor, reducer_cost_model
from repro.core.centralized import dataset_extent
from repro.core.engine import ALGORITHM_CHOICES, EngineConfig, SPQEngine
from repro.planner import AUTO_ALGORITHM, PLANNED_ALGORITHMS
from repro.core.scoring import SCORE_MODES
from repro.exceptions import JobConfigurationError
from repro.execution import BACKEND_NAMES, resolve_backend_spec
from repro.datagen.io import load_dataset, save_dataset
from repro.datagen.queries import radius_from_cell_fraction
from repro.datagen.realistic import (
    RealisticDatasetConfig,
    generate_flickr_like,
    generate_twitter_like,
)
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.exceptions import InvalidQueryError
from repro.index.planner import BatchQuery
from repro.model.query import SpatialPreferenceQuery

DATASET_CHOICES = ("uniform", "clustered", "flickr", "twitter")


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-backend flags shared by ``query`` and ``batch``."""
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend: 'serial' (deterministic default), 'thread' "
        "(thread pool), or 'process' (true multi-core multiprocessing pool); "
        "all three return identical results (default: $REPRO_BACKEND or serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the thread/process backends "
        "(default: $REPRO_WORKERS or the CPU count, capped at 8)",
    )


def _engine_config(args: argparse.Namespace, **extra) -> EngineConfig:
    """Engine configuration from CLI flags, validating the backend combo.

    Raises:
        JobConfigurationError: for bad combinations such as
            ``--backend serial --workers 4`` or ``--workers 0``.
    """
    backend, workers = resolve_backend_spec(args.backend, args.workers)
    return EngineConfig(backend=backend, workers=workers, **extra)


def _add_serving_arguments(
    parser: argparse.ArgumentParser, *, port, engines, result_cache, help
) -> None:
    """The flags ``serve`` and ``shard-node`` both declare.

    ``port`` / ``engines`` / ``result_cache`` are the per-command defaults;
    ``help`` maps the flags whose meaning differs by command to their text.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help="TCP port (0 binds an ephemeral port, reported on "
                             "the 'listening on' line)")
    parser.add_argument("--engines", type=int, default=engines,
                        help="warm engine-pool size = micro-batch dispatcher "
                             "threads (per shard or node)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="largest micro-batch per execute_many call")
    parser.add_argument("--compact-threshold", type=int, default=0,
                        help="fold the write delta into the base dataset once it "
                             "holds this many ops (0 disables auto-compaction; "
                             "see docs/ingest.md)")
    parser.add_argument("--result-cache", type=int, default=result_cache,
                        help="result-cache entries, LRU (0 disables the cache; "
                             "the shard-node default, because the cluster "
                             "router caches merged responses and node caches "
                             "would only hide executions)")
    parser.add_argument("--grid-size", type=int, default=50)
    parser.add_argument("--max-radius", type=float, default=None,
                        help=help["max_radius"])
    parser.add_argument("--calibration-path", default=None,
                        help=help["calibration_path"])
    parser.add_argument("--calibration-seed", default=None,
                        help=help["calibration_seed"])
    parser.add_argument("--checkpoint-interval", type=float, default=60.0,
                        help="calibration checkpoint cadence in seconds "
                             "(0 = save only on shutdown)")
    parser.add_argument("--access-log", action="store_true",
                        help="log one line per HTTP request to stderr")


#: ``ServiceConfig`` field -> the argparse dest that sets it.  A serving
#: command that does not declare a flag keeps the dataclass default.
_SERVICE_CONFIG_FLAGS = {
    "engines": "engines",
    "max_batch": "max_batch",
    "result_cache_capacity": "result_cache",
    "compact_threshold": "compact_threshold",
    "calibration_path": "calibration_path",
    "calibration_seed_path": "calibration_seed",
    "checkpoint_interval_seconds": "checkpoint_interval",
    "default_k": "k",
    "default_radius": "radius",
    "default_radius_fraction": "radius_fraction",
    "default_algorithm": "algorithm",
    "default_grid_size": "grid_size",
    "admission_queue_depth": "admission_depth",
    "default_deadline_ms": "default_deadline_ms",
}


def _service_config(args: argparse.Namespace):
    """Service configuration from a serving command's flags."""
    from repro.server import ServiceConfig

    values = {
        field: getattr(args, dest)
        for field, dest in _SERVICE_CONFIG_FLAGS.items()
        if hasattr(args, dest)
    }
    if hasattr(args, "batch_window_ms"):
        values["batch_window_seconds"] = args.batch_window_ms / 1000.0
    return ServiceConfig(**values)


# --------------------------------------------------------------------- #
# generate


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset in ("uniform", "clustered"):
        config = SyntheticDatasetConfig(num_objects=args.objects, seed=args.seed)
        generator = generate_uniform if args.dataset == "uniform" else generate_clustered
        data, features = generator(config)
    else:
        config = RealisticDatasetConfig(
            num_objects=args.objects,
            vocabulary_size=args.vocabulary_size,
            seed=args.seed,
            mean_keywords=7.9 if args.dataset == "flickr" else 9.8,
        )
        generator = generate_flickr_like if args.dataset == "flickr" else generate_twitter_like
        data, features = generator(config=config)
    written = save_dataset(args.output, data, features)
    print(
        f"Wrote {written} records ({len(data)} data objects, {len(features)} feature objects) "
        f"to {args.output}"
    )
    return 0


# --------------------------------------------------------------------- #
# query


def _cmd_query(args: argparse.Namespace) -> int:
    if args.explain and args.algorithm != AUTO_ALGORITHM:
        print(
            "error: --explain prints the planner's per-algorithm cost estimates "
            "and requires --algorithm auto",
            file=sys.stderr,
        )
        return 2
    data, features = load_dataset(args.input)
    if not data:
        print("error: dataset contains no data objects", file=sys.stderr)
        return 2
    keywords = {word for word in args.keywords.split(",") if word}
    if not keywords:
        print("error: --keywords must contain at least one keyword", file=sys.stderr)
        return 2

    try:
        config = _engine_config(args)
    except JobConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = SPQEngine(data, features, config=config)
    if args.radius is not None:
        radius = args.radius
    else:
        extent = dataset_extent(data, features)
        radius = radius_from_cell_fraction(extent, args.grid_size, args.radius_fraction)
    query = SpatialPreferenceQuery.create(k=args.k, radius=radius, keywords=keywords)

    try:
        result = engine.execute(query, algorithm=args.algorithm, grid_size=args.grid_size)
    except (InvalidQueryError, JobConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()
    backend_name = result.stats.get("backend", config.backend)
    print(f"Query: {query.describe()}  [algorithm={args.algorithm}, grid={args.grid_size}, "
          f"backend={backend_name}]")
    if args.explain:
        _print_plan(result.stats)
    if not result.entries:
        print("No data object has a positive score for this query.")
    for rank, entry in enumerate(result, start=1):
        print(f"  {rank:>3}. {entry.obj.oid:<16} score={entry.score:.4f} "
              f"({entry.obj.x:.3f}, {entry.obj.y:.3f})")
    if args.stats and "simulated_seconds" in result.stats:
        stats = result.stats
        print("\nExecution statistics:")
        if "planned_algorithm" in stats:
            print(f"  planned algorithm:   {stats['planned_algorithm']}")
        print(f"  reduce tasks:        {stats['num_reduce_tasks']}")
        print(f"  shuffled records:    {stats['shuffled_records']}")
        print(f"  features pruned:     {stats['features_pruned']}")
        print(f"  features examined:   {stats['features_examined']}")
        print(f"  score computations:  {stats['score_computations']}")
        print(f"  simulated job time:  {stats['simulated_seconds']:.1f}s")
    return 0


def _print_plan(stats: dict) -> None:
    """The ``--explain`` block: per-algorithm estimates plus the winner."""
    estimates = stats.get("planner_estimates", {})
    chosen = stats.get("planned_algorithm", "?")
    calibrated = "calibrated" if stats.get("planner_calibrated") else "cold start"
    print(f"Planner decision ({calibrated}):")
    for algorithm in PLANNED_ALGORITHMS:
        if algorithm not in estimates:
            continue
        marker = "  <== chosen" if algorithm == chosen else ""
        print(f"  {algorithm:<10} estimated {estimates[algorithm]:>10.2f}s{marker}")


# --------------------------------------------------------------------- #
# batch


def _parse_batch_line(
    line: str, line_number: int, args: argparse.Namespace, extent
) -> BatchQuery:
    """One JSONL query spec -> a BatchQuery with per-line overrides."""
    try:
        spec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {line_number}: invalid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"line {line_number}: expected a JSON object")

    keywords = spec.get("keywords")
    if isinstance(keywords, str):
        keywords = [word for word in keywords.split(",") if word]
    if not keywords:
        raise ValueError(f"line {line_number}: 'keywords' must be a non-empty list")

    grid_size = spec.get("grid_size")
    if grid_size is not None:
        try:
            grid_size = int(grid_size)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {line_number}: grid_size must be an integer") from exc
        if grid_size < 1:
            raise ValueError(f"line {line_number}: grid_size must be >= 1, got {grid_size}")

    radius = spec.get("radius")
    if radius is None:
        if args.radius is not None:
            radius = args.radius
        else:
            # Same rule as `repro query`: a fraction of the cell side of the
            # grid this query actually runs on (per-line override included).
            effective_grid = grid_size if grid_size is not None else args.grid_size
            radius = radius_from_cell_fraction(
                extent, effective_grid, args.radius_fraction
            )
    try:
        query = SpatialPreferenceQuery.create(
            k=int(spec.get("k", args.k)), radius=float(radius), keywords=keywords
        )
    except (InvalidQueryError, TypeError) as exc:
        raise ValueError(f"line {line_number}: {exc}") from exc
    algorithm = spec.get("algorithm")
    if algorithm is not None and algorithm not in ALGORITHM_CHOICES:
        raise ValueError(
            f"line {line_number}: unknown algorithm {algorithm!r}; "
            f"expected one of {ALGORITHM_CHOICES}"
        )
    score_mode = spec.get("score_mode")
    if score_mode is not None and score_mode not in SCORE_MODES:
        raise ValueError(
            f"line {line_number}: unknown score_mode {score_mode!r}; "
            f"expected one of {SCORE_MODES}"
        )
    return BatchQuery(
        query=query,
        algorithm=algorithm,
        grid_size=grid_size,
        score_mode=score_mode,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    data, features = load_dataset(args.input)
    if not data:
        print("error: dataset contains no data objects", file=sys.stderr)
        return 2
    extent = dataset_extent(data, features)

    items: List[BatchQuery] = []
    try:
        handle = open(args.queries, "r", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read query file: {exc}", file=sys.stderr)
        return 2
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                items.append(_parse_batch_line(line, line_number, args, extent))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    if not items:
        print("error: query file contains no queries", file=sys.stderr)
        return 2

    try:
        config = _engine_config(args)
    except JobConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = SPQEngine(data, features, config=config)
    try:
        results = engine.execute_many(
            items, algorithm=args.algorithm, grid_size=args.grid_size
        )
    except (InvalidQueryError, JobConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        engine.close()

    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 2
    try:
        for item, result in zip(items, results):
            record = {
                "keywords": sorted(item.query.keywords),
                "k": item.query.k,
                "radius": item.query.radius,
                "algorithm": item.algorithm or args.algorithm,
                "results": [
                    {"oid": e.obj.oid, "score": e.score, "x": e.obj.x, "y": e.obj.y}
                    for e in result
                ],
            }
            if "planned_algorithm" in result.stats:
                record["planned_algorithm"] = result.stats["planned_algorithm"]
            if args.stats:
                record["stats"] = {
                    key: result.stats.get(key)
                    for key in (
                        "grid_size",
                        "backend",
                        "workers",
                        "shuffled_records",
                        "features_pruned",
                        "features_examined",
                        "score_computations",
                        "simulated_seconds",
                        "planner_estimates",
                        "index",
                    )
                    if key in result.stats
                }
            out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    if args.stats:
        cache = engine.index_cache_stats
        print(
            f"Executed {len(results)} queries "
            f"(index cache: {cache['hits']} hits, {cache['misses']} misses)",
            file=sys.stderr,
        )
    return 0


# --------------------------------------------------------------------- #
# serve


def _run_server_loop(server, shutdown) -> None:
    """Serve until SIGTERM/SIGINT, then run ``shutdown`` callbacks in order.

    The shared tail of every serving command (``serve``, ``serve
    --cluster``, ``shard-node``): both signals trigger the same clean
    drain, and ``server.shutdown`` runs off the signal-handler frame
    because ``serve_forever`` must return before anything can be joined.
    """

    def _request_stop(signum: int, frame: object) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _request_stop)
    except ValueError:  # pragma: no cover - not in the main thread
        pass
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        print("shutting down", file=sys.stderr)
        server.server_close()
        for callback in shutdown:
            callback()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import QueryService, make_server

    if args.cluster:
        return _cmd_serve_cluster(args)
    data, features = load_dataset(args.input)
    if not data:
        print("error: dataset contains no data objects", file=sys.stderr)
        return 2
    sharded = args.shards > 1
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.max_radius is not None and not sharded:
        print(
            "warning: --max-radius only affects sharded serving "
            "(--shards > 1); ignored",
            file=sys.stderr,
        )
    if not sharded and (
        args.layout != "uniform" or args.rebalance_threshold is not None
    ):
        print(
            "warning: --layout/--rebalance-threshold only affect sharded "
            "serving (--shards > 1); ignored",
            file=sys.stderr,
        )
    try:
        engine_config = _engine_config(args, grid_size=args.grid_size)
        service_config = _service_config(args)
        if sharded:
            from repro.sharding import ShardRouter, ShardingConfig

            service = ShardRouter(
                data,
                features,
                engine_config=engine_config,
                service_config=service_config,
                sharding=ShardingConfig(
                    shards=args.shards,
                    max_radius=args.max_radius,
                    layout=args.layout,
                    rebalance_threshold=args.rebalance_threshold,
                ),
            )
        else:
            service = QueryService(
                data, features, engine_config=engine_config, config=service_config
            )
    except (ValueError, InvalidQueryError, JobConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(
            service, args.host, args.port, quiet=not args.access_log
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2

    if not sharded and args.calibration_path and service.planner is None:
        print(
            "warning: --calibration-path is ignored because the planner is "
            "disabled (planner_mode / $REPRO_PLANNER is 'off'); calibration "
            "will be neither restored nor saved",
            file=sys.stderr,
        )
    if sharded and args.calibration_path:
        print(
            f"calibration snapshots are per shard: "
            f"{args.calibration_path}.shard0 .. "
            f".shard{args.shards - 1}"
        )
    service.start()
    stats = service.stats()
    persistence = (
        stats["planner"].get("persistence")
        if args.calibration_path and not sharded
        else None
    )
    if persistence and persistence["rejected"]:
        print(
            f"warning: calibration snapshot rejected, starting cold: "
            f"{persistence['rejected']}",
            file=sys.stderr,
        )
    elif persistence and persistence["restored"]:
        print(
            f"calibration restored from {args.calibration_path} "
            f"({stats['planner']['calibration']['observations']} observations)"
        )
    shard_note = (
        f", {args.shards} shards ({args.layout} layout)" if sharded else ""
    )
    print(
        f"repro serve: listening on http://{args.host}:{server.port}  "
        f"({len(data)} data objects, {len(features)} feature objects, "
        f"{args.engines} engines{shard_note})"
    )
    rebalance_note = "  POST /rebalance" if sharded else ""
    print(
        "endpoints: POST /query  POST /batch  POST /objects  "
        f"POST /datasets{rebalance_note}  GET /healthz  GET /stats"
    )
    sys.stdout.flush()

    # The service's shutdown drains, saves calibration and closes engines.
    _run_server_loop(server, [service.shutdown])
    if args.calibration_path and not sharded and service.planner is not None:
        save_error = service.stats()["planner"]["persistence"]["last_error"]
        if save_error:
            print(
                f"warning: calibration could not be saved: {save_error}",
                file=sys.stderr,
            )
        else:
            print(f"calibration saved to {args.calibration_path}")
    return 0


# --------------------------------------------------------------------- #
# serve --cluster / shard-node


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --cluster N``: spawn a local fleet, front it, serve."""
    from repro.cluster import (
        ClusterConfig,
        ClusterRouter,
        NodeSpec,
        spawn_local_nodes,
        terminate_nodes,
    )
    from repro.server import make_server

    if args.shards > 1:
        print(
            "error: --cluster and --shards are mutually exclusive (--cluster N "
            "already shards the dataset across N node processes)",
            file=sys.stderr,
        )
        return 2
    if args.cluster < 1 or args.replication < 1:
        print(
            f"error: --cluster and --replication must be >= 1, got "
            f"{args.cluster} and {args.replication}",
            file=sys.stderr,
        )
        return 2
    data, features = load_dataset(args.input)
    if not data:
        print("error: dataset contains no data objects", file=sys.stderr)
        return 2
    try:
        engine_config = _engine_config(args, grid_size=args.grid_size)
        # The router reads only the request defaults and admission knobs;
        # the pool, cache and calibration flags configure the nodes.
        service_config = _service_config(args)
        cluster_config = ClusterConfig(
            shards=args.cluster,
            max_radius=args.max_radius,
            heartbeat_interval=args.heartbeat_interval,
            liveness_timeout=args.liveness_timeout,
            node_deadline=args.node_deadline,
            result_cache_capacity=args.result_cache,
        )
    except (ValueError, InvalidQueryError, JobConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    extra_args: List[str] = []
    if args.backend is not None:
        extra_args += ["--backend", args.backend]
    if args.workers is not None:
        extra_args += ["--workers", str(args.workers)]
    if args.compact_threshold:
        # Compaction is node-local in cluster mode: each node folds its own
        # delta when it crosses the threshold (the cluster epoch is kept).
        extra_args += ["--compact-threshold", str(args.compact_threshold)]
    print(
        f"repro serve: spawning {args.cluster} shard(s) x {args.replication} "
        f"replica(s) = {args.cluster * args.replication} node process(es)"
    )
    sys.stdout.flush()
    try:
        nodes = spawn_local_nodes(
            args.input,
            args.cluster,
            replication=args.replication,
            host=args.host,
            grid_size=args.grid_size,
            engines=args.engines,
            max_radius=args.max_radius,
            calibration_path=args.calibration_path,
            calibration_seed=args.calibration_seed,
            dataset=(data, features),
            log_dir=args.node_log_dir,
            extra_args=extra_args,
        )
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: cannot spawn shard nodes: {exc}", file=sys.stderr)
        return 2
    try:
        router = ClusterRouter(
            data,
            features,
            [NodeSpec(url=node.url, shard_index=node.shard_index) for node in nodes],
            cluster=cluster_config,
            engine_config=engine_config,
            service_config=service_config,
        )
        server = make_server(router, args.host, args.port, quiet=not args.access_log)
    except (OSError, ValueError, InvalidQueryError) as exc:
        terminate_nodes(nodes)
        print(f"error: cannot start the cluster router: {exc}", file=sys.stderr)
        return 2
    if args.calibration_path:
        print(
            f"calibration snapshots are per node: "
            f"{args.calibration_path}.node0-0 .. "
            f".node{args.cluster - 1}-{args.replication - 1}"
        )
    router.start()
    for node in nodes:
        print(
            f"node shard {node.shard_index} replica {node.replica_rank}: "
            f"{node.url}  (pid {node.process.pid}, log {node.log_path})"
        )
    print(
        f"repro serve: listening on http://{args.host}:{server.port}  "
        f"({len(data)} data objects, {len(features)} feature objects, "
        f"{args.cluster} shards x {args.replication} replicas)"
    )
    print(
        "endpoints: POST /query  POST /batch  POST /objects  "
        "POST /datasets  GET /healthz  GET /stats"
    )
    sys.stdout.flush()
    _run_server_loop(
        server, [router.shutdown, lambda: terminate_nodes(nodes)]
    )
    return 0


def _cmd_shard_node(args: argparse.Namespace) -> int:
    """``repro shard-node``: one shard slice of a dataset behind HTTP."""
    from repro.cluster import NodeConfig, ShardNodeService
    from repro.server import make_server

    data = None
    dataset_source = f"file {args.input}"
    if args.dataset_shm:
        from repro.execution.shm import attach_dataset

        try:
            data, features = attach_dataset(args.dataset_shm)
            dataset_source = f"shared-memory segment {args.dataset_shm}"
        except (OSError, ValueError) as exc:
            print(
                f"warning: cannot attach dataset segment "
                f"{args.dataset_shm!r} ({exc}); loading {args.input}",
                file=sys.stderr,
            )
            data = None
    if data is None:
        data, features = load_dataset(args.input)
    if not data:
        print("error: dataset contains no data objects", file=sys.stderr)
        return 2
    try:
        engine_config = _engine_config(args, grid_size=args.grid_size)
        node = ShardNodeService(
            data,
            features,
            node_config=NodeConfig(
                shard_index=args.shard_index,
                shards=args.shards,
                max_radius=args.max_radius,
                dataset_epoch=args.dataset_epoch,
            ),
            engine_config=engine_config,
            service_config=_service_config(args),
        )
    except (ValueError, InvalidQueryError, JobConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(node, args.host, args.port, quiet=not args.access_log)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    node.start()
    slice_info = node.dataset_info()
    print(f"repro shard-node: dataset from {dataset_source}")
    # The spawner tails the log for this exact line to learn the
    # OS-assigned port; keep the "listening on http://..." wording stable.
    print(
        f"repro shard-node: shard {args.shard_index}/{args.shards} "
        f"listening on http://{args.host}:{server.port}  "
        f"(node {node.node_id}, {slice_info['data_objects']} data objects, "
        f"{slice_info['feature_objects']} feature objects)"
    )
    print(
        "endpoints: POST /query  POST /batch  POST /objects  "
        "POST /datasets  GET /healthz  GET /stats  GET /heartbeat"
    )
    sys.stdout.flush()
    _run_server_loop(server, [node.shutdown])
    return 0


# --------------------------------------------------------------------- #
# loadgen


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: fire a seeded open-loop workload at a service.

    Two targets: ``--url`` drives a running ``repro serve`` over HTTP
    (keep-alive client fleet); without it an in-process service (or shard
    router with ``--shards``) is built from the same dataset, which is
    the zero-setup way to experiment with admission control.
    """
    from repro.traffic import (
        HttpTarget,
        LoadGenerator,
        ServiceTarget,
        TrafficModel,
        WorkloadConfig,
    )

    data, features = load_dataset(args.input)
    if not features:
        print("error: dataset contains no feature objects", file=sys.stderr)
        return 2
    try:
        workload = WorkloadConfig(
            seed=args.seed,
            duration_seconds=args.duration,
            rate=args.rate,
            arrival=args.arrival,
            diurnal_amplitude=args.diurnal_amplitude,
            zipf_exponent=args.zipf_exponent,
            keywords_per_query=args.keywords_per_query,
            k=args.k,
            radius=args.radius,
            deadline_ms=args.deadline_ms,
            hotspot_fraction=args.hotspot_fraction,
            burst_every_seconds=args.burst_every,
            burst_size=args.burst_size,
            slow_client_fraction=args.slow_client_fraction,
            clients=args.clients,
        )
        model = TrafficModel(features, dataset_extent(data, features), workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    schedule = model.schedule()
    service = None
    if args.url:
        target = HttpTarget(args.url)
    else:
        from repro.server import QueryService, ServiceConfig

        service_config = ServiceConfig(
            admission_queue_depth=args.admission_depth,
            default_deadline_ms=args.default_deadline_ms,
        )
        if args.shards > 1:
            from repro.sharding import ShardRouter, ShardingConfig

            service = ShardRouter(
                data,
                features,
                service_config=service_config,
                sharding=ShardingConfig(shards=args.shards),
            )
        else:
            service = QueryService(data, features, config=service_config)
        service.start()
        target = ServiceTarget(service)
    print(
        f"loadgen: firing {len(schedule)} requests over "
        f"{workload.duration_seconds:.1f}s ({workload.arrival} arrivals, "
        f"mean {workload.rate:.0f} rps, {workload.clients} clients) at "
        f"{args.url or 'in-process service'}",
        file=sys.stderr,
    )
    try:
        generator = LoadGenerator(schedule, target)
        ledger = generator.run()
    finally:
        if service is not None:
            service.shutdown()
        if args.url:
            target.close()
    summary = ledger.summary()
    summary["lost"] = generator.lost
    if args.url:
        summary["keepalive"] = target.reuse_stats()
    if args.ledger:
        ledger.write_jsonl(args.ledger)
        print(f"loadgen: per-request ledger written to {args.ledger}",
              file=sys.stderr)
    print(json.dumps(summary, indent=2, sort_keys=True))
    counts = summary["counts"]
    ok = not generator.lost and not counts["error"] and not counts["timeout"]
    return 0 if ok and summary["reconciled"] else 1


# --------------------------------------------------------------------- #
# analyze


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.what == "duplication":
        df = duplication_factor(args.cell_side, args.radius)
        print(f"cell side a = {args.cell_side}, radius r = {args.radius}")
        print(f"duplication factor df = {df:.4f}")
        print(f"expected feature copies for |F| = {args.features}: {df * args.features:.0f}")
    else:  # cell-size
        print("cell side | df       | reducer cost df*a^4 (normalised)")
        print("----------|----------|--------------------------------")
        for divisor in (2, 4, 8, 16, 32, 64):
            side = 1.0 / divisor
            radius = side * args.radius_fraction
            print(
                f"1/{divisor:<7} | {duplication_factor(side, radius):<8.4f} | "
                f"{reducer_cost_model(side, radius):.3e}"
            )
    return 0


# --------------------------------------------------------------------- #
# experiments


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import experiments as exp

    figure_map = {
        "5": lambda: exp.figure5_flickr(args.objects),
        "6": lambda: exp.figure6_twitter(args.objects),
        "7": lambda: exp.figure7_uniform(args.objects),
        "8": lambda: exp.figure8_scalability(),
        "9": lambda: exp.figure9_clustered(args.objects),
    }
    figures = list(figure_map) if args.figure == "all" else [args.figure]
    for figure in figures:
        print(f"\n===== Figure {figure} =====")
        for label, sweep in figure_map[figure]().items():
            print(f"\n--- {label} ---")
            print(sweep.as_table())
    return 0


# --------------------------------------------------------------------- #
# parser


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser covering every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial preference queries using keywords (EDBT 2017 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a dataset file")
    generate.add_argument("--dataset", choices=DATASET_CHOICES, required=True)
    generate.add_argument("--objects", type=int, default=10_000)
    generate.add_argument("--vocabulary-size", type=int, default=5_000,
                          help="dictionary size for flickr/twitter-like datasets")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--output", required=True)
    generate.set_defaults(func=_cmd_generate)

    query = subparsers.add_parser("query", help="run a query over a dataset file")
    query.add_argument("--input", required=True)
    query.add_argument("--keywords", required=True, help="comma-separated query keywords")
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--radius", type=float, default=None,
                       help="absolute query radius (overrides --radius-fraction)")
    query.add_argument("--radius-fraction", type=float, default=0.10,
                       help="radius as a fraction of the grid-cell side (default 0.10)")
    query.add_argument("--grid-size", type=int, default=50)
    query.add_argument("--algorithm", choices=ALGORITHM_CHOICES, default="espq-sco",
                       help="algorithm to run, or 'auto' to let the cost-based "
                            "planner choose per query")
    query.add_argument("--explain", action="store_true",
                       help="with --algorithm auto: print the planner's "
                            "per-algorithm cost estimates and the chosen algorithm")
    query.add_argument("--stats", action="store_true", help="print execution statistics")
    _add_backend_arguments(query)
    query.set_defaults(func=_cmd_query)

    batch = subparsers.add_parser(
        "batch", help="run a JSONL query file through the batch engine"
    )
    batch.add_argument("--input", required=True, help="dataset file (TSV)")
    batch.add_argument(
        "--queries",
        required=True,
        help="JSONL file: one JSON object per query, e.g. "
        '{"keywords": ["w0001"], "k": 10, "radius": 2.0, "algorithm": "espq-sco"}',
    )
    batch.add_argument(
        "--output", default="-", help="result JSONL path, or '-' for stdout (default)"
    )
    batch.add_argument("--k", type=int, default=10, help="default k for query lines")
    batch.add_argument("--radius", type=float, default=None,
                       help="default absolute radius (overrides --radius-fraction)")
    batch.add_argument("--radius-fraction", type=float, default=0.10,
                       help="default radius as a fraction of the grid-cell side")
    batch.add_argument("--grid-size", type=int, default=50)
    batch.add_argument("--algorithm", choices=ALGORITHM_CHOICES, default="espq-sco",
                       help="default algorithm for query lines ('auto' engages "
                            "the cost-based planner per query)")
    batch.add_argument("--stats", action="store_true",
                       help="attach per-query stats and print cache summary")
    _add_backend_arguments(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve", help="run the persistent HTTP query service over a dataset file"
    )
    serve.add_argument("--input", required=True, help="dataset file (TSV)")
    _add_serving_arguments(serve, port=8787, engines=2, result_cache=256, help={
        "max_radius": "with --shards > 1: largest query radius served exactly "
                      "(bounds cross-shard feature replication; queries above "
                      "it are rejected; default: unbounded, features "
                      "replicated to every shard)",
        "calibration_path": "durable planner-calibration snapshot: restored on "
                            "start, checkpointed while serving, saved on shutdown",
        "calibration_seed": "global calibration snapshot that seeds cold shards/"
                            "nodes (no scoped snapshot yet); never written to "
                            "(default: the --calibration-path base itself)",
    })
    serve.add_argument("--shards", type=int, default=1,
                       help="spatial shards: partition the dataset into N disjoint "
                            "extent slices, one query service per shard, "
                            "scatter-gather merge (1 = unsharded)")
    serve.add_argument("--layout", choices=("uniform", "skew"), default="uniform",
                       help="with --shards > 1: shard extent layout -- 'uniform' "
                            "splits the extent most-square, 'skew' balances "
                            "per-shard object counts with kd splits over the data "
                            "histogram (clustered datasets)")
    serve.add_argument("--rebalance-threshold", type=float, default=None,
                       help="with --shards > 1: per-shard p99 imbalance ratio above "
                            "which the background controller re-derives a skew "
                            "layout from the live data distribution (default: "
                            "controller off; POST /rebalance stays available)")
    serve.add_argument("--cluster", type=int, default=0,
                       help="cluster mode: spawn N shard-node processes (each its "
                            "own OS process behind HTTP) and front them with the "
                            "cluster router -- heartbeats, failover, degraded mode "
                            "(0 = off; mutually exclusive with --shards)")
    serve.add_argument("--replication", type=int, default=1,
                       help="with --cluster: node processes per shard; >= 2 lets "
                            "queries fail over when a node dies")
    serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                       help="with --cluster: seconds between fleet heartbeat rounds")
    serve.add_argument("--liveness-timeout", type=float, default=6.0,
                       help="with --cluster: silence after which a node is dead")
    serve.add_argument("--node-deadline", type=float, default=10.0,
                       help="with --cluster: per-node request deadline in seconds")
    serve.add_argument("--node-log-dir", default=None,
                       help="with --cluster: directory for per-node log files "
                            "(default: a fresh temporary directory)")
    serve.add_argument("--batch-window-ms", type=float, default=0.0,
                       help="how long a dispatcher waits for batchmates "
                            "(0 = natural batching: group only what is queued)")
    serve.add_argument("--k", type=int, default=10, help="default k for requests")
    serve.add_argument("--radius", type=float, default=None,
                       help="default absolute radius (overrides --radius-fraction)")
    serve.add_argument("--radius-fraction", type=float, default=0.10,
                       help="default radius as a fraction of the grid-cell side")
    serve.add_argument("--algorithm", choices=ALGORITHM_CHOICES, default="espq-sco",
                       help="default algorithm for requests ('auto' engages the "
                            "cost-based planner per query)")
    serve.add_argument("--admission-depth", type=int, default=0,
                       help="admission queue depth (max requests admitted but "
                            "unfinished); beyond it requests are shed with "
                            "HTTP 429; 0 disables admission control "
                            "(see docs/traffic.md)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       help="deadline applied to requests that carry no "
                            "'deadline_ms' field (admission control only)")
    _add_backend_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    shard_node = subparsers.add_parser(
        "shard-node",
        help="run one cluster shard node: load the full dataset, keep shard "
             "i's slice, serve it over HTTP (spawned by 'serve --cluster')",
    )
    shard_node.add_argument("--input", required=True,
                            help="the FULL dataset file (TSV); the node "
                                 "partitions it deterministically and keeps "
                                 "its own shard's slice")
    shard_node.add_argument("--shard-index", type=int, required=True,
                            help="which shard slice this node serves (0-based)")
    shard_node.add_argument("--shards", type=int, required=True,
                            help="total shard count of the cluster partitioning")
    shard_node.add_argument("--dataset-shm", default=None,
                            help="name of a shared-memory dataset segment "
                                 "published by the spawner; attached instead "
                                 "of parsing --input (which stays the "
                                 "fallback when the attach fails)")
    shard_node.add_argument("--dataset-epoch", default="boot",
                            help="epoch tag of the boot dataset (the router "
                                 "re-tags it on every hot swap)")
    _add_serving_arguments(shard_node, port=0, engines=1, result_cache=0, help={
        "max_radius": "feature replication radius of the partitioning "
                      "(must match the router's; default: unbounded)",
        "calibration_path": "this node's own durable calibration snapshot "
                            "(the spawner derives <base>.node<i>-<r>)",
        "calibration_seed": "snapshot that seeds this node's calibrator on a "
                            "cold start (no file at --calibration-path yet); "
                            "never written to",
    })
    _add_backend_arguments(shard_node)
    shard_node.set_defaults(func=_cmd_shard_node)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="fire a seeded open-loop workload at a service "
             "(see docs/traffic.md)",
    )
    loadgen.add_argument("--input", required=True,
                         help="dataset file (TSV); defines the vocabulary and "
                              "extent the workload draws from")
    loadgen.add_argument("--url", default=None,
                         help="target a running 'repro serve' "
                              "(default: build an in-process service)")
    loadgen.add_argument("--shards", type=int, default=1,
                         help="in-process mode: front the dataset with a "
                              "shard router of this many shards")
    loadgen.add_argument("--admission-depth", type=int, default=0,
                         help="in-process mode: admission queue depth "
                              "(0 disables admission control)")
    loadgen.add_argument("--default-deadline-ms", type=float, default=None,
                         help="in-process mode: deadline for requests without "
                              "a 'deadline_ms' field")
    loadgen.add_argument("--seed", type=int, default=7,
                         help="workload seed (same seed = identical schedule)")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="schedule length in seconds")
    loadgen.add_argument("--rate", type=float, default=50.0,
                         help="mean arrival rate in requests/second")
    loadgen.add_argument("--arrival", choices=("poisson", "diurnal"),
                         default="poisson")
    loadgen.add_argument("--diurnal-amplitude", type=float, default=0.8,
                         help="relative swing of the diurnal rate in [0, 1)")
    loadgen.add_argument("--zipf-exponent", type=float, default=1.1,
                         help="keyword popularity skew (0 = uniform)")
    loadgen.add_argument("--keywords-per-query", type=int, default=2)
    loadgen.add_argument("--k", type=int, default=10)
    loadgen.add_argument("--radius", type=float, default=None,
                         help="query radius forwarded into every request")
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline forwarded on the wire")
    loadgen.add_argument("--hotspot-fraction", type=float, default=0.0,
                         help="share of queries drawn from a seeded hotspot "
                              "sub-region")
    loadgen.add_argument("--burst-every", type=float, default=0.0,
                         help="inject a same-instant burst every N seconds "
                              "(0 disables)")
    loadgen.add_argument("--burst-size", type=int, default=0,
                         help="requests per burst instant")
    loadgen.add_argument("--slow-client-fraction", type=float, default=0.0,
                         help="share of clients that trickle request bytes")
    loadgen.add_argument("--clients", type=int, default=8,
                         help="simulated client fleet size")
    loadgen.add_argument("--ledger", default=None,
                         help="write the per-request JSONL ledger here")
    loadgen.set_defaults(func=_cmd_loadgen)

    analyze = subparsers.add_parser("analyze", help="Section 6 analytical tables")
    analyze.add_argument("what", choices=("duplication", "cell-size"))
    analyze.add_argument("--cell-side", type=float, default=10.0)
    analyze.add_argument("--radius", type=float, default=2.0)
    analyze.add_argument("--radius-fraction", type=float, default=0.10)
    analyze.add_argument("--features", type=int, default=1_000_000)
    analyze.set_defaults(func=_cmd_analyze)

    experiments = subparsers.add_parser("experiments", help="regenerate figure series")
    experiments.add_argument("--figure", choices=("5", "6", "7", "8", "9", "all"), default="all")
    experiments.add_argument("--objects", type=int, default=4_000)
    experiments.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
