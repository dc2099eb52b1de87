"""Command-line interface.

The subcommands cover the full workflow a downstream user needs:

* ``generate``    -- create a dataset file (UN / CL / FL-like / TW-like).
* ``query``       -- run a spatial preference query over a dataset file with
  any of the algorithms and print the top-k plus execution statistics.
* ``batch``       -- run many queries from a JSONL file through the batch
  engine (shared index builds) and emit one JSON result line per query.
* ``serve``       -- run the persistent HTTP query service: warm engine
  pool, micro-batching, result cache.  ``--cluster N`` spawns N
  ``shard-node`` processes side by side and hands them the parsed dataset
  through one inherited, anonymous memory file.
* ``shard-node``  -- one cluster shard node: reads the dataset from the
  spawner's descriptor (``--dataset-fd``) or, failing that, parses
  ``--input``, keeps its shard's slice and serves it over HTTP.
* ``analyze``     -- print the Section 6 analytical tables (duplication factor
  and cell-size cost) for given parameters.
* ``experiments`` -- regenerate the figure series (same engine as
  ``benchmarks/run_all.py``) for one figure or all of them.

Examples::

    python -m repro generate --dataset uniform --objects 10000 --output un.tsv
    python -m repro query --input un.tsv --keywords w0001,w0002 --k 10 \
        --radius-fraction 0.1 --grid-size 20 --algorithm espq-sco
    python -m repro batch --input un.tsv --queries queries.jsonl --output -
    python -m repro serve --input un.tsv --port 8787
    python -m repro analyze duplication --cell-side 10 --radius 2
    python -m repro experiments --figure 7 --objects 4000
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
import threading
from typing import List, Optional, Sequence

from repro import __version__
from repro.core.centralized import dataset_extent
from repro.core.engine import ALGORITHM_CHOICES, EngineConfig, SPQEngine
from repro.exceptions import JobConfigurationError
from repro.datagen.io import load_dataset, save_dataset
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
from repro.model.query import SpatialPreferenceQuery

DATASET_CHOICES = ("uniform", "clustered", "flickr", "twitter")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """``--backend serial``: one value, kept because scripts spell it out.

    Tasks run serially, always; ``benchmarks/e2e`` and existing command
    lines pass ``--backend serial`` to ``query``, ``batch``, ``serve`` and
    ``shard-node``.  Any other value exits 2 through argparse.
    """
    parser.add_argument(
        "--backend",
        choices=("serial",),
        default="serial",
        help="execution backend; 'serial' is the only one (every task runs "
        "inline -- the paper's parallelism is simulated by the cost model, "
        "and real scale-out is --cluster)",
    )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """The engine configuration of a serving command: its ``--grid-size``."""
    return EngineConfig(grid_size=args.grid_size)


class _CliError(Exception):
    """Bad input: :func:`main` prints ``error: <message>`` and exits 2."""


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_nonempty_dataset(path: str):
    """The dataset file every query-running command starts from."""
    data, features = load_dataset(path)
    if not data:
        raise _CliError("dataset contains no data objects")
    return data, features


def _add_query_arguments(
    parser: argparse.ArgumentParser, *, help, grid_size: bool = True
) -> None:
    """The query-parameter flags: what ``query`` runs with, and what ``batch``
    and ``serve`` resolve a request against that leaves a field out.

    ``help`` maps each flag to the command's wording; ``grid_size=False``
    is for ``serve``, whose ``--grid-size`` comes with the serving flags.
    """
    parser.add_argument("--k", type=int, default=10, help=help.get("k"))
    parser.add_argument("--radius", type=float, default=None, help=help["radius"])
    parser.add_argument("--radius-fraction", type=float, default=0.10,
                        help=help["radius_fraction"])
    if grid_size:
        parser.add_argument("--grid-size", type=int, default=50)
    parser.add_argument("--algorithm", choices=ALGORITHM_CHOICES,
                        default="espq-sco", help=help["algorithm"])


def _default_help(what: str) -> dict:
    """``_add_query_arguments`` wording for flags that are defaults of ``what``."""
    return {
        "k": f"default k for {what}",
        "radius": "default absolute radius (overrides --radius-fraction)",
        "radius_fraction": "default radius as a fraction of the grid-cell side",
        "algorithm": f"default algorithm for {what} ('auto': one global "
                     "score-ordered scan, exact)",
    }


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
    parser.add_argument("--access-log", action="store_true",
                        help="log one line per HTTP request to stderr")


#: ``ServiceConfig`` field -> the argparse dest that sets it.  A serving
#: command that does not declare a flag keeps the dataclass default.
_SERVICE_CONFIG_FLAGS = {
    "engines": "engines",
    "max_batch": "max_batch",
    "result_cache_capacity": "result_cache",
    "compact_threshold": "compact_threshold",
    "default_k": "k",
    "default_radius": "radius",
    "default_radius_fraction": "radius_fraction",
    "default_algorithm": "algorithm",
    "default_grid_size": "grid_size",
    "admission_queue_depth": "admission_depth",
    "default_deadline_ms": "default_deadline_ms",
}


def _config_from_flags(config_class, flags, args: argparse.Namespace, **extra):
    """``config_class`` built from the flags a command declares."""
    values = {
        field: getattr(args, dest)
        for field, dest in flags.items()
        if hasattr(args, dest)
    }
    return config_class(**values, **extra)


def _request_defaults(args: argparse.Namespace, data, features):
    """What a request that leaves a field out resolves to under the command's
    flags -- by the service's own rule (``--radius``, else
    ``--radius-fraction`` of a ``--grid-size`` cell), so ``query``, ``batch``
    and ``serve`` agree on it."""
    from repro.server.service import resolve_request_defaults

    try:
        return resolve_request_defaults(
            dataset_extent(data, features), args.grid_size, _service_config(args)
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _service_config(args: argparse.Namespace):
    """Service configuration from a serving command's flags."""
    from repro.server import ServiceConfig

    extra = {}
    if hasattr(args, "batch_window_ms"):
        extra["batch_window_seconds"] = args.batch_window_ms / 1000.0
    return _config_from_flags(ServiceConfig, _SERVICE_CONFIG_FLAGS, args, **extra)


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
    data, features = _load_nonempty_dataset(args.input)
    keywords = {word for word in args.keywords.split(",") if word}
    if not keywords:
        raise _CliError("--keywords must contain at least one keyword")
    radius = _request_defaults(args, data, features).radius
    query = SpatialPreferenceQuery.create(k=args.k, radius=radius, keywords=keywords)
    engine = SPQEngine(data, features)

    try:
        result = engine.execute(query, algorithm=args.algorithm, grid_size=args.grid_size)
    finally:
        engine.close()
    print(f"Query: {query.describe()}  [algorithm={args.algorithm}, grid={args.grid_size}]")
    if not result.entries:
        print("No data object has a positive score for this query.")
    for rank, entry in enumerate(result, start=1):
        print(f"  {rank:>3}. {entry.obj.oid:<16} score={entry.score:.4f} "
              f"({entry.obj.x:.3f}, {entry.obj.y:.3f})")
    stats = result.stats
    if args.stats and "features_examined" in stats:
        print("\nExecution statistics:")
        if "planned_algorithm" in stats:
            print(f"  planned algorithm:   {stats['planned_algorithm']}")
        print(f"  features examined:   {stats['features_examined']}")
        print(f"  score computations:  {stats['score_computations']}")
        if "simulated_seconds" in stats:  # a paper job ran (``auto`` runs none)
            print(f"  reduce tasks:        {stats['num_reduce_tasks']}")
            print(f"  shuffled records:    {stats['shuffled_records']}")
            print(f"  features pruned:     {stats['features_pruned']}")
            print(f"  simulated job time:  {stats['simulated_seconds']:.1f}s")
    return 0


# --------------------------------------------------------------------- #
# batch


def _cmd_batch(args: argparse.Namespace) -> int:
    # The query file is the service's wire format, parsed by the service's
    # own parser against defaults derived the service's way, so a file
    # replays against ``POST /batch`` of a server started with the same
    # flags line for line (docs/service.md).
    from repro.server.protocol import (
        batch_lines,
        parse_query_spec,
        result_payload,
        split_batch_body,
    )

    data, features = _load_nonempty_dataset(args.input)
    defaults = _request_defaults(args, data, features)
    try:
        with open(args.queries, "r", encoding="utf-8") as handle:
            numbered = split_batch_body(handle.read())
    except OSError as exc:
        raise _CliError(f"cannot read query file: {exc}") from exc
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    requests = []
    for number, spec in numbered:
        try:
            parsed = parse_query_spec(spec, defaults, ALGORITHM_CHOICES)
        except InvalidQueryError as exc:
            raise _CliError(f"line {number}: {exc}") from exc
        # A line's "deadline_ms" is legal and means nothing offline.
        requests.append(dataclasses.replace(
            parsed, include_stats=parsed.include_stats or args.stats
        ))
    engine = SPQEngine(data, features)
    try:
        results = engine.execute_many([request.item for request in requests])
    finally:
        engine.close()

    # The same renderer as a ``POST /batch`` response: one object per line.
    lines = batch_lines(
        [result_payload(request, result) for request, result in zip(requests, results)]
    )
    if args.output == "-":
        sys.stdout.write(lines)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(lines)
        except OSError as exc:
            raise _CliError(f"cannot write output file: {exc}") from exc
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


def _from_flags(args: argparse.Namespace, build):
    """``build(engine_config, service_config)`` -- the serving commands'
    shared prologue; a flag combination either config or ``build``
    rejects exits 2."""
    try:
        return build(_engine_config(args), _service_config(args))
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _front_door(
    args: argparse.Namespace, data, features, service_config,
    engine_config=None, **sharding,
):
    """The in-process service of ``serve``: a query service, or with
    ``--shards > 1`` a shard router (``sharding`` = its other knobs)."""
    from repro.server import QueryService

    if args.shards <= 1:
        return QueryService(
            data, features, engine_config=engine_config, config=service_config
        )
    from repro.sharding import ShardRouter, ShardingConfig

    return ShardRouter(
        data,
        features,
        engine_config=engine_config,
        service_config=service_config,
        sharding=ShardingConfig(shards=args.shards, **sharding),
    )


def _bind_server(args: argparse.Namespace, service):
    """The HTTP server of ``service`` on ``--host``/``--port`` (exit 2 when
    the address cannot be bound)."""
    from repro.server import make_server

    try:
        return make_server(
            service, args.host, args.port, quiet=not args.access_log
        )
    except OSError as exc:
        raise _CliError(f"cannot bind {args.host}:{args.port}: {exc}") from exc


def _print_banner(
    who: str, args: argparse.Namespace, server, detail: str,
    extra_post: str = "", extra_get: str = "",
) -> None:
    """The two start-up lines of a serving command.  The cluster spawner
    tails node logs for the exact "listening on http://..." wording to
    learn the OS-assigned port; keep it stable."""
    print(f"{who} listening on http://{args.host}:{server.port}  ({detail})")
    print(
        "endpoints: POST /query  POST /batch  POST /objects  "
        f"POST /datasets{extra_post}  GET /healthz  GET /stats{extra_get}"
    )
    sys.stdout.flush()


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.cluster:
        return _cmd_serve_cluster(args)
    data, features = _load_nonempty_dataset(args.input)
    sharded = args.shards > 1
    if args.shards < 1:
        raise _CliError(f"--shards must be >= 1, got {args.shards}")
    if args.max_radius is not None and not sharded:
        _warn("--max-radius only affects sharded serving (--shards > 1); ignored")
    if not sharded and (
        args.layout != "uniform" or args.rebalance_threshold is not None
    ):
        _warn(
            "--layout/--rebalance-threshold only affect sharded serving "
            "(--shards > 1); ignored"
        )

    service = _from_flags(
        args,
        lambda engine_config, service_config: _front_door(
            args, data, features, service_config, engine_config,
            max_radius=args.max_radius,
            layout=args.layout,
            rebalance_threshold=args.rebalance_threshold,
        ),
    )
    server = _bind_server(args, service)

    service.start()
    shard_note = (
        f", {args.shards} shards ({args.layout} layout)" if sharded else ""
    )
    _print_banner(
        "repro serve:", args, server,
        f"{len(data)} data objects, {len(features)} feature objects, "
        f"{args.engines} engines{shard_note}",
        extra_post="  POST /rebalance" if sharded else "",
    )

    # The service's shutdown drains and closes engines.
    _run_server_loop(server, [service.shutdown])
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

    if args.shards > 1:
        raise _CliError(
            "--cluster and --shards are mutually exclusive (--cluster N "
            "already shards the dataset across N node processes)"
        )
    if args.cluster < 1 or args.replication < 1:
        raise _CliError(
            f"--cluster and --replication must be >= 1, got "
            f"{args.cluster} and {args.replication}"
        )
    data, features = _load_nonempty_dataset(args.input)
    engine_config = _engine_config(args)
    # The router reads only the request defaults and admission knobs; the
    # pool and cache flags configure the nodes.
    service_config = _service_config(args)
    cluster_config = ClusterConfig(
        shards=args.cluster,
        max_radius=args.max_radius,
        heartbeat_interval=args.heartbeat_interval,
        liveness_timeout=args.liveness_timeout,
        node_deadline=args.node_deadline,
        result_cache_capacity=args.result_cache,
    )
    extra_args: List[str] = []
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
            dataset=(data, features),
            log_dir=args.node_log_dir,
            extra_args=extra_args,
        )
    except (OSError, RuntimeError, ValueError) as exc:
        raise _CliError(f"cannot spawn shard nodes: {exc}") from exc
    try:
        router = ClusterRouter(
            data,
            features,
            [NodeSpec(url=node.url, shard_index=node.shard_index) for node in nodes],
            cluster=cluster_config,
            engine_config=engine_config,
            service_config=service_config,
        )
        server = _bind_server(args, router)
    except (_CliError, ValueError, InvalidQueryError) as exc:
        terminate_nodes(nodes)
        raise _CliError(f"cannot start the cluster router: {exc}") from exc
    router.start()
    for node in nodes:
        print(
            f"node shard {node.shard_index} replica {node.replica_rank}: "
            f"{node.url}  (pid {node.process.pid}, log {node.log_path})"
        )
    _print_banner(
        "repro serve:", args, server,
        f"{len(data)} data objects, {len(features)} feature objects, "
        f"{args.cluster} shards x {args.replication} replicas",
    )
    _run_server_loop(
        server, [router.shutdown, lambda: terminate_nodes(nodes)]
    )
    return 0


def _cmd_shard_node(args: argparse.Namespace) -> int:
    """``repro shard-node``: one shard slice of a dataset behind HTTP."""
    from repro.cluster import NodeConfig, ShardNodeService

    dataset = None
    dataset_source = f"file {args.input}"
    if args.dataset_fd is not None:
        from repro.cluster.spawn import attach_dataset

        try:
            dataset = attach_dataset(args.dataset_fd)
            dataset_source = f"inherited fd {args.dataset_fd}"
        except (OSError, ValueError) as exc:
            _warn(
                f"cannot read the dataset from fd {args.dataset_fd} ({exc}); "
                f"loading {args.input}"
            )
    if dataset is None:
        dataset = load_dataset(args.input)
    data, features = dataset
    if not data:
        raise _CliError("dataset contains no data objects")
    node = _from_flags(
        args,
        lambda engine_config, service_config: ShardNodeService(
            data,
            features,
            node_config=NodeConfig(
                shard_index=args.shard_index,
                shards=args.shards,
                max_radius=args.max_radius,
                dataset_epoch=args.dataset_epoch,
            ),
            engine_config=engine_config,
            service_config=service_config,
        ),
    )
    server = _bind_server(args, node)
    node.start()
    slice_info = node.dataset_info()
    print(f"repro shard-node: dataset from {dataset_source}")
    _print_banner(
        f"repro shard-node: shard {args.shard_index}/{args.shards}", args, server,
        f"node {node.node_id}, {slice_info['data_objects']} data objects, "
        f"{slice_info['feature_objects']} feature objects",
        extra_get="  GET /heartbeat",
    )
    _run_server_loop(server, [node.shutdown])
    return 0


# --------------------------------------------------------------------- #
# analyze


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.paper.analysis import duplication_factor, reducer_cost_model

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
    from repro.paper.bench import experiments as exp

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
    _add_query_arguments(query, help={
        "radius": "absolute query radius (overrides --radius-fraction)",
        "radius_fraction": "radius as a fraction of the grid-cell side "
                           "(default 0.10)",
        "algorithm": "algorithm to run ('auto': one global score-ordered "
                     "scan, exact)",
    })
    query.add_argument("--stats", action="store_true", help="print execution statistics")
    _add_backend_argument(query)
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
    _add_query_arguments(batch, help=_default_help("query lines"))
    batch.add_argument("--stats", action="store_true",
                       help="attach per-query stats and print cache summary")
    _add_backend_argument(batch)
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
    _add_query_arguments(serve, help=_default_help("requests"), grid_size=False)
    serve.add_argument("--admission-depth", type=int, default=0,
                       help="admission queue depth (max requests admitted but "
                            "unfinished); beyond it requests are shed with "
                            "HTTP 429; 0 disables admission control "
                            "(see docs/traffic.md)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       help="deadline applied to requests that carry no "
                            "'deadline_ms' field (admission control only)")
    _add_backend_argument(serve)
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
    shard_node.add_argument("--dataset-fd", type=int, default=None,
                            help="inherited descriptor of the dataset memory "
                                 "file the spawner wrote; read instead of "
                                 "parsing --input (which stays the fallback "
                                 "when the read fails)")
    shard_node.add_argument("--dataset-epoch", default="boot",
                            help="epoch tag of the boot dataset (the router "
                                 "re-tags it on every hot swap)")
    _add_serving_arguments(shard_node, port=0, engines=1, result_cache=0, help={
        "max_radius": "feature replication radius of the partitioning "
                      "(must match the router's; default: unbounded)",
    })
    _add_backend_argument(shard_node)
    shard_node.set_defaults(func=_cmd_shard_node)

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
    try:
        return args.func(args)
    except (_CliError, InvalidQueryError, JobConfigurationError) as exc:
        # Bad flags, a bad dataset or query file, an invalid query: one
        # line on stderr, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
