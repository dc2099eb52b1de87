#!/usr/bin/env python
"""Milliseconds per query in the layers a query's CPU goes through.

Builds one ``BENCHMARK.json`` workload's dataset and read stream exactly as
the benchmark does (``benchmarks/e2e/inputs.py``, read-only), replays the
reads on in-process ``SPQEngine`` s and prints, per timed layer, its total
time divided by the number of queries answered::

    python tools/profile_layers.py engine_auto_batch
    python tools/profile_layers.py engine_fixed --queries 48 --seed 2713
    python tools/profile_layers.py cluster_scatter_rw

A workload with a ``cluster`` shard count in ``config.json`` is replayed the
way its nodes serve it: the data partitioned as every shard node partitions
it (``partition_datasets``, unbounded replication), one engine per
data-bearing shard over the full extent and scoped to its shard box, every
read run on each of them; each layer is summed over the shard engines.

Batched reads run as one ``execute_many(auto)``, reads that name an
algorithm run it, every other read runs ``execute(auto)``; write bursts are
skipped (the serving workloads are replayed read-only) unless ``--writes``
asks for them::

    python tools/profile_layers.py cluster_scatter_rw --writes

With ``--writes`` each block's write burst follows its reads: every batch
is applied to the engines as the service applies it (sharded: a data
append to the shard whose box holds it, feature appends and deletes to
every shard), and after the burst's compaction batch every engine compacts
through ``SPQEngine.compact``, the code the service runs, so the next read
of each grid folds the delta into the retired index.  The
``DatasetIndex`` build and fold layers then show what the compaction cycle
costs, and the fold splits into its parts: ``PositionalInvertedIndex.fold``
(the posting lists renumbered and the appended postings inserted) and
``DataBlock.retain`` (the carried blocks' memos of the points left without
a feature); the fold minus those two is the carried columns, Lemma-1 lists
and rebuilt blocks.  The end-to-end figure includes the writes.  Each layer is timed
by wrapping the function with ``perf_counter`` for the whole run -- not
cProfile, whose per-call hook inflates the many-small-calls reducers about
twice over.  Layers nest: ``DataBlock.rows_within`` (the pSPQ / eSPQlen
in-range rows: memo misses compute them, hits are a dict look-up) runs
inside those two reduces, and every reduce inside the ``reduce phase``
(``SerialBackend.run_reduce_tasks``, the whole reduce side of a job run):
the phase minus the reducer rows is what the reduce loop itself costs.
``SizeWalk.open`` (the posting prefixes an ``auto`` scan counts, one
feature size range per call) and ``DataBlock.rows_within`` run inside
``DatasetIndex.scan``; ``planner collect`` is the named algorithms' whole
posting-list walk, which ``auto`` no longer calls.

``--service`` replays the reads through an in-process ``QueryService``
configured as the workload's server -- the pool, result cache and request
defaults ``repro serve`` gets from the benchmark, or, for a ``cluster``
workload, one shard node's service per data-bearing shard -- calling
``QueryService.submit`` (``submit_many`` for a batched read) instead of the
engines, and times the service layer too: ``MicroBatcher.submit`` (with an
idle engine this contains the whole inline run), ``PendingRequest.wait``
(the hand-off a queued request waits out), ``QueryService.
_execute_batch_inner`` (one batch on an engine), ``result_payload`` and
``ResultCache.put``::

    python tools/profile_layers.py serve_http_rw --service
    python tools/profile_layers.py cluster_scatter_rw --service --writes

With ``--writes`` the bursts go through ``QueryService.apply_objects`` and
each compaction through ``QueryService.compact``.

``--memory`` traces allocations from before the dataset is built and,
after the replay, prints the Python heap's ``TOP_SITES`` largest
allocation sites (file and line) and the process's peak resident set
(``VmHWM``)::

    python tools/profile_layers.py cluster_scatter_rw --memory

The timings of a ``--memory`` run are taken under ``tracemalloc``, which
slows every allocation: read them from a run without it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
sys.path[:0] = [str(ROOT / "src"), str(E2E)]

#: label -> (module, attribute path) of every timed function.
LAYERS: List[Tuple[str, str, str]] = [
    ("DatasetIndex build", "repro.index.dataset_index", "DatasetIndex.__init__"),
    ("DatasetIndex.fold", "repro.index.dataset_index", "DatasetIndex.fold"),
    ("PositionalInvertedIndex.fold", "repro.text.inverted_index", "PositionalInvertedIndex.fold"),
    ("DataBlock.retain", "repro.index.columns", "DataBlock.retain"),
    ("index.prepare", "repro.index.dataset_index", "DatasetIndex.prepare"),
    ("map_split", "repro.core.jobs", "_SPQJobBase.map_split"),
    ("reduce phase", "repro.execution.serial", "SerialBackend.run_reduce_tasks"),
    ("reduce pspq", "repro.core.jobs", "PSPQJob.reduce"),
    ("reduce espq-len", "repro.core.jobs", "ESPQLenJob.reduce"),
    ("reduce espq-sco", "repro.core.jobs", "ESPQScoJob.reduce"),
    ("DatasetIndex.scan", "repro.index.dataset_index", "DatasetIndex.scan"),
    ("SizeWalk.open", "repro.text.inverted_index", "SizeWalk.open"),
    ("DataBlock.rows_within", "repro.index.columns", "DataBlock.rows_within"),
    ("engine _merge", "repro.core.engine", "SPQEngine._merge"),
    ("planner collect", "repro.planner.core", "QueryPlanner.collect"),
    ("planner decide", "repro.planner.core", "QueryPlanner.decide"),
    ("CostModel.estimate", "repro.mapreduce.costmodel", "CostModel.estimate"),
]

#: The service layer ``--service`` times on top of :data:`LAYERS`.
SERVICE_LAYERS: List[Tuple[str, str, str]] = [
    ("MicroBatcher.submit", "repro.server.batching", "MicroBatcher.submit"),
    ("PendingRequest.wait", "repro.server.batching", "PendingRequest.wait"),
    ("_execute_batch_inner", "repro.server.service", "QueryService._execute_batch_inner"),
    ("result_payload", "repro.server.service", "result_payload"),
    ("ResultCache.put", "repro.server.cache", "ResultCache.put"),
]


#: Allocation sites ``--memory`` prints, largest first.
TOP_SITES = 15


def workload_sizes(workload: str) -> Dict[str, object]:
    """The workload's constants, as ``benchmarks/e2e/runner.py`` merges them."""
    with open(E2E / "config.json", "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if workload not in config["workloads"]:
        known = ", ".join(sorted(config["workloads"]))
        raise SystemExit(f"unknown workload {workload!r} (one of {known})")
    sizes = dict(config["common"])
    sizes.update(config["workloads"][workload])
    return sizes


def install_timers(totals: Dict[str, float], layers) -> None:
    """Wrap every layer function (a class's or a module's) so its calls add
    wall time to ``totals``."""
    clock = time.perf_counter
    for label, module_name, path in layers:
        *owners, attribute = path.split(".")
        cls = importlib.import_module(module_name)
        for owner in owners:
            cls = getattr(cls, owner)
        original = vars(cls)[attribute]
        static = isinstance(original, staticmethod)
        function = original.__func__ if static else original
        totals[label] = 0.0

        def timed(*args, __original=function, __label=label, **kwargs):
            started = clock()
            try:
                return __original(*args, **kwargs)
            finally:
                totals[__label] += clock() - started

        timed = functools.wraps(function)(timed)
        setattr(cls, attribute, staticmethod(timed) if static else timed)


def peak_rss_mib() -> str:
    """``VmHWM`` of this process in MiB (Linux ``/proc``; else ``n/a``)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return f"{int(line.split()[1]) / 1024.0:.1f}"
    except OSError:
        pass
    return "n/a"


def print_memory(top: int) -> None:
    """The traced heap's ``top`` largest allocation sites and the peak RSS."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    stats = snapshot.statistics("lineno")
    live = sum(stat.size for stat in stats)
    peak = tracemalloc.get_traced_memory()[1]
    print(f"  python heap {live / 2**20:.1f} MiB live, {peak / 2**20:.1f} MiB peak"
          f"  (tracemalloc); VmHWM {peak_rss_mib()} MiB")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        where = Path(frame.filename)
        if where.is_relative_to(ROOT):
            where = where.relative_to(ROOT)
        print(f"  {stat.size / 2**20:8.2f} MiB {stat.count:9d} blocks  {where}:{frame.lineno}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2713)
    parser.add_argument("--queries", type=int, default=96, help="queries to time")
    parser.add_argument(
        "--warmup", type=int, default=8, help="untimed queries first (index builds)"
    )
    parser.add_argument(
        "--writes", action="store_true",
        help="replay each block's write burst and its compaction too",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="replay through an in-process QueryService and time its layers",
    )
    parser.add_argument(
        "--memory", action="store_true",
        help="trace allocations; print the top sites and VmHWM after the replay",
    )
    args = parser.parse_args(argv)
    if args.memory:
        tracemalloc.start()

    from inputs import OpStream, make_dataset, objects_from_write
    from targets import default_radius, engine_config, make_query, service_defaults
    from repro.core.engine import SPQEngine
    from repro.server import QueryService, ServiceConfig
    from repro.sharding import partition_datasets

    sizes = workload_sizes(args.workload)
    dataset = make_dataset(
        str(sizes["dataset"]), int(sizes["objects"]), int(sizes["dataset_seed"])
    )
    shards = int(sizes.get("cluster", 0))

    def target(data_objects, feature_objects, **where):
        if not args.service:
            return SPQEngine(data_objects, feature_objects, engine_config(sizes), **where)
        # ``repro serve``'s pool (its nodes' too); a node caches nothing.
        # Compactions are replayed explicitly, so the threshold stays off.
        config = ServiceConfig(
            engines=2, result_cache_capacity=0 if shards else int(sizes["result_cache"]),
            **service_defaults(sizes),
        )
        service = QueryService(data_objects, feature_objects, engine_config(sizes), config, **where)
        return service.start()

    if shards:
        plan = partition_datasets(*dataset, shards)
        by_shard = {
            number: target(**plan.shard_slice(number))
            for number, shard in enumerate(plan.shards)
            if not shard.is_empty
        }
        engines = list(by_shard.values())
    else:
        engines = [target(*dataset)]
    radius = default_radius(engines[0].engines[0] if args.service else engines[0], sizes)
    stream = OpStream(args.workload, sizes, args.seed, dataset)
    #: The write batch of a burst after which the service compacts
    #: (``inputs.OpStream``: the next-to-last one crosses the threshold).
    compaction_batch = int(sizes.get("write_batches_per_block", 0)) - 2

    def ops():
        block = 0
        while True:
            current = stream.block(block)
            yield from current.reads
            if args.writes:
                for number, batch in enumerate(current.writes):
                    yield ("write", batch, number == compaction_batch)
            block += 1

    def write(batch, compact: bool) -> None:
        data, features, delete_data, delete_features = objects_from_write(batch)
        apply = "apply_objects" if args.service else "apply_updates"
        for engine in engines:
            getattr(engine, apply)(append_features=features, delete_data_oids=delete_data,
                                   delete_feature_oids=delete_features)
        for obj in data:
            owner = by_shard.get(plan.locate(obj.x, obj.y)) if shards else engines[0]
            if owner is not None:
                getattr(owner, apply)(append_data=[obj])
        if compact:
            for engine in engines:
                engine.compact()

    def run(op) -> int:
        if isinstance(op, tuple):
            write(*op[1:])
            return 0
        if args.service:
            submit = "submit_many" if isinstance(op, list) else "submit"
            for service in engines:
                getattr(service, submit)(op)
            return len(op) if isinstance(op, list) else 1
        if isinstance(op, list):
            queries = [make_query(spec, radius) for spec in op]
            for engine in engines:
                engine.execute_many(queries, algorithm="auto")
            return len(queries)
        query = make_query(op, radius)
        for engine in engines:
            engine.execute(query, algorithm=op.get("algorithm", "auto"))
        return 1

    stream_ops = ops()
    warm = 0
    while warm < args.warmup:
        warm += run(next(stream_ops))
    totals: Dict[str, float] = {}
    layers = LAYERS + SERVICE_LAYERS if args.service else LAYERS
    install_timers(totals, layers)
    answered = 0
    started = time.perf_counter()
    while answered < args.queries:
        answered += run(next(stream_ops))
    elapsed = time.perf_counter() - started

    kind = "services" if args.service else "engines"
    sharded = f"  {len(engines)} shard {kind}" if shards else ""
    replayed = "reads + write bursts" if args.writes else "reads only"
    print(f"{args.workload}  seed {args.seed}  {answered} queries ({replayed}){sharded}")
    print(f"  {'end to end':<28} {1000.0 * elapsed / answered:8.3f} ms/query")
    for label, _, _ in layers:
        print(f"  {label:<28} {1000.0 * totals[label] / answered:8.3f} ms/query")
    if args.memory:
        print_memory(TOP_SITES)
    for engine in engines:
        getattr(engine, "shutdown" if args.service else "close")()
    return 0


if __name__ == "__main__":
    sys.exit(main())
