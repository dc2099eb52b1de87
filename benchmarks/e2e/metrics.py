"""From a run's raw record to the declared metrics.

``end_to_end`` is what a user of the system sees; ``per_layer`` is what the
traced run says about each layer.  The metric *names* are declared once, in
``BENCHMARK.json``; ``check_declared`` keeps the two from drifting.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence

import estimators
from refkernel import REF_NOMINAL_MS
from runner import BlockRecord, RunRecord, Sample
from trace import TraceSummary

Metric = Dict[str, object]


def _metric(value: float, unit: str) -> Metric:
    return {"value": float(value), "unit": unit}


def _normalised_ms(samples: Sequence[Sample], nominal: float) -> List[float]:
    """Each sample's latency in nominal-box milliseconds."""
    return [
        1000.0 * estimators.normalised(sample.seconds, sample.ruler_ms, nominal)
        for sample in samples
    ]


def end_to_end(record: RunRecord, config: Mapping[str, object]) -> Dict[str, Metric]:
    """Every end-to-end metric of one untraced run, speed-normalised."""
    nominal = REF_NOMINAL_MS
    tail = float(config["tail_fraction"])
    blocks = record.blocks
    setup = statistics.median(record.setup_per_ruler) * nominal
    latencies = [
        value for block in blocks for value in _normalised_ms(block.reads, nominal)
    ]
    p50 = statistics.median(latencies)
    p90 = estimators.percentile(latencies, tail)
    # wall_per_ruler * nominal is the block's timed wall on the nominal box,
    # so a slow machine's fewer queries per second read as the nominal rate.
    qps = statistics.median(
        block.queries / (block.wall_per_ruler * nominal) for block in blocks
    )
    cpu = statistics.median(
        1000.0 * block.cpu_per_ruler * nominal / block.queries for block in blocks
    )
    return {
        "setup_s": _metric(setup, "s"),
        "latency_p50_ms": _metric(p50, "ms"),
        "latency_p90_ms": _metric(p90, "ms"),
        "throughput_qps": _metric(qps, "1/s"),
        "cpu_ms_per_query": _metric(cpu, "ms"),
        "peak_rss_mb": _metric(record.peak_rss_mib, "MiB"),
    }


def sample_counts(record: RunRecord, config: Mapping[str, object]) -> Dict[str, int]:
    """Sample sizes behind the percentiles (printed next to them)."""
    reads = sum(len(block.reads) for block in record.blocks)
    writes = sum(len(block.writes) for block in record.blocks)
    tail = float(config["tail_fraction"])
    return {
        "blocks": len(record.blocks),
        "traced_blocks": sum(1 for block in record.blocks if block.traced),
        "read_samples": reads,
        "write_samples": writes,
        "read_samples_beyond_tail": estimators.samples_beyond(reads, tail),
        "setup_samples": len(record.setup_raw),
        "verified_reads": record.verified,
        # Blocks whose write burst did not end on a compacted base plus one
        # live batch (runner.write_burst): their reads met another state.
        "off_phase_blocks": sum(1 for block in record.blocks if not block.in_phase),
    }


# --------------------------------------------------------------------- #
# per-layer


def _path(tree: Mapping[str, object], *keys: str) -> float:
    node: object = tree
    for key in keys:
        if not isinstance(node, Mapping) or key not in node:
            return 0.0
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else 0.0


def _delta(record: RunRecord, *keys: str) -> float:
    """Growth of one front-door ``/stats`` counter over the measured phase."""
    return _path(record.stats_after, *keys) - _path(record.stats_before, *keys)


def _owner_delta(record: RunRecord, *keys: str) -> float:
    """The same, summed over the processes that own engines and deltas."""
    return sum(
        _path(after, *keys) - _path(before, *keys)
        for before, after in zip(record.owner_stats_before, record.owner_stats_after)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _block_p50(blocks: Sequence[BlockRecord]) -> float:
    return estimators.median_or(
        [statistics.median(s.seconds for s in block.reads) for block in blocks]
    )


def per_layer(record: RunRecord, config: Mapping[str, object]) -> Dict[str, Metric]:
    """Every per-layer metric of one traced run.

    Time metrics are *self* milliseconds per read operation (per write
    operation for the write-path layers), taken from traced blocks only;
    they are raw, not speed-normalised -- ``machine.ref_kernel_ms`` is
    reported beside them.  Count metrics are per read operation too.
    Layers a workload never enters read 0.
    """
    summary = TraceSummary(record.tracer.spans)
    traced = [block for block in record.blocks if block.traced]
    untraced = [block for block in record.blocks if not block.traced]
    read_ops = {sample.op_id for block in traced for sample in block.reads}
    write_ops = {sample.op_id for block in traced for sample in block.writes}
    metas = [meta for block in traced for meta in block.metas]
    clustered = bool(record.sizes.get("cluster"))

    def read_ms(layer: str) -> float:
        return summary.self_ms_per_operation(layer, read_ops)

    def write_ms(layer: str) -> float:
        return summary.self_ms_per_operation(layer, write_ops)

    counters = dict(record.counters)
    if clustered:
        # Engines live in the node processes; the only counters that cross
        # the hop are the ones the router sums into the response stats.
        for counter, key in (
            ("shuffle.records", "shuffled_records"),
            ("work.features_examined", "features_examined"),
            ("work.score_computations", "score_computations"),
        ):
            counters[counter] = sum(
                _path(meta, "stats", key) for meta in metas
            )

    def per_read(key: str) -> float:
        return _ratio(counters.get(key, 0), len(read_ops))

    planned: List[str] = []
    for meta in metas:
        if "planned_algorithm" in meta:
            planned.append(str(meta["planned_algorithm"]))
        else:
            # Shards that planned differently are listed per shard.
            by_shard = _mapping(_mapping(_mapping(meta.get("stats")).get("cluster")).get(
                "planned_algorithms"
            ))
            planned.extend(str(value) for value in by_shard.values())

    def share(algorithm: str) -> float:
        return _ratio(sum(1 for name in planned if name == algorithm), len(planned))

    index_hits = _owner_delta(record, "index_cache", "hits")
    cache_hits = _delta(record, "result_cache", "hits")
    node_requests = _owner_delta(record, "latency", "count") if clustered else 0.0
    node_ms = sum(
        _path(after, "latency", "mean_ms") * _path(after, "latency", "count")
        - _path(before, "latency", "mean_ms") * _path(before, "latency", "count")
        for before, after in zip(record.owner_stats_before, record.owner_stats_after)
    )
    transport = {
        key: record.transport_after.get(key, 0) - record.transport_before.get(key, 0)
        for key in ("requests", "reused")
    }
    write_batches = sum(len(block.writes) for block in record.blocks)
    delta_ops = sum(
        _owner_delta(record, "ingest", "cumulative", key)
        for key in (
            "data_appended", "features_appended", "data_deleted", "features_deleted",
        )
    )
    untraced_p50 = _block_p50(untraced)

    values: Dict[str, Metric] = {
        # core / mapreduce / execution
        "core.engine.self_ms": _metric(read_ms("core.engine"), "ms"),
        "mapreduce.run.self_ms": _metric(read_ms("mapreduce.run"), "ms"),
        "execution.map_ms": _metric(read_ms("execution.map"), "ms"),
        "execution.reduce_ms": _metric(read_ms("execution.reduce"), "ms"),
        "model.merge_top_k_ms": _metric(read_ms("model.merge_top_k"), "ms"),
        "mapreduce.map_input_records": _metric(per_read("map.input_records"), "count"),
        "mapreduce.shuffle_records": _metric(per_read("shuffle.records"), "count"),
        "mapreduce.shuffle_bytes": _metric(per_read("shuffle.bytes"), "count"),
        "mapreduce.reduce_tasks_skipped": _metric(
            per_read("reduce.tasks_skipped"), "count"
        ),
        "core.features_examined": _metric(per_read("work.features_examined"), "count"),
        "core.score_computations": _metric(
            per_read("work.score_computations"), "count"
        ),
        "core.early_terminations": _metric(per_read("spq.early_terminations"), "count"),
        "core.examined_per_candidate": _metric(
            _ratio(
                counters.get("work.features_examined", 0),
                counters.get("index.candidate_features", 0),
            ),
            "ratio",
        ),
        # index / planner
        "index.build_ms": _metric(read_ms("index.build"), "ms"),
        "index.prepare_ms": _metric(read_ms("index.prepare"), "ms"),
        "index.cache_hit_rate": _metric(
            _ratio(index_hits, index_hits + _owner_delta(record, "index_cache", "misses")),
            "ratio",
        ),
        "index.candidate_features": _metric(
            per_read("index.candidate_features"), "count"
        ),
        "planner.collect_ms": _metric(read_ms("planner.collect"), "ms"),
        "planner.decide_ms": _metric(read_ms("planner.decide"), "ms"),
        "planner.observe_ms": _metric(read_ms("planner.observe"), "ms"),
        "planner.choice_share.pspq": _metric(share("pspq"), "ratio"),
        "planner.choice_share.espq-len": _metric(share("espq-len"), "ratio"),
        "planner.choice_share.espq-sco": _metric(share("espq-sco"), "ratio"),
        # server
        "server.http.self_ms": _metric(read_ms("server.http"), "ms"),
        "server.protocol.parse_ms": _metric(read_ms("server.protocol.parse"), "ms"),
        "server.protocol.payload_ms": _metric(
            read_ms("server.protocol.payload"), "ms"
        ),
        "server.admission.wait_ms": _metric(read_ms("server.admission.wait"), "ms"),
        "server.admission.shed": _metric(
            _delta(record, "admission", "shed", "total"), "count"
        ),
        "server.batching.wait_ms": _metric(read_ms("server.batching.wait"), "ms"),
        "server.batching.mean_batch": _metric(
            _ratio(
                _delta(record, "batching", "batched_requests"),
                _delta(record, "batching", "batches"),
            ),
            "count",
        ),
        "server.cache.get_ms": _metric(read_ms("server.cache.get"), "ms"),
        "server.cache.put_ms": _metric(read_ms("server.cache.put"), "ms"),
        "server.cache.hit_rate": _metric(
            _ratio(cache_hits, cache_hits + _delta(record, "result_cache", "misses")),
            "ratio",
        ),
        "server.service.self_ms": _metric(read_ms("server.service"), "ms"),
        # index.delta (write path: per write operation)
        "index.delta.apply_ms": _metric(write_ms("index.delta.apply"), "ms"),
        "index.delta.ops": _metric(_ratio(delta_ops, write_batches), "count"),
        "index.compactions": _metric(
            _owner_delta(record, "ingest", "compactions"), "count"
        ),
        "index.compact_ms": _metric(
            1000.0 * estimators.median_or(summary.durations("index.compact")), "ms"
        ),
        "index.first_read_after_write_ms": _metric(
            1000.0 * estimators.median_or(
                [block.reads[0].seconds for block in record.blocks if block.writes]
            ),
            "ms",
        ),
        "write.p50_ms": _metric(
            1000.0 * estimators.median_or(
                [s.seconds for block in record.blocks for s in block.writes]
            ),
            "ms",
        ),
        # cluster / sharding
        "cluster.router.self_ms": _metric(read_ms("cluster.router"), "ms"),
        "cluster.transport.roundtrip_ms": _metric(
            read_ms("cluster.transport.roundtrip"), "ms"
        ),
        "cluster.transport.reuse_ratio": _metric(
            _ratio(transport["reused"], transport["requests"]) if clustered else 0.0,
            "ratio",
        ),
        "cluster.node.service_ms": _metric(
            _ratio(node_ms, node_requests) if clustered else 0.0, "ms"
        ),
        "cluster.slowest_shard_share": _metric(
            _slowest_shard_share(summary, read_ops), "ratio"
        ),
        "cluster.failovers": _metric(_delta(record, "requests", "failovers"), "count"),
        "cluster.degraded": _metric(
            _delta(record, "requests", "degraded_responses"), "count"
        ),
        "cluster.resyncs": _metric(_delta(record, "cluster", "resyncs"), "count"),
        "cluster.spawn_s": _metric(record.spawn_seconds, "s"),
        "cluster.write_push_ms": _metric(write_ms("cluster.write_push"), "ms"),
        "sharding.router.self_ms": _metric(
            record.sharding.get("sharding.router.self_ms", 0.0), "ms"
        ),
        "sharding.partition_s": _metric(
            record.sharding.get("sharding.partition_s", 0.0), "s"
        ),
        "sharding.replication_factor": _metric(
            record.sharding.get("sharding.replication_factor", 0.0), "ratio"
        ),
        # diagnostics
        "machine.ref_kernel_ms": _metric(
            statistics.median(block.ref_ms for block in record.blocks), "ms"
        ),
        "machine.steal_pct": _metric(record.steal_pct, "%"),
        "raw.latency_p50_ms": _metric(1000.0 * untraced_p50, "ms"),
        "raw.throughput_qps": _metric(
            estimators.median_or([
                block.queries / block.wall for block in untraced
            ]),
            "1/s",
        ),
        "trace.overhead_pct": _metric(
            100.0 * (_block_p50(traced) / untraced_p50 - 1.0) if untraced_p50 else 0.0,
            "%",
        ),
        "trace.accounted_share": _metric(
            _ratio(summary.accounted_seconds(), summary.end_to_end_seconds()), "ratio"
        ),
    }
    return values


def _mapping(value: object) -> Mapping[str, object]:
    return value if isinstance(value, Mapping) else {}


def _slowest_shard_share(summary: TraceSummary, read_ops) -> float:
    """Mean over scattered reads of slowest round trip / sum of round trips.

    0.5 is a perfectly balanced two-shard scatter; towards 1.0 one shard
    sets the read's time and the other's work is hidden behind it.
    """
    by_op: Dict[int, List[float]] = {}
    for span in summary.spans:
        if span.name == "cluster.transport.roundtrip" and span.op in read_ops:
            by_op.setdefault(span.op, []).append(span.duration)
    shares = [
        max(durations) / sum(durations)
        for durations in by_op.values() if len(durations) > 1 and sum(durations)
    ]
    return statistics.fmean(shares) if shares else 0.0


def check_declared(
    emitted: Mapping[str, Metric], declared: Sequence[Mapping[str, object]]
) -> None:
    """Fail loudly if emitted metrics and ``BENCHMARK.json`` disagree."""
    want = {str(entry["name"]): str(entry["unit"]) for entry in declared}
    got = {name: str(metric["unit"]) for name, metric in emitted.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(
            name for name in set(want) & set(got) if want[name] != got[name]
        )
        raise RuntimeError(
            "emitted metrics do not match BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}, unit mismatch {units}"
        )
