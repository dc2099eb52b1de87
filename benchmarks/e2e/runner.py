"""One benchmark run: set up a target, measure whole blocks, verify, tear down.

A run is ``setup`` (timed, repeated, median reported) followed by a
*measured phase* of whole blocks executed until the ``--seconds`` budget is
spent.  A block's operations run in short segments; between segments, while
the clients are idle, the frozen reference kernel is timed, and every
time-valued metric is reported relative to it (see ``README.md``,
"Normalisation").  Between blocks -- outside any timed region -- a mirror
engine receives the same writes and a seeded sample of the block's reads is
compared with it.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import procstat
from inputs import Block, OpStream, inputs_digest, make_dataset, scores_digest
from refkernel import time_ref_kernel
from repro.datagen import save_dataset
from targets import (
    EngineTarget,
    Mirror,
    Reply,
    ServeTarget,
    answers_match,
    engine_config,
    service_defaults,
)
from trace import Tracer

#: A run always measures at least this many blocks, whatever the budget.
MIN_BLOCKS = 3


@dataclass
class Sample:
    """One timed operation and the machine-speed reading around it."""

    seconds: float
    #: Mean of the reference-kernel wall timings taken right before and
    #: right after the operation's segment (milliseconds).
    ruler_ms: float
    op_id: Optional[int] = None


@dataclass
class BlockRecord:
    """Raw measurements of one block (seconds unless noted)."""

    index: int
    traced: bool = False
    reads: List[Sample] = field(default_factory=list)
    writes: List[Sample] = field(default_factory=list)
    queries: int = 0
    #: Timed wall of the block's segments (reads and write bursts) ...
    wall: float = 0.0
    #: ... and the same with every segment divided by its ruler reading, so
    #: ``wall_per_ruler * nominal`` is the block's wall on the nominal box.
    wall_per_ruler: float = 0.0
    #: CPU of the benchmark process (timed segments) and of every server
    #: process (whole block, so background compaction is charged) ...
    cpu_seconds: float = 0.0
    #: ... and the same with every segment divided by its CPU-ruler reading.
    cpu_per_ruler: float = 0.0
    #: The servers' share of ``cpu_seconds`` that timed segments saw.
    server_cpu_seconds: float = 0.0
    kernel_wall_ms: List[float] = field(default_factory=list)
    kernel_cpu_ms: List[float] = field(default_factory=list)
    failed: int = 0
    #: Whether the write burst left the designed state (``write_burst``).
    in_phase: bool = True
    digest: str = ""
    metas: List[Mapping[str, object]] = field(default_factory=list)

    @property
    def ref_ms(self) -> float:
        """The block's machine-speed reading: median kernel wall ms."""
        return statistics.median(self.kernel_wall_ms)

    @property
    def ref_cpu_ms(self) -> float:
        """Mean kernel CPU ms: the ruler for CPU spent outside any segment."""
        return statistics.fmean(self.kernel_cpu_ms)


@dataclass
class RunRecord:
    """Everything one run measured, before metrics are derived."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Mapping[str, object]
    inputs_digest: str = ""
    setup_raw: List[float] = field(default_factory=list)
    #: Per repetition: sum over phases of seconds / ruler ms, so that
    #: ``setup_per_ruler * nominal`` is the set-up time on the nominal box.
    setup_per_ruler: List[float] = field(default_factory=list)
    blocks: List[BlockRecord] = field(default_factory=list)
    verified: int = 0
    peak_rss_mib: float = 0.0
    steal_pct: float = 0.0
    stats_before: Mapping[str, object] = field(default_factory=dict)
    stats_after: Mapping[str, object] = field(default_factory=dict)
    #: ``/stats`` of the processes that own engines and delta overlays:
    #: the shard nodes of a cluster, else the front door / engine itself.
    owner_stats_before: Sequence[Mapping[str, object]] = ()
    owner_stats_after: Sequence[Mapping[str, object]] = ()
    transport_before: Mapping[str, int] = field(default_factory=dict)
    transport_after: Mapping[str, int] = field(default_factory=dict)
    spawn_seconds: float = 0.0
    tracer: Optional[Tracer] = None
    counters: Dict[str, float] = field(default_factory=dict)
    sharding: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        """Operations sent during the measured phase."""
        return sum(len(block.reads) + len(block.writes) for block in self.blocks)

    @property
    def failed(self) -> int:
        """Operations that failed, were refused or answered wrongly."""
        return sum(block.failed for block in self.blocks)

    @property
    def scores_digest(self) -> str:
        """Digest over the per-block digests, in block order."""
        return scores_digest([[block.digest] for block in self.blocks])


def median_kernel_ms(count: int) -> float:
    """Median wall ms of ``count`` reference-kernel runs (set-up's ruler)."""
    return statistics.median(time_ref_kernel()[0] for _ in range(count))


def resolve_sizes(
    config: Mapping[str, object], workload: str, selftest: bool
) -> Dict[str, object]:
    """The workload's constants: common + its own (+ self-test shrink)."""
    sizes = dict(config["common"])
    sizes.update(config["workloads"][workload])
    if selftest:
        sizes["objects"] = config["selftest"]["objects"]
        sizes["sharding_replay_ops"] = 4
    return sizes


def build_target(sizes: Mapping[str, object], src_dir: Path, trace: bool):
    """The system shape for a workload (in-process front door when traced)."""
    if sizes["target"] == "engine":
        return EngineTarget(sizes)
    return ServeTarget(
        sizes,
        src_dir,
        in_process=trace,
        clients=1 if trace else None,
        request_stats=trace and bool(sizes["cluster"]),
    )


class _Measure:
    """The measured phase of one run (state shared by its helpers)."""

    def __init__(
        self, record: RunRecord, target, stream: OpStream, mirror: Mirror,
        config: Mapping[str, object],
    ) -> None:
        self.record = record
        self.target = target
        self.stream = stream
        self.mirror = mirror
        self.verify_share = float(config["verify_share"])
        self.pids = target.pids()
        self.tracer = record.tracer
        self._tracing = False
        self._block: Optional[BlockRecord] = None

    # ------------------------------------------------------------ the ruler

    def _kernel(self) -> Tuple[float, float]:
        """Time the reference kernel once; returns (and records) wall, CPU ms."""
        wall_ms, cpu_ms = time_ref_kernel()
        self._block.kernel_wall_ms.append(wall_ms)
        self._block.kernel_cpu_ms.append(cpu_ms)
        return wall_ms, cpu_ms

    # ------------------------------------------------------- timed segments

    def _timed(self, call, client: int, op) -> Tuple[Reply, float, Optional[int]]:
        """Run one operation; ``(reply, seconds, trace op id)``."""
        if not self._tracing:
            started = time.perf_counter()
            reply = call(client, op)
            return reply, time.perf_counter() - started, None
        with self.tracer.operation() as root:
            reply = call(client, op)
        return reply, root.duration, root.op

    def _run_chunk(
        self, call, ops: Sequence[object]
    ) -> List[Tuple[Reply, float, Optional[int]]]:
        """One segment's operations: inline, or one thread per connection."""
        clients = min(self.target.clients, len(ops))
        if clients == 1:
            return [self._timed(call, 0, op) for op in ops]
        results: List[Optional[Tuple[Reply, float, Optional[int]]]] = [None] * len(ops)

        def client_loop(client: int) -> None:
            for position in range(client, len(ops), clients):
                results[position] = self._timed(call, client, ops[position])

        threads = [
            threading.Thread(
                target=client_loop, args=(client,), name=f"bench-client-{client}"
            )
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def _run_segments(
        self, call, ops: Sequence[object], segment: int, sink: List[Sample]
    ) -> List[Reply]:
        """Timed segments with the kernel read in the quiet gap between them.

        Clients are idle (joined) whenever the kernel runs.  Each operation
        is normalised by the two readings that bracket its own segment, so
        machine-speed drift is followed at segment granularity -- one
        operation for single-client workloads.
        """
        block = self._block
        replies: List[Reply] = []
        before = self._kernel()
        for start in range(0, len(ops), segment):
            server_cpu = procstat.total_cpu_seconds(self.pids)
            own_cpu = time.process_time()
            started = time.perf_counter()
            results = self._run_chunk(call, ops[start:start + segment])
            wall = time.perf_counter() - started
            own_cpu = time.process_time() - own_cpu
            server_cpu = procstat.total_cpu_seconds(self.pids) - server_cpu
            after = self._kernel()
            ruler = 0.5 * (before[0] + after[0])
            block.wall += wall
            block.wall_per_ruler += wall / ruler
            block.server_cpu_seconds += server_cpu
            block.cpu_seconds += own_cpu + server_cpu
            block.cpu_per_ruler += (own_cpu + server_cpu) / (
                0.5 * (before[1] + after[1])
            )
            for reply, seconds, op_id in results:
                sink.append(Sample(seconds, ruler, op_id))
                replies.append(reply)
            before = after
        return replies

    def run_block(self, spec: Block, traced: bool) -> BlockRecord:
        """Execute one block's timed phases, then verify it (untimed)."""
        block = self._block = BlockRecord(index=spec.index, traced=traced)
        self._tracing = traced
        sizes = self.record.sizes
        replies = self._run_segments(
            self.target.read, spec.reads, int(sizes["segment_reads"]), block.reads
        )
        write_replies: List[Reply] = []
        if spec.writes:
            write_replies, block.in_phase = write_burst(
                self.target,
                spec.writes,
                int(sizes["compact_threshold"]),
                lambda batches: self._run_segments(
                    self.target.write, batches, 1, block.writes
                ),
            )
        block.failed += sum(1 for reply in write_replies if not reply.ok)
        block.queries = sum(
            len(op) if isinstance(op, list) else 1 for op in spec.reads
        )
        self._verify(spec, replies, block)
        return block

    # ------------------------------------------------------- verification

    def _verify(
        self, spec: Block, replies: Sequence[Reply], block: BlockRecord
    ) -> None:
        """Count failures, compare a seeded sample with the mirror, digest."""
        rng = random.Random(f"{self.stream.seed}/verify/{spec.index}")
        count = max(1, math.ceil(self.verify_share * len(spec.reads)))
        sample = set(rng.sample(range(len(spec.reads)), count))
        score_lists: List[Sequence[float]] = []
        for position, (op, reply) in enumerate(zip(spec.reads, replies)):
            if not reply.ok:
                block.failed += 1
                continue
            if self.record.trace:
                block.metas.extend(reply.meta)
            score_lists.extend(scores for _, scores in reply.answers)
            if position not in sample:
                continue
            queries = op if isinstance(op, list) else [op]
            self.record.verified += len(queries)
            if not all(
                answers_match(got, self.mirror.expected(query))
                for got, query in zip(reply.answers, queries)
            ):
                block.failed += 1
        block.digest = scores_digest(score_lists)
        for batch in spec.writes:
            self.mirror.apply(batch)


def write_burst(
    target, batches: Sequence[Mapping[str, object]], threshold: int, send
) -> Tuple[List[Reply], bool]:
    """One block's write burst; ``(replies, ended in the designed state)``.

    The burst's next-to-last batch is the compaction batch: alone it pushes
    every delta overlay past ``--compact-threshold`` (``inputs.py`` sizes it
    so).  The benchmark waits -- untimed -- for those compactions to finish
    and then sends the last, small batch.  So every block's reads meet the
    same state, on the service and on each shard node alike: a freshly
    compacted base plus exactly one live delta batch, and no compaction in
    flight.  ``send(batches)`` performs the writes (timed in the measured
    phase, plain in warm-up) and returns their replies.

    The designed state is *checked*, not assumed: every overlay owner must
    have compacted exactly once during the burst, hold nothing after the
    wait and one below-threshold batch at the end.
    """
    start = target.overlays()
    replies = send(batches[:-1])
    settled = target.quiesce()
    replies += send(batches[-1:])
    end = target.overlays()
    in_phase = all(
        after_wait == (0, compactions + 1)
        and 0 < live < threshold and compactions_end == compactions + 1
        for (_, compactions), after_wait, (live, compactions_end)
        in zip(start, settled, end)
    )
    return replies, in_phase


def _warm_up(target, stream: OpStream, sizes: Mapping[str, object]) -> None:
    """Warm the target with a dedicated block (index -1); part of set-up.

    A block of its own: warming with block 0's reads would fill the result
    cache with exactly the queries block 0 then measures.  Read/write
    workloads also run the warm-up block's whole write burst, compaction
    wait included, so block 0 already starts from the state every later
    block starts from (see :func:`write_burst`).
    """
    block = stream.block(-1)
    for position, op in enumerate(block.reads[:int(sizes["warmup_reads"])]):
        if not target.read(position % target.clients, op).ok:
            raise RuntimeError("warm-up read failed")
    if block.writes:
        replies, in_phase = write_burst(
            target,
            block.writes,
            int(sizes["compact_threshold"]),
            lambda batches: [target.write(0, batch) for batch in batches],
        )
        if not all(reply.ok for reply in replies):
            raise RuntimeError("warm-up write failed")
        if not in_phase:
            raise RuntimeError(
                "warm-up write burst did not end on a compacted base plus "
                f"one live batch: overlays {target.overlays()}"
            )


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    config: Mapping[str, object],
    src_dir: Path,
    work_dir: Path,
    selftest: bool = False,
) -> RunRecord:
    """Run one workload once and return its raw record."""
    sizes = resolve_sizes(config, workload, selftest)
    record = RunRecord(workload, seed, seconds, trace, sizes)
    gap_samples = int(config["ref_samples_per_gap"])
    reps = int(config["selftest"]["setup_reps"] if selftest else config["setup_reps"])
    work_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = work_dir / f"{workload}-seed{seed}.tsv"
    steal_before = procstat.machine_cpu_ticks()
    target = None
    mirror = None
    try:
        # ------------------------------------------------------------ setup
        for rep in range(reps):
            # Three timed phases with the kernel read between them: set-up
            # lasts seconds, and the box changes speed within one.
            phases: List[float] = []
            rulers = [median_kernel_ms(gap_samples)]

            def phase_done(started: float) -> None:
                phases.append(time.perf_counter() - started)
                rulers.append(median_kernel_ms(gap_samples))

            started = time.perf_counter()
            dataset = make_dataset(
                str(sizes["dataset"]), int(sizes["objects"]),
                int(sizes["dataset_seed"]),
            )
            if sizes["target"] != "engine":
                save_dataset(dataset_path, *dataset)
            stream = OpStream(workload, sizes, seed, dataset)
            phase_done(started)
            started = time.perf_counter()
            target = build_target(sizes, src_dir, trace)
            target.start(dataset, dataset_path, work_dir)
            phase_done(started)
            started = time.perf_counter()
            _warm_up(target, stream, sizes)
            gc.collect()
            phase_done(started)
            record.setup_raw.append(sum(phases))
            record.setup_per_ruler.append(sum(
                seconds / (0.5 * (before + after))
                for seconds, before, after in zip(phases, rulers, rulers[1:])
            ))
            record.spawn_seconds = target.spawn_seconds
            if rep < reps - 1:
                target.stop()
                target = None
        record.inputs_digest = inputs_digest(dataset, stream)
        pinned = config["pinned_inputs"].get(workload, {}).get(str(seed))
        if pinned and not selftest and pinned != record.inputs_digest:
            raise RuntimeError(
                f"inputs of ({workload}, seed {seed}) drifted: digest "
                f"{record.inputs_digest} != pinned {pinned}.  The workload no "
                "longer measures what the committed numbers measured."
            )
        mirror = Mirror(dataset, sizes)
        for batch in stream.block(-1).writes:
            mirror.apply(batch)
        if trace:
            record.tracer = Tracer()
            _install_taps(record)
        # Long-lived objects (datasets, indexes) leave the young generations
        # so collections triggered inside timed regions stay short; the
        # collector itself stays enabled.
        gc.collect()
        gc.freeze()
        # --------------------------------------------------- measured phase
        record.stats_before = target.stats()
        record.owner_stats_before = target.node_stats() or [record.stats_before]
        record.transport_before = _transport_stats()
        measure = _Measure(record, target, stream, mirror, config)
        pids = measure.pids
        phase_started = time.monotonic()
        deadline = phase_started + seconds
        index = 0
        server_cpu = procstat.total_cpu_seconds(pids)
        while True:
            traced = trace and index % 2 == 0
            if trace:
                if traced:
                    record.tracer.install()
                else:
                    record.tracer.uninstall()
            block = measure.run_block(stream.block(index), traced)
            # What the servers burnt outside the timed segments -- the
            # background work a write burst kicks off -- belongs to this
            # block too: their CPU is read block start to next block start,
            # and the part no segment saw is scaled by the block's own ruler.
            now_cpu = procstat.total_cpu_seconds(pids)
            background = max(0.0, now_cpu - server_cpu - block.server_cpu_seconds)
            block.cpu_seconds += background
            block.cpu_per_ruler += background / block.ref_cpu_ms
            server_cpu = now_cpu
            record.blocks.append(block)
            index += 1
            # Stop once less than half a block's time is left, so the phase
            # ends close to the budget instead of overshooting it by a block.
            now = time.monotonic()
            half_block = 0.5 * (now - phase_started) / index
            if index >= MIN_BLOCKS and now + half_block >= deadline:
                break
        if trace:
            record.tracer.uninstall()
        record.stats_after = target.stats()
        record.owner_stats_after = target.node_stats() or [record.stats_after]
        record.transport_after = _transport_stats()
        record.peak_rss_mib = procstat.total_peak_rss_mib([os.getpid()] + pids)
        if trace and sizes.get("cluster"):
            record.sharding = _sharding_replay(record, dataset, stream)
    finally:
        if record.tracer is not None:
            record.tracer.uninstall()
        gc.unfreeze()
        if target is not None:
            target.stop()
        if mirror is not None:
            mirror.close()
        if dataset_path.exists():
            dataset_path.unlink()
    record.steal_pct = procstat.steal_percent(
        steal_before, procstat.machine_cpu_ticks()
    )
    return record


def _transport_stats() -> Dict[str, int]:
    """Keep-alive counters of the in-process cluster transport."""
    from repro.cluster.transport import pool_stats

    return pool_stats()


def _install_taps(record: RunRecord) -> None:
    """Sum the engines' job counters as results pass the traced boundary."""
    counters = record.counters

    def tap(result) -> None:
        results = result if isinstance(result, list) else [result]
        for item in results:
            stats = item.stats
            for group, values in stats.get("counters", {}).items():
                for name, value in values.items():
                    key = f"{group}.{name}"
                    counters[key] = counters.get(key, 0) + value
            index = stats.get("index")
            if index:
                counters["index.candidate_features"] = (
                    counters.get("index.candidate_features", 0)
                    + index["candidate_features"]
                )

    record.tracer.taps["core.engine"] = tap


def _sharding_replay(record: RunRecord, dataset, stream: OpStream) -> Dict[str, float]:
    """The sharding layer's own cost: first ops on an in-process ShardRouter.

    Cluster mode pays the shard router's scatter-gather logic *plus* process
    hops; replaying a few reads on the in-process 2-shard router isolates
    the first from the second.
    """
    from repro.server import ServiceConfig
    from repro.sharding import ShardRouter, ShardingConfig
    from trace import TraceSummary

    sizes = record.sizes
    data, features = dataset
    started = time.perf_counter()
    router = ShardRouter(
        data,
        features,
        engine_config=engine_config(sizes),
        service_config=ServiceConfig(
            engines=2, result_cache_capacity=0, **service_defaults(sizes)
        ),
        sharding=ShardingConfig(shards=int(sizes["cluster"])),
    )
    partition_seconds = time.perf_counter() - started
    tracer = Tracer()
    ops = stream.block(0).reads[:int(sizes["sharding_replay_ops"])]
    with router:
        router.submit(ops[0])  # builds the shard indexes
        tracer.install()
        try:
            for op in ops:
                with tracer.operation():
                    router.submit(op)
        finally:
            tracer.uninstall()
        replication = router.stats()["sharding"]["feature_replication_factor"]
    summary = TraceSummary(tracer.spans)
    return {
        "sharding.router.self_ms": summary.self_ms_per_operation("sharding.router"),
        "sharding.partition_s": partition_seconds,
        "sharding.replication_factor": float(replication),
    }
