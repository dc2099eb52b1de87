"""Spawn and supervise local shard-node subprocesses.

``repro serve --cluster N`` (and the cluster benchmark/tests) build their
fleet here: ``N * replication`` OS processes, each running ``repro
shard-node --shard-index i`` against the same dataset, each binding
**port 0** and reporting the OS-assigned port on its stdout "listening on"
line -- the spawner tails each node's log file until that line appears, so
no port is ever guessed and two fleets on one CI runner cannot collide.

When the caller already holds the parsed dataset, the spawner publishes it
once as a shared-memory column segment (``--dataset-shm``) so every node
attaches and materializes it instead of re-reading and re-parsing the
dataset file -- node startup cost stops scaling with fleet size, and the
``--input`` path stays on each command line as the fallback.

Node stdout/stderr go to per-node log files rather than pipes: a pipe
nobody drains would eventually block the child, and a crashed node's log
tail is the first thing an operator (or the spawn error message) wants.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.execution.shm import publish_dataset_segment, shared_memory_available

#: The shard-node CLI's ready line; the URL carries the OS-assigned port.
_READY_PATTERN = re.compile(r"listening on (http://\S+)")


@dataclass
class NodeProcess:
    """One spawned shard-node subprocess and where it listens.

    Attributes:
        process: The live :class:`subprocess.Popen` handle.
        url: Base URL (``http://host:port``) parsed from the ready line.
        shard_index: The shard slice this node serves.
        replica_rank: Which replica of that shard this process is (0-based).
        log_path: The node's combined stdout/stderr log file.
    """

    process: "subprocess.Popen[bytes]"
    url: str
    shard_index: int
    replica_rank: int
    log_path: Path

    def poll(self) -> Optional[int]:
        """The node's exit code, or None while it is still running."""
        return self.process.poll()

    def kill(self) -> None:
        """SIGKILL the node (the fault-injection primitive; no cleanup)."""
        self.process.kill()

    def terminate(self) -> None:
        """SIGTERM the node (graceful: it drains, then exits)."""
        self.process.terminate()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Wait for the node to exit; returns its exit code."""
        return self.process.wait(timeout=timeout)


def spawn_local_nodes(
    input_path: os.PathLike,
    shards: int,
    replication: int = 1,
    host: str = "127.0.0.1",
    grid_size: Optional[int] = None,
    engines: Optional[int] = None,
    max_radius: Optional[float] = None,
    dataset: Optional[Tuple[Sequence, Sequence]] = None,
    log_dir: Optional[os.PathLike] = None,
    extra_args: Sequence[str] = (),
    startup_timeout: float = 30.0,
) -> List[NodeProcess]:
    """Launch ``shards * replication`` local shard-node processes.

    Every replica of shard ``i`` runs the identical command line (same
    dataset, same ``--shard-index i --shards N``) -- the deterministic
    partitioner makes their slices, and therefore their answers,
    bit-for-bit identical.

    Args:
        input_path: The full dataset file every node loads and slices.
        shards: Shard count (>= 1).
        replication: Node processes per shard (>= 1).
        host: Interface the nodes bind (loopback by default).
        grid_size: ``--grid-size`` for the nodes (None = node default).
        engines: ``--engines`` per node (None = node default).
        max_radius: ``--max-radius`` partitioning radius (None = unbounded).
        dataset: The already-parsed ``(data_objects, feature_objects)``.
            When given and shared memory works here, the spawner publishes
            the dataset once as a ``repro_dp_*`` segment and passes
            ``--dataset-shm`` so every node attaches it (an ``shm_open`` +
            ``mmap``, constant in dataset size) instead of re-reading and
            re-parsing ``input_path``; the file stays on each command line
            as the fallback.  The segment is released once every node is up
            -- nodes attach before printing their ready line.
        log_dir: Directory for per-node log files (a fresh temporary
            directory when None).
        extra_args: Extra ``repro shard-node`` arguments appended verbatim
            (``--compact-threshold``, ``--result-cache`` overrides, ...).
        startup_timeout: Seconds to wait for each node's ready line.

    Returns:
        One :class:`NodeProcess` per node, shard-major order (all replicas
        of shard 0 first) -- the order replica ranks are registered in.

    Raises:
        ValueError: for a non-positive shard or replication count.
        RuntimeError: when any node dies or stays silent during startup;
            every already-spawned node is killed first.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if replication < 1:
        raise ValueError(f"replication must be >= 1, got {replication}")
    logs = Path(log_dir) if log_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-cluster-")
    )
    logs.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # The directory containing the ``repro`` package itself, so the child
    # ``python -m repro`` resolves this very checkout even when repro was
    # never pip-installed into the interpreter.
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_dir = os.path.dirname(package_dir)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    segment = None
    if dataset is not None and shared_memory_available():
        try:
            segment = publish_dataset_segment(dataset[0], dataset[1])
        except (OSError, ValueError):
            segment = None  # nodes fall back to loading the file
    nodes: List[NodeProcess] = []
    try:
        for shard_index in range(shards):
            for replica in range(replication):
                log_path = logs / f"node-{shard_index}-{replica}.log"
                command = [
                    sys.executable, "-m", "repro", "shard-node",
                    "--input", str(input_path),
                    "--shard-index", str(shard_index),
                    "--shards", str(shards),
                    "--host", host,
                    "--port", "0",
                ]
                if segment is not None:
                    command += ["--dataset-shm", segment.name]
                if grid_size is not None:
                    command += ["--grid-size", str(grid_size)]
                if engines is not None:
                    command += ["--engines", str(engines)]
                if max_radius is not None:
                    command += ["--max-radius", str(max_radius)]
                command += list(extra_args)
                with open(log_path, "wb") as log_file:
                    process = subprocess.Popen(
                        command,
                        env=env,
                        stdout=log_file,
                        stderr=subprocess.STDOUT,
                    )
                url = _wait_for_ready(process, log_path, startup_timeout)
                nodes.append(
                    NodeProcess(
                        process=process,
                        url=url,
                        shard_index=shard_index,
                        replica_rank=replica,
                        log_path=log_path,
                    )
                )
    except BaseException:
        terminate_nodes(nodes, grace_seconds=0.0)
        raise
    finally:
        # Every node's ready line implies it already attached (or fell back
        # to the file), so the publication can end here either way; the
        # release unlinks the /dev/shm name.
        if segment is not None:
            segment.release()
    return nodes


def _wait_for_ready(
    process: "subprocess.Popen[bytes]", log_path: Path, timeout: float
) -> str:
    """Tail the node's log until its "listening on" line; returns the URL."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = log_path.read_text(errors="replace")
        match = _READY_PATTERN.search(text)
        if match:
            return match.group(1)
        if process.poll() is not None:
            process.kill()
            raise RuntimeError(
                f"shard node exited with code {process.returncode} during "
                f"startup; log tail:\n{text[-2000:]}"
            )
        time.sleep(0.05)
    process.kill()
    raise RuntimeError(
        f"shard node did not report a listening address within {timeout}s; "
        f"log tail:\n{log_path.read_text(errors='replace')[-2000:]}"
    )


def terminate_nodes(
    nodes: Sequence[NodeProcess], grace_seconds: float = 5.0
) -> None:
    """Stop every node: SIGTERM, wait up to the grace period, then SIGKILL.

    Safe against nodes that already exited (or were already killed by a
    fault-injection step); never raises.
    """
    for node in nodes:
        if node.poll() is None:
            if grace_seconds > 0:
                node.terminate()
            else:
                node.kill()
    deadline = time.monotonic() + grace_seconds
    for node in nodes:
        remaining = max(0.0, deadline - time.monotonic())
        try:
            node.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            node.kill()
            try:
                node.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                pass


__all__ = ["NodeProcess", "spawn_local_nodes", "terminate_nodes"]
