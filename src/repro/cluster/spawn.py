"""Spawn and supervise local shard-node subprocesses.

``repro serve --cluster N`` (and the cluster benchmark/tests) build their
fleet here: ``N * replication`` OS processes, each running ``repro
shard-node --shard-index i`` against the same dataset, each binding
**port 0** and reporting the OS-assigned port on its stdout "listening on"
line -- the spawner tails each node's log file until that line appears, so
no port is ever guessed and two fleets on one CI runner cannot collide.
Every node is launched before the spawner waits for any ready line, so the
nodes start up side by side.

When the caller already holds the parsed dataset, the spawner writes it
once into an anonymous memory file (``os.memfd_create``) as one
:mod:`marshal` of plain rows -- ``(oid, x, y)`` per data object, ``(oid, x,
y, keywords)`` per feature -- and every node inherits a descriptor to it
(``--dataset-fd``): the node maps the file, loads the rows, builds the
objects through their own constructors and closes the descriptor, instead
of re-reading and re-parsing the dataset file.  ``marshal`` runs no code
on load and keeps an interned keyword interned, so a node's features share
one ``str`` per word, as a parsed file's do.  The file has no name.  The
spawner closes its own descriptor right after the last launch, and the
kernel frees the memory once every node has closed its copy -- nothing to
unlink, nothing for a tracker process to watch.  ``--input`` stays on each
command line as the fallback: where ``os.memfd_create`` does not exist,
and for a node that cannot read its descriptor.  This module owns both
ends of that hand-off (:func:`publish_dataset`, :func:`attach_dataset`).

Node stdout/stderr go to per-node log files rather than pipes: a pipe
nobody drains would eventually block the child, and a crashed node's log
tail is the first thing an operator (or the spawn error message) wants.
"""

from __future__ import annotations

import marshal
import mmap
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import chain, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.model.objects import DataObject, FeatureObject

#: The shard-node CLI's ready line; the URL carries the OS-assigned port.
_READY_PATTERN = re.compile(r"listening on (http://\S+)")

#: Label of the dataset memory file: a holder's ``/proc/<pid>/fd`` entry
#: reads ``/memfd:repro-dataset (deleted)``.  Nothing can open it by name.
DATASET_MEMFD = "repro-dataset"


def publish_dataset(data_objects, feature_objects) -> int:
    """Write the datasets' rows into a fresh memory file.

    Returns the descriptor, which the caller closes.  It is close-on-exec:
    only a launch that lists it in ``pass_fds`` hands it on.

    Raises:
        OSError: when the memory file cannot be created or written
            (callers fall back to file loading on every node).
    """
    payload = memoryview(marshal.dumps((
        [(obj.oid, obj.x, obj.y) for obj in data_objects],
        [(f.oid, f.x, f.y, f.keywords) for f in feature_objects],
    )))
    fd = os.memfd_create(DATASET_MEMFD)
    try:
        while payload:
            payload = payload[os.write(fd, payload):]
    except BaseException:
        os.close(fd)
        raise
    return fd


#: What a row's fields may hold: the constructors check a row's shape and
#: keep its values as given (a strictly sorted tuple of keywords too).
_FIELD_TYPES = (("oid", {str}), ("x", {float, int}), ("y", {float, int}))


def _require_field_types(data, features) -> None:
    """Raise ``TypeError`` unless every oid and keyword is a ``str`` and
    every coordinate a number: one pass per field, each in C."""
    for name, allowed in _FIELD_TYPES:
        get = attrgetter(name)
        if not set(map(type, chain(map(get, data), map(get, features)))) <= allowed:
            raise TypeError(f"a row's {name} has the wrong type")
    # A feature's keywords are a strictly ``<``-sorted tuple, and ``<``
    # between a ``str`` and anything else ``marshal`` loads raises: a tuple
    # whose first word is a ``str`` holds nothing else.
    first_words = map(itemgetter(0), filter(None, map(attrgetter("keywords"), features)))
    if not set(map(type, first_words)) <= {str}:
        raise TypeError("a feature's keyword has the wrong type")


def attach_dataset(fd: int):
    """Materialize ``(data_objects, feature_objects)`` from a dataset fd.

    Maps the file read-only, loads the rows and builds model objects from
    them (equal to the objects the publisher wrote), then unmaps it.
    ``fd`` is closed whatever happens.

    Raises:
        OSError: when ``fd`` is not an open, mappable file.
        ValueError: when the file is empty, truncated or holds no dataset,
            or a row whose oid or keyword is not a ``str`` or whose
            coordinate is not a number.
    """
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    with mapping:
        try:
            data_rows, feature_rows = marshal.loads(mapping)
            data = list(starmap(DataObject, data_rows))
            features = list(starmap(FeatureObject, feature_rows))
            _require_field_types(data, features)
            return data, features
        except (EOFError, TypeError, ValueError) as exc:
            raise ValueError(f"fd {fd} does not hold a dataset: {exc}") from None


@dataclass
class NodeProcess:
    """One spawned shard-node subprocess and where it listens.

    Attributes:
        process: The live :class:`subprocess.Popen` handle.
        url: Base URL (``http://host:port``) parsed from the ready line
            (empty until the spawner has read it).
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
        dataset: The already-parsed ``(data_objects, feature_objects)``.
            When given and ``os.memfd_create`` exists, the spawner writes
            the dataset once into a memory file and passes its inherited
            descriptor as ``--dataset-fd`` so every node maps and loads it
            instead of re-reading and re-parsing ``input_path``; the file
            stays on each command line as the fallback.  The spawner's
            descriptor is closed right after the last launch.
        log_dir: Directory for per-node log files (a fresh temporary
            directory when None).
        extra_args: Extra ``repro shard-node`` arguments appended verbatim
            (``--compact-threshold``, ``--result-cache`` overrides, ...).
        startup_timeout: Seconds, from the last launch, within which every
            node must print its ready line.

    Returns:
        One :class:`NodeProcess` per node, shard-major order (all replicas
        of shard 0 first) -- the order replica ranks are registered in.

    Raises:
        ValueError: for a non-positive shard or replication count.
        RuntimeError: when any node dies or stays silent during startup;
            every launched node is killed and reaped first.
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
    fd = None
    if dataset is not None and hasattr(os, "memfd_create"):
        try:
            fd = publish_dataset(dataset[0], dataset[1])
        except OSError:
            pass  # nodes fall back to loading the file
    nodes: List[NodeProcess] = []
    try:
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
                    if fd is not None:
                        command += ["--dataset-fd", str(fd)]
                    if grid_size is not None:
                        command += ["--grid-size", str(grid_size)]
                    if engines is not None:
                        command += ["--engines", str(engines)]
                    command += list(extra_args)
                    with open(log_path, "wb") as log_file:
                        process = subprocess.Popen(
                            command,
                            env=env,
                            stdout=log_file,
                            stderr=subprocess.STDOUT,
                            pass_fds=() if fd is None else (fd,),
                        )
                    nodes.append(
                        NodeProcess(process, "", shard_index, replica, log_path)
                    )
        finally:
            # Every node holds its own copy now; the kernel frees the file
            # once the last of them has mapped and closed it.
            if fd is not None:
                os.close(fd)
        _wait_for_ready(nodes, startup_timeout)
    except BaseException:
        terminate_nodes(nodes, grace_seconds=0.0)
        raise
    return nodes


def _wait_for_ready(nodes: Sequence[NodeProcess], timeout: float) -> None:
    """Tail every node's log until each prints its "listening on" line.

    Sets each node's ``url``; raises ``RuntimeError`` with the log tail of
    the first node found dead or, at the deadline, of one still silent.
    """
    deadline = time.monotonic() + timeout
    pending = list(nodes)
    while pending:
        for node in list(pending):
            text = node.log_path.read_text(errors="replace")
            match = _READY_PATTERN.search(text)
            if match:
                node.url = match.group(1)
                pending.remove(node)
            elif node.poll() is not None:
                raise RuntimeError(
                    f"shard node {node.shard_index} replica {node.replica_rank} "
                    f"exited with code {node.process.returncode} during "
                    f"startup; log tail:\n{text[-2000:]}"
                )
        if pending and time.monotonic() > deadline:
            raise RuntimeError(
                f"shard node {pending[0].shard_index} replica "
                f"{pending[0].replica_rank} did not report a listening address "
                f"within {timeout}s; log tail:\n"
                f"{pending[0].log_path.read_text(errors='replace')[-2000:]}"
            )
        if pending:
            time.sleep(0.05)


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


__all__ = [
    "NodeProcess",
    "attach_dataset",
    "publish_dataset",
    "spawn_local_nodes",
    "terminate_nodes",
]
