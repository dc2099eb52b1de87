"""The system shapes the workloads drive, behind one small interface.

A *target* is the system under test in one deployment shape: an offline
``SPQEngine`` in this process, or a ``repro serve`` front door (plain or
``--cluster``) reached over keep-alive HTTP.  Every target answers
``read(client, op)`` and ``write(client, batch)`` with a :class:`Reply`;
the run loop times those calls and knows nothing else about the shape.

Untraced runs boot servers exactly as an operator would -- ``python -m
repro serve`` subprocesses.  Traced runs host the same front door in this
process (``make_server`` over a ``QueryService`` or a ``ClusterRouter``) so
``trace.py`` can wrap its layers; shard nodes stay separate processes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import procstat
from inputs import Dataset, objects_from_write
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.queries import radius_from_cell_fraction
from repro.model.query import SpatialPreferenceQuery

Answer = Tuple[List[str], List[float]]

_READY = re.compile(r"repro serve: listening on http://([\d.]+):(\d+)")


class Reply:
    """Outcome of one operation: success flag, answers, response metadata."""

    __slots__ = ("ok", "answers", "meta")

    def __init__(
        self,
        ok: bool,
        answers: Sequence[Answer] = (),
        meta: Sequence[Mapping[str, object]] = (),
    ) -> None:
        self.ok = ok
        self.answers = list(answers)
        self.meta = list(meta)


def make_query(
    spec: Mapping[str, object], radius: float
) -> SpatialPreferenceQuery:
    """The engine query a request object resolves to under ``radius``."""
    return SpatialPreferenceQuery.create(
        k=int(spec["k"]), radius=radius, keywords=spec["keywords"]
    )


def engine_config(sizes: Mapping[str, object]) -> EngineConfig:
    """Every engine the benchmark builds: pinned grid, serial backend."""
    return EngineConfig(grid_size=int(sizes["grid_size"]), backend="serial")


def default_radius(engine: SPQEngine, sizes: Mapping[str, object]) -> float:
    """The radius a server derives for requests that carry none."""
    return radius_from_cell_fraction(
        engine.extent, int(sizes["grid_size"]), float(sizes["radius_fraction"])
    )


def service_defaults(sizes: Mapping[str, object]) -> Dict[str, object]:
    """``ServiceConfig`` request defaults: what ``repro serve`` gets as flags."""
    return dict(
        default_k=int(sizes["k"]),
        default_radius_fraction=float(sizes["radius_fraction"]),
        default_algorithm="auto",
        default_grid_size=int(sizes["grid_size"]),
    )


class EngineTarget:
    """An offline :class:`SPQEngine` in the benchmark process."""

    clients = 1
    spawn_seconds = 0.0

    def __init__(self, sizes: Mapping[str, object]) -> None:
        self._sizes = sizes
        self.engine: Optional[SPQEngine] = None
        self._radius = 0.0

    def start(self, dataset: Dataset, dataset_path: Path, work_dir: Path) -> None:
        """Build the engine over ``dataset`` (indexes build on first use)."""
        data, features = dataset
        self.engine = SPQEngine(data, features, engine_config(self._sizes))
        self._radius = default_radius(self.engine, self._sizes)

    def read(self, client: int, op: object) -> Reply:
        """One ``execute`` (request object) or ``execute_many`` (list)."""
        if isinstance(op, list):
            results = self.engine.execute_many(
                [make_query(spec, self._radius) for spec in op], algorithm="auto"
            )
        else:
            results = [
                self.engine.execute(
                    make_query(op, self._radius), algorithm=op["algorithm"]
                )
            ]
        return Reply(
            True,
            [(result.object_ids(), result.scores()) for result in results],
            [result.stats for result in results],
        )

    def write(self, client: int, batch: Mapping[str, object]) -> Reply:
        """Offline writes are not part of any engine workload."""
        raise NotImplementedError("engine workloads carry no writes")

    def pids(self) -> List[int]:
        """No server processes: all work happens in the benchmark process."""
        return []

    def stats(self) -> Dict[str, object]:
        """The engine's serving statistics (index cache, planner)."""
        return self.engine.service_stats()

    def node_stats(self) -> List[Dict[str, object]]:
        """No shard nodes."""
        return []

    def stop(self) -> None:
        """Release the engine."""
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class HttpClient:
    """One keep-alive JSON connection (reconnects after a failure)."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*self._address, timeout=60.0)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def request(
        self, method: str, path: str, payload: Optional[object] = None
    ) -> Tuple[int, object]:
        """``(status, decoded JSON body)``; status 0 for a transport failure."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            if self._connection is None:
                self._connection = self._connect()
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
            if response.will_close:
                self.close()
            return response.status, json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return 0, None

    def close(self) -> None:
        """Drop the connection (the next request reconnects)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class ServeTarget:
    """A ``repro serve`` front door (plain or ``--cluster``) over HTTP."""

    def __init__(
        self,
        sizes: Mapping[str, object],
        src_dir: Path,
        in_process: bool = False,
        clients: Optional[int] = None,
        request_stats: bool = False,
    ) -> None:
        self._sizes = sizes
        self._src_dir = src_dir
        self._in_process = in_process
        self.clients = clients if clients is not None else int(sizes["clients"])
        #: Ask for ``"stats": true`` on every read: the only way counters
        #: cross the process hop to cluster nodes (traced runs only).
        self._request_stats = request_stats
        self._process: Optional[subprocess.Popen] = None
        self._log = None
        self._pids: List[int] = []
        self._connections: List[HttpClient] = []
        self._address: Tuple[str, int] = ("127.0.0.1", 0)
        self._node_urls: List[str] = []
        self._node_clients: List[HttpClient] = []
        # in-process hosting (traced runs)
        self.service = None
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self._nodes: list = []
        #: Seconds ``spawn_local_nodes`` took (in-process cluster hosting only).
        self.spawn_seconds = 0.0

    # -------------------------------------------------------------- boot

    def start(self, dataset: Dataset, dataset_path: Path, work_dir: Path) -> None:
        """Boot the front door and open the client connections."""
        if self._in_process:
            self._boot_in_process(dataset, dataset_path, work_dir)
        else:
            self._boot_subprocess(dataset_path, work_dir)
        self._connections = [
            HttpClient(*self._address) for _ in range(self.clients)
        ]

    def _boot_subprocess(self, dataset_path: Path, work_dir: Path) -> None:
        sizes = self._sizes
        command = [
            sys.executable, "-m", "repro", "serve",
            "--input", str(dataset_path),
            "--port", "0",
            "--grid-size", str(sizes["grid_size"]),
            "--k", str(sizes["k"]),
            "--radius-fraction", str(sizes["radius_fraction"]),
            "--algorithm", "auto",
            "--backend", "serial",
            "--result-cache", str(sizes["result_cache"]),
            "--compact-threshold", str(sizes["compact_threshold"]),
        ]
        if sizes["cluster"]:
            command += [
                "--cluster", str(sizes["cluster"]),
                "--replication", "1",
                "--node-log-dir", str(work_dir / "node-logs"),
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._src_dir)
        # Same pinned string-hash seed as the benchmark process (run.py).
        env["PYTHONHASHSEED"] = "0"
        # Everything the server writes (node logs, temp files) stays in the
        # benchmark's own work directory.
        env["TMPDIR"] = str(work_dir)
        log_path = work_dir / "serve.log"
        self._log = open(log_path, "wb")
        self._process = subprocess.Popen(
            command, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        deadline = time.monotonic() + 60.0
        while True:
            text = log_path.read_text(errors="replace")
            match = _READY.search(text)
            if match:
                self._address = (match.group(1), int(match.group(2)))
                break
            if self._process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not come up:\n{text[-2000:]}")
            time.sleep(0.01)
        self._pids = [self._process.pid] + procstat.children_of(self._process.pid)

    def _boot_in_process(
        self, dataset: Dataset, dataset_path: Path, work_dir: Path
    ) -> None:
        from repro.server import QueryService, ServiceConfig, make_server

        sizes = self._sizes
        data, features = dataset
        defaults = service_defaults(sizes)
        if sizes["cluster"]:
            from repro.cluster import (
                ClusterConfig,
                ClusterRouter,
                NodeSpec,
                spawn_local_nodes,
            )

            started = time.perf_counter()
            self._nodes = spawn_local_nodes(
                dataset_path,
                int(sizes["cluster"]),
                replication=1,
                grid_size=int(sizes["grid_size"]),
                engines=2,
                dataset=(data, features),
                log_dir=work_dir / "node-logs",
                extra_args=[
                    "--backend", "serial",
                    "--compact-threshold", str(sizes["compact_threshold"]),
                ],
            )
            self.spawn_seconds = time.perf_counter() - started
            self._pids = [node.process.pid for node in self._nodes]
            self._node_urls = [node.url for node in self._nodes]
            self.service = ClusterRouter(
                data,
                features,
                [
                    NodeSpec(url=node.url, shard_index=node.shard_index)
                    for node in self._nodes
                ],
                cluster=ClusterConfig(
                    shards=int(sizes["cluster"]),
                    result_cache_capacity=int(sizes["result_cache"]),
                ),
                engine_config=engine_config(sizes),
                service_config=ServiceConfig(**defaults),
            )
        else:
            self.service = QueryService(
                data,
                features,
                engine_config=engine_config(sizes),
                config=ServiceConfig(
                    engines=2,
                    result_cache_capacity=int(sizes["result_cache"]),
                    compact_threshold=int(sizes["compact_threshold"]),
                    **defaults,
                ),
            )
        self._server = make_server(self.service, "127.0.0.1", 0)
        self.service.start()
        self._address = ("127.0.0.1", self._server.port)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-front-door",
            daemon=True,
        )
        self._server_thread.start()

    # ----------------------------------------------------------- operations

    def read(self, client: int, op: Mapping[str, object]) -> Reply:
        """``POST /query`` on this client's connection."""
        if self._request_stats:
            op = dict(op, stats=True)
        status, payload = self._connections[client].request("POST", "/query", op)
        if status != 200:
            return Reply(False)
        entries = payload["results"]
        answer = (
            [entry["oid"] for entry in entries],
            [entry["score"] for entry in entries],
        )
        return Reply(True, [answer], [payload])

    def write(self, client: int, batch: Mapping[str, object]) -> Reply:
        """``POST /objects`` on this client's connection."""
        status, payload = self._connections[client].request(
            "POST", "/objects", batch
        )
        return Reply(status == 200, meta=[payload] if status == 200 else [])

    def pids(self) -> List[int]:
        """Server-side processes: the front door and its shard nodes."""
        return list(self._pids)

    def stats(self) -> Dict[str, object]:
        """The front door's ``/stats`` tree."""
        if self.service is not None:
            return self.service.stats()
        status, payload = self._connections[0].request("GET", "/stats")
        if status != 200:
            raise RuntimeError("GET /stats failed")
        return payload

    def node_stats(self) -> List[Dict[str, object]]:
        """Each shard node's own ``/stats`` tree (cluster shapes only)."""
        if not self._sizes["cluster"]:
            return []
        if not self._node_clients:
            if not self._node_urls:
                nodes = self.stats()["cluster"]["nodes"]
                self._node_urls = [node["url"] for node in nodes]
            for url in self._node_urls:
                host, port = url.rsplit("/", 1)[-1].split(":")
                self._node_clients.append(HttpClient(host, int(port)))
        trees = []
        for url, client in zip(self._node_urls, self._node_clients):
            status, payload = client.request("GET", "/stats")
            if status != 200:
                raise RuntimeError(f"GET {url}/stats failed")
            trees.append(payload)
        return trees

    def overlays(self) -> List[Tuple[int, int]]:
        """Per delta owner: ``(live overlay operations, compactions so far)``.

        The owners are the processes that hold a delta overlay: the service
        itself, or each shard node of a cluster.
        """
        trees = self.node_stats() if self._sizes["cluster"] else [self.stats()]
        return [
            (
                sum(
                    int(value)
                    for key, value in tree["ingest"]["delta"].items()
                    if key != "version"
                ),
                int(tree["ingest"]["compactions"]),
            )
            for tree in trees
        ]

    def quiesce(self, timeout: float = 20.0) -> List[Tuple[int, int]]:
        """Wait until no overlay is at or past its compaction threshold.

        Compaction runs on a background thread of the overlay's owner and
        resets the overlay when it is done, so "below the threshold" means
        the compaction a write batch triggered has finished.  The run loop
        calls this right after a burst's compaction batch, outside any timed
        region.  Returns :meth:`overlays` as they stood when the wait ended.
        """
        threshold = int(self._sizes["compact_threshold"])
        deadline = time.monotonic() + timeout
        while True:
            overlays = self.overlays()
            if max(pending for pending, _ in overlays) < threshold:
                return overlays
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"delta overlays stayed at {overlays} (operations, "
                    f"compactions), at or past --compact-threshold "
                    f"{threshold}: auto-compaction is not running"
                )
            time.sleep(0.005)

    # ------------------------------------------------------------- teardown

    def stop(self) -> None:
        """Stop everything this target started and wait for it to end."""
        for connection in self._connections + self._node_clients:
            connection.close()
        self._connections = []
        self._node_clients = []
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server_thread.join()
            self._server = None
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self._nodes:
            from repro.cluster import terminate_nodes

            terminate_nodes(self._nodes)
            self._nodes = []
            _stop_resource_tracker()
        if self._process is not None:
            process, self._process = self._process, None
            if process.poll() is None:
                process.terminate()
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            # A front door that died hard leaves its nodes behind.
            for pid in self._pids[1:]:
                _kill_and_wait(pid)
        if self._log is not None:
            self._log.close()
            self._log = None
        self._pids = []
        self._node_urls = []


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker child process.

    Publishing the dataset as a shared-memory segment (the in-process
    ``spawn_local_nodes``) starts it; left alone it exits only *after* this
    process does.  The benchmark must have reaped everything it started by
    the time it exits; the tracker restarts on demand if needed again.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if callable(stop):
        stop()


def _kill_and_wait(pid: int, timeout: float = 10.0) -> None:
    """SIGKILL a stray grandchild and wait until it is gone."""
    try:
        os.kill(pid, 9)
    except OSError:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fields = procstat.stat_fields(pid)
        if fields is None or fields[0] == b"Z":
            return
        time.sleep(0.02)


class Mirror:
    """The oracle: a private engine fed the same writes, out of the timed path.

    It answers through the index-backed ``execute_many`` path with a fixed
    algorithm, so it shares neither the raw record-streaming path
    ``engine_fixed`` measures nor the planner's choice the other workloads
    exercise.  Its delta is never compacted: N incremental write batches
    equal one bulk swap bit-for-bit (the repo's ingest invariant), and
    skipping the fold keeps the oracle's index warm.
    """

    ALGORITHM = "espq-len"

    def __init__(self, dataset: Dataset, sizes: Mapping[str, object]) -> None:
        data, features = dataset
        self._engine = SPQEngine(data, features, engine_config(sizes))
        self._radius = default_radius(self._engine, sizes)

    def apply(self, batch: Mapping[str, object]) -> None:
        """Absorb one write body, as the system under test did."""
        data, features, delete_data, delete_features = objects_from_write(batch)
        self._engine.apply_updates(
            append_data=data,
            append_features=features,
            delete_data_oids=delete_data,
            delete_feature_oids=delete_features,
        )

    def expected(self, spec: Mapping[str, object]) -> Answer:
        """The oracle's answer to one request object."""
        result = self._engine.execute_many(
            [make_query(spec, self._radius)], algorithm=self.ALGORITHM
        )[0]
        return result.object_ids(), result.scores()

    def close(self) -> None:
        """Release the oracle engine."""
        self._engine.close()


def answers_match(got: Answer, want: Answer) -> bool:
    """The repo's identity contract for one answer.

    Scores must be bit-for-bit equal.  Object ids must be equal wherever
    ties leave the top-k unique: entries scoring strictly above the rank-k
    boundary score.  Boundary-scored entries may be any members of the
    tied group (ROADMAP tie contract).
    """
    got_oids, got_scores = got
    want_oids, want_scores = want
    if list(got_scores) != list(want_scores):
        return False
    if not want_scores:
        return True
    boundary = want_scores[-1]
    above = sum(1 for score in want_scores if score > boundary)
    return sorted(zip(got_scores[:above], got_oids[:above])) == sorted(
        zip(want_scores[:above], want_oids[:above])
    )
