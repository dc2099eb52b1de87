"""The standing invariants of ``tests/invariants.py`` on every deployment mode.

A 2-engine ``QueryService`` and a 2-shard ``ShardRouter`` run in process,
so their retired indexes can be watched by weak reference; a real ``repro
serve --cluster 2`` runs as a subprocess, so its process tree, descriptors
and degraded answers are checked from outside, through ``/proc`` and HTTP.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

import repro
from invariants import (
    RetiredIndexWatch,
    assert_counters_reconcile,
    assert_degraded_not_cached,
    child_pids,
    dataset_memfds,
    shm_strays,
    standing_invariants,
)
from repro.core.engine import EngineConfig
from repro.datagen.io import save_dataset
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.model.objects import DataObject, FeatureObject
from repro.server import QueryService, ServiceConfig
from repro.sharding import ShardingConfig, ShardRouter

GRID = 8
ALGORITHMS = ("pspq", "espq-len", "espq-sco", "auto")


def spec(number: int, algorithm: str = "espq-sco") -> dict:
    """A distinct request per ``number`` (never a result-cache hit by accident)."""
    return {"keywords": ["w0001", f"w{number % 40:04d}"], "k": 3 + number,
            "radius": 6.0, "algorithm": algorithm}


def build(mode: str, dataset):
    data, features = dataset
    config = ServiceConfig(
        engines=2, default_grid_size=GRID, result_cache_capacity=16,
        admission_queue_depth=8,
    )
    if mode == "service":
        return QueryService(data, features, engine_config=EngineConfig(grid_size=GRID),
                            config=config)
    return ShardRouter(data, features, engine_config=EngineConfig(grid_size=GRID),
                       service_config=config, sharding=ShardingConfig(shards=2))


def failing_executor(parsed_list):
    raise RuntimeError("executor down")


def engines_of(front):
    if isinstance(front, ShardRouter):
        return [engine for service in front.services for engine in service.engines]
    return front.engines


@pytest.mark.parametrize("mode", ["service", "shards"])
def test_in_process_front_door(mode, small_uniform_dataset, monkeypatch):
    data, features = small_uniform_dataset
    with standing_invariants():
        front = build(mode, small_uniform_dataset)
        front.start()
        try:
            for number, algorithm in enumerate(ALGORITHMS):
                front.submit(spec(number, algorithm))
            assert front.submit(spec(0, "pspq")).get("cached") is True
            front.submit_many([spec(number) for number in range(4, 8)])
            with monkeypatch.context() as patch:
                # A failed batch: one cache hit, two requests it fails.
                patch.setattr(front, "_execute_many", failing_executor)
                with pytest.raises(RuntimeError, match="executor down"):
                    front.submit_many([spec(4), spec(10), spec(11)])
            with RetiredIndexWatch(lambda: engines_of(front)):
                front.apply_objects(
                    append_data=[DataObject("new-d", 50.0, 50.0)],
                    append_features=[FeatureObject("new-f", 51.0, 50.0, ("w0001",))],
                    delete_data_oids=[data[0].oid],
                )
                front.compact()
                front.submit(spec(8))
            with RetiredIndexWatch(lambda: engines_of(front)):
                front.swap_datasets(data[: len(data) // 2], features)
                front.submit(spec(9))
            assert_counters_reconcile(front.stats())
        finally:
            front.shutdown()


# --------------------------------------------------------------------- #
# a real ``repro serve --cluster 2`` subprocess

_BANNER = re.compile(r"repro serve: listening on (http://\S+)")
_NODE_LINE = re.compile(r"node shard \d+ replica \d+: (\S+)\s+\(pid (\d+), log (\S+)\)")


def http(url: str, payload=None) -> dict:
    body = None if payload is None else json.dumps(payload).encode()
    with urllib.request.urlopen(urllib.request.Request(url, data=body), timeout=20) as reply:
        return json.loads(reply.read())


def wait_for(log_path, pattern, process, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = log_path.read_text(errors="replace")
        if pattern.search(text):
            return text
        assert process.poll() is None, text
        time.sleep(0.05)
    raise AssertionError(f"no {pattern.pattern!r} in:\n{log_path.read_text()}")


def test_serve_cluster_subprocess(tmp_path):
    data, features = generate_uniform(SyntheticDatasetConfig(num_objects=400, seed=17))
    dataset_path = tmp_path / "dataset.tsv"
    save_dataset(dataset_path, data, features)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    log_path = tmp_path / "serve.log"
    with standing_invariants():
        with open(log_path, "wb") as log:
            front = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--input", str(dataset_path),
                 "--port", "0", "--cluster", "2", "--grid-size", "10",
                 "--engines", "1", "--result-cache", "32",
                 "--node-log-dir", str(tmp_path / "nodes")],
                stdout=log, stderr=subprocess.STDOUT,
                env=dict(os.environ, PYTHONPATH=src),
            )
        node_pids = []
        try:
            text = wait_for(log_path, _BANNER, front)
            url = _BANNER.search(text).group(1)
            nodes = _NODE_LINE.findall(text)
            node_pids = sorted(int(pid) for _, pid, _ in nodes)
            assert len(node_pids) == 2

            # While the fleet runs, the front door's children are exactly
            # its nodes, and nobody holds the dataset memory file any more.
            assert child_pids(front.pid) == node_pids
            for pid in [front.pid, *node_pids]:
                assert dataset_memfds(pid) == []
            for _, _, node_log in nodes:
                with open(node_log) as handle:
                    assert "dataset from inherited fd" in handle.read()
            assert shm_strays() == []

            for number in range(3):
                http(f"{url}/query", spec(number))
            assert_counters_reconcile(http(f"{url}/stats"))

            os.kill(node_pids[1], signal.SIGKILL)
            assert_degraded_not_cached(
                lambda body: http(f"{url}/query", body),
                lambda: http(f"{url}/stats"),
                spec(20),
            )
            assert_counters_reconcile(http(f"{url}/stats"))
        finally:
            front.send_signal(signal.SIGTERM)
            try:
                front.wait(timeout=30)
            except subprocess.TimeoutExpired:
                front.kill()
                front.wait()
        for pid in node_pids:  # reaped by the front door, not orphaned
            assert not os.path.exists(f"/proc/{pid}")
