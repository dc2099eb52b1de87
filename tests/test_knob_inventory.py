"""Tripwire: the set of user-settable knobs is pinned.

Every environment variable, config-dataclass field and CLI option doubles
the configurations tests and benchmarks must cover, so adding one is a
decision, not a side effect.  A PR that adds (or removes) a knob edits the
inventory below in the same diff -- which is what makes "no new knobs"
reviewable in CI instead of by hand.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import repro
from repro.cli import build_parser
from repro.cluster import ClusterConfig, NodeConfig
from repro.core.engine import EngineConfig
from repro.server import ServiceConfig
from repro.sharding import ShardingConfig

ENVIRONMENT = {"REPRO_BACKEND", "REPRO_DATAPLANE", "REPRO_PLANNER", "REPRO_WORKERS"}

CONFIG_FIELDS = {
    EngineConfig: {
        "grid_size", "cluster", "cost_parameters", "backend", "workers",
        "pad_with_zero_scores", "index_cache_capacity", "planner_mode",
        "planner_memory", "planner_smoothing",
    },
    ServiceConfig: {
        "engines", "max_batch", "batch_window_seconds", "result_cache_capacity",
        "calibration_path", "calibration_seed_path",
        "checkpoint_interval_seconds", "request_timeout_seconds",
        "compact_threshold", "admission_queue_depth", "default_deadline_ms",
        "default_k", "default_radius", "default_radius_fraction",
        "default_algorithm", "default_grid_size",
    },
    ShardingConfig: {
        "shards", "max_radius", "scatter_threads", "layout", "layout_resolution",
        "rebalance_threshold", "rebalance_interval_seconds",
        "rebalance_min_requests",
    },
    ClusterConfig: {
        "shards", "max_radius", "heartbeat_interval", "liveness_timeout",
        "max_misses", "node_deadline", "retries", "scatter_threads",
        "result_cache_capacity", "initial_epoch",
    },
    NodeConfig: {"shard_index", "shards", "max_radius", "dataset_epoch", "node_id"},
}

_BACKEND = {"--backend", "--workers"}
_QUERY_DEFAULTS = {"--k", "--radius", "--radius-fraction", "--grid-size", "--algorithm"}
_NODE_SERVING = {
    "--host", "--port", "--engines", "--max-batch", "--compact-threshold",
    "--result-cache", "--grid-size", "--max-radius", "--calibration-path",
    "--calibration-seed", "--checkpoint-interval", "--access-log",
}

CLI_OPTIONS = {
    "generate": {"--dataset", "--objects", "--vocabulary-size", "--seed", "--output"},
    "query": {"--input", "--keywords", "--explain", "--stats"}
    | _QUERY_DEFAULTS | _BACKEND,
    "batch": {"--input", "--queries", "--output", "--stats"}
    | _QUERY_DEFAULTS | _BACKEND,
    "serve": {
        "--input", "--shards", "--layout", "--rebalance-threshold", "--cluster",
        "--replication", "--heartbeat-interval", "--liveness-timeout",
        "--node-deadline", "--node-log-dir", "--batch-window-ms",
        "--admission-depth", "--default-deadline-ms",
    } | _NODE_SERVING | _QUERY_DEFAULTS | _BACKEND,
    "shard-node": {
        "--input", "--shard-index", "--shards", "--dataset-shm", "--dataset-epoch",
    } | _NODE_SERVING | _BACKEND,
    "loadgen": {
        "--input", "--url", "--shards", "--admission-depth",
        "--default-deadline-ms", "--seed", "--duration", "--rate", "--arrival",
        "--diurnal-amplitude", "--zipf-exponent", "--keywords-per-query", "--k",
        "--radius", "--deadline-ms", "--hotspot-fraction", "--burst-every",
        "--burst-size", "--slow-client-fraction", "--clients", "--ledger",
    },
    "analyze": {"--cell-side", "--radius", "--radius-fraction", "--features"},
    "experiments": {"--figure", "--objects"},
}


def test_environment_variables_read_by_the_library():
    source_root = pathlib.Path(repro.__file__).parent
    found = set()
    for path in source_root.rglob("*.py"):
        found.update(re.findall(r"\bREPRO_[A-Z_]+\b", path.read_text("utf-8")))
    assert found == ENVIRONMENT


def test_config_dataclass_fields():
    for config, expected in CONFIG_FIELDS.items():
        fields = {field.name for field in dataclasses.fields(config)}
        assert fields == expected, config.__name__


def test_cli_option_strings():
    subcommands = next(
        action.choices for action in build_parser()._subparsers._group_actions
    )
    options = {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, sub in subcommands.items()
    }
    assert options == CLI_OPTIONS
