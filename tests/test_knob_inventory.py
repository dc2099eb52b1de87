"""Tripwire: the set of user-settable knobs is pinned.

Every environment variable, config-dataclass field and CLI option doubles
the configurations tests and benchmarks must cover, so adding one is a
decision, not a side effect.  A PR that adds (or removes) a knob edits the
inventory below in the same diff -- which is what makes "no new knobs"
reviewable in CI instead of by hand.

A config field must also be *reachable*: named by a CLI option, or listed in
``API_ONLY`` with the file outside ``src/`` that sets it and why.  A field
that nothing sets has one value, and a one-valued knob is a constant that
still doubles the configurations to cover.
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

ENVIRONMENT = set()

CONFIG_FIELDS = {
    EngineConfig: {"grid_size", "backend", "pad_with_zero_scores"},
    ServiceConfig: {
        "engines", "max_batch", "batch_window_seconds", "result_cache_capacity",
        "compact_threshold", "admission_queue_depth", "default_deadline_ms", "default_k",
        "default_radius", "default_radius_fraction", "default_algorithm",
        "default_grid_size",
    },
    ShardingConfig: {
        "shards", "max_radius", "layout", "layout_resolution",
        "rebalance_threshold", "rebalance_interval_seconds",
        "rebalance_min_requests",
    },
    ClusterConfig: {
        "shards", "max_radius", "heartbeat_interval", "liveness_timeout",
        "max_misses", "node_deadline", "result_cache_capacity",
    },
    NodeConfig: {"shard_index", "shards", "max_radius", "dataset_epoch"},
}

#: Config field -> the CLI option that sets it, where the two are not the
#: same word (``max_radius`` is ``--max-radius`` and needs no entry).
CLI_SPELLING = {
    (ServiceConfig, "batch_window_seconds"): "--batch-window-ms",
    (ServiceConfig, "result_cache_capacity"): "--result-cache",
    (ServiceConfig, "admission_queue_depth"): "--admission-depth",
    (ServiceConfig, "default_k"): "--k",
    (ServiceConfig, "default_radius"): "--radius",
    (ServiceConfig, "default_radius_fraction"): "--radius-fraction",
    (ServiceConfig, "default_algorithm"): "--algorithm",
    (ServiceConfig, "default_grid_size"): "--grid-size",
    (ClusterConfig, "shards"): "--cluster",
    (ClusterConfig, "result_cache_capacity"): "--result-cache",
}

#: Fields no CLI option reaches -> ``"<file that sets it>: <why it stays>"``.
#: The file lives outside ``src/`` and passes ``<field>=``.  The four that
#: name a test are test seams: no benchmark or example needs another value,
#: a test cannot do without one.
API_ONLY = {
    (EngineConfig, "pad_with_zero_scores"):
        "tests/test_core_engine.py: the centralized oracle returns exactly k "
        "entries, so comparing entry counts with it needs padded results",
    (ShardingConfig, "layout_resolution"):
        "benchmarks/bench_rebalance.py: pins the skew layout grid to the "
        "benchmark's query grid so shard extents stay grid-aligned",
    (ShardingConfig, "rebalance_interval_seconds"):
        "tests/test_sharding.py: the controller test samples every 50 ms "
        "instead of waiting out the 2 s production period",
    (ShardingConfig, "rebalance_min_requests"):
        "tests/test_sharding.py: the same test trips the controller after 10 "
        "requests instead of 50",
    (ClusterConfig, "max_misses"):
        "tests/test_cluster.py: failover tests declare a node dead after 1-3 "
        "misses they inject themselves",
}

#: ``--backend`` (and ``EngineConfig.backend``) accept one value, ``serial``:
#: every task runs serially since the process backend left, but
#: ``benchmarks/e2e/targets.py`` and existing command lines spell out
#: ``--backend serial``, so the spelling stays and anything else exits 2.
_BACKEND = {"--backend"}
_QUERY_DEFAULTS = {"--k", "--radius", "--radius-fraction", "--grid-size", "--algorithm"}
_NODE_SERVING = {
    "--host", "--port", "--engines", "--max-batch", "--compact-threshold",
    "--result-cache", "--grid-size", "--max-radius", "--access-log",
}

CLI_OPTIONS = {
    "generate": {"--dataset", "--objects", "--vocabulary-size", "--seed", "--output"},
    "query": {"--input", "--keywords", "--stats"}
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


def _subcommands():
    return next(
        action.choices for action in build_parser()._subparsers._group_actions
    )


def test_cli_option_strings():
    options = {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, sub in _subcommands().items()
    }
    assert options == CLI_OPTIONS


def test_backend_choices():
    for name in ("query", "batch", "serve", "shard-node"):
        backend = next(
            action for action in _subcommands()[name]._actions
            if "--backend" in action.option_strings
        )
        assert tuple(backend.choices) == ("serial",), name


def test_every_config_field_is_reachable():
    """Fails on a field that no CLI option and no named caller sets."""
    repo = pathlib.Path(repro.__file__).resolve().parents[2]
    every_option = set().union(*CLI_OPTIONS.values())
    for config, fields in CONFIG_FIELDS.items():
        for field in sorted(fields):
            key = (config, field)
            reason = API_ONLY.get(key)
            if reason is None:
                option = CLI_SPELLING.get(key, "--" + field.replace("_", "-"))
                assert option in every_option, (
                    f"{config.__name__}.{field}: no CLI option {option} and no "
                    "API_ONLY entry -- wire it, name its caller, or make it a "
                    "constant"
                )
                continue
            assert key not in CLI_SPELLING, f"{config.__name__}.{field} is listed twice"
            caller, _, why = reason.partition(": ")
            assert why and not caller.startswith("src/"), reason
            assert f"{field}=" in (repo / caller).read_text("utf-8"), (
                f"{config.__name__}.{field}: {caller} does not set it"
            )
    stale = set(API_ONLY) | set(CLI_SPELLING)
    assert all(field in CONFIG_FIELDS[config] for config, field in stale)
