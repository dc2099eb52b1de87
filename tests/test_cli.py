"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from raw_oracle import raw_execute
from repro.cli import build_parser, main
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import JobConfigurationError
from repro.datagen.io import load_dataset
from repro.model.query import SpatialPreferenceQuery
from repro.server import ServiceConfig


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_generate_defaults(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "uniform", "--output", "x.tsv"]
        )
        assert args.objects == 10_000
        assert args.dataset == "uniform"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--dataset", "bogus", "--output", "x"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--input", "x", "--keywords", "a", "--algorithm", "bogus"]
            )


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["uniform", "clustered", "flickr", "twitter"])
    def test_generates_dataset_file(self, tmp_path, dataset, capsys):
        output = tmp_path / f"{dataset}.tsv"
        code = main([
            "generate", "--dataset", dataset, "--objects", "200",
            "--vocabulary-size", "300", "--output", str(output),
        ])
        assert code == 0
        data, features = load_dataset(output)
        assert len(data) == 100
        assert len(features) == 100
        assert "Wrote 200 records" in capsys.readouterr().out


class TestQueryCommand:
    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "400",
              "--output", str(output)])
        return output

    def test_query_prints_topk_and_stats(self, dataset_file, capsys):
        code = main([
            "query", "--input", str(dataset_file), "--keywords", "w0001,w0002,w0003",
            "--k", "5", "--grid-size", "8", "--algorithm", "espq-sco",
            "--radius-fraction", "0.25", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Query: top-5" in out
        assert "simulated job time" in out

    def test_query_with_absolute_radius(self, dataset_file, capsys):
        code = main([
            "query", "--input", str(dataset_file), "--keywords", "w0001",
            "--radius", "5.0", "--grid-size", "6", "--algorithm", "pspq",
        ])
        assert code == 0
        assert "Query: top-10" in capsys.readouterr().out

    def test_query_rejects_empty_keywords(self, dataset_file, capsys):
        code = main([
            "query", "--input", str(dataset_file), "--keywords", ",", "--grid-size", "4",
        ])
        assert code == 2
        assert "at least one keyword" in capsys.readouterr().err

    def test_query_rejects_dataset_without_data_objects(self, tmp_path, capsys):
        path = tmp_path / "features_only.tsv"
        path.write_text("f1\t1.0\t2.0\titalian\n")
        code = main(["query", "--input", str(path), "--keywords", "italian"])
        assert code == 2
        assert "no data objects" in capsys.readouterr().err


class TestBatchCommand:
    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "400",
              "--output", str(output)])
        return output

    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text(
            '{"keywords": ["w0001", "w0002"], "k": 3, "radius": 5.0}\n'
            "# a comment line\n"
            "\n"
            '{"keywords": "w0003,w0004", "radius": 5.0, "algorithm": "pspq"}\n'
            '{"keywords": ["w0005"], "k": 2, "radius": 5.0, "grid_size": 4}\n'
        )
        return path

    def test_batch_writes_jsonl_results(self, dataset_file, query_file, tmp_path, capsys):
        output = tmp_path / "results.jsonl"
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--output", str(output),
        ])
        assert code == 0
        lines = [
            json.loads(line) for line in output.read_text().splitlines() if line
        ]
        assert len(lines) == 3
        assert lines[0]["keywords"] == ["w0001", "w0002"]
        assert lines[0]["k"] == 3
        assert lines[1]["algorithm"] == "pspq"
        for record in lines:
            for entry in record["results"]:
                assert set(entry) == {"oid", "score", "x", "y"}

    def test_batch_results_match_single_queries(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text('{"keywords": ["w0001"], "k": 5, "radius": 6.0}\n')
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--output", "-",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())

        data, features = load_dataset(dataset_file)
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(k=5, radius=6.0, keywords={"w0001"})
        expected = raw_execute(engine, query, algorithm="espq-sco", grid_size=6)
        assert [e["oid"] for e in record["results"]] == expected.object_ids()
        assert [e["score"] for e in record["results"]] == expected.scores()

    def test_batch_stats_flag(self, dataset_file, query_file, capsys):
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--output", "-", "--stats",
        ])
        assert code == 0
        captured = capsys.readouterr()
        first = json.loads(captured.out.splitlines()[0])
        assert "stats" in first and "index" in first["stats"]
        assert "index cache" in captured.err

    def test_batch_rejects_bad_query_line(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "bad.jsonl"
        query_file.write_text('{"k": 3}\n')
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
        ])
        assert code == 2
        assert "keywords" in capsys.readouterr().err

    def test_batch_rejects_empty_query_file(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "empty.jsonl"
        query_file.write_text("# nothing here\n")
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
        ])
        assert code == 2
        assert "no queries" in capsys.readouterr().err

    def test_batch_rejects_unknown_algorithm_in_line(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "bad_algo.jsonl"
        query_file.write_text('{"keywords": ["w0001"], "algorithm": "bogus"}\n')
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
        ])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestAutoAlgorithmFlags:
    """The ``auto`` surface: --algorithm auto and batch overrides."""

    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "400",
              "--output", str(output)])
        return output

    def test_query_auto_runs_and_reports_planned_algorithm(self, dataset_file, capsys):
        code = main([
            "query", "--input", str(dataset_file), "--keywords", "w0001,w0002",
            "--k", "3", "--grid-size", "6", "--algorithm", "auto", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm=auto" in out
        assert "planned algorithm:   global-scan" in out
        assert "features examined:" in out and "score computations:" in out
        assert "simulated job time" not in out  # no simulated job ran

    def test_auto_result_matches_chosen_fixed_algorithm(self, dataset_file, capsys):
        code = main([
            "query", "--input", str(dataset_file), "--keywords", "w0001,w0002",
            "--k", "4", "--radius", "6.0", "--grid-size", "6",
            "--algorithm", "auto", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        data, features = load_dataset(dataset_file)
        engine = SPQEngine(data, features)
        query = SpatialPreferenceQuery.create(
            k=4, radius=6.0, keywords={"w0001", "w0002"}
        )
        # ``auto`` is the centralized oracle's positively scored prefix.
        expected = [
            entry for entry in engine.execute(query, algorithm="centralized")
            if entry.score > 0.0
        ]
        assert expected
        for rank, entry in enumerate(expected, start=1):
            assert f"{rank:>3}. {entry.obj.oid:<16} score={entry.score:.4f}" in out

    def test_batch_default_auto(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text(
            '{"keywords": ["w0001"], "k": 3, "radius": 5.0}\n'
            '{"keywords": ["w0002"], "k": 3, "radius": 5.0, "algorithm": "pspq"}\n'
        )
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--algorithm", "auto", "--output", "-", "--stats",
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert lines[0]["algorithm"] == "auto"
        assert lines[0]["planned_algorithm"] == "global-scan"
        assert lines[0]["stats"]["algorithm"] == "global-scan"
        assert "simulated_seconds" not in lines[0]["stats"]
        # The fixed-algorithm line is not planned.
        assert lines[1]["algorithm"] == "pspq"
        assert "planned_algorithm" not in lines[1]

    def test_batch_per_line_auto_override(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text(
            '{"keywords": ["w0001"], "k": 2, "radius": 4.0, "algorithm": "auto"}\n'
            '{"keywords": ["w0003"], "k": 2, "radius": 4.0}\n'
        )
        code = main([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--output", "-",
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert lines[0]["algorithm"] == "auto"
        assert lines[0]["planned_algorithm"] == "global-scan"
        assert lines[1]["algorithm"] == "espq-sco"
        assert "planned_algorithm" not in lines[1]

    def test_parser_accepts_auto_choice(self):
        args = build_parser().parse_args(
            ["query", "--input", "x", "--keywords", "a", "--algorithm", "auto"]
        )
        assert args.algorithm == "auto"


#: A minimal command line of every command that takes ``--backend``.
BACKEND_COMMANDS = {
    "query": ["query", "--input", "x.tsv", "--keywords", "a"],
    "batch": ["batch", "--input", "x.tsv", "--queries", "q.jsonl"],
    "serve": ["serve", "--input", "x.tsv"],
    "shard-node": [
        "shard-node", "--input", "x.tsv", "--shard-index", "0", "--shards", "2",
    ],
}


def assert_exits_2(argv, capsys, flag):
    """``main(argv)`` stops in argparse with status 2, naming ``flag``."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


class TestBackendFlags:
    """Tasks run serially, always: the process backend and its ``--workers``
    are gone, and ``--backend`` is kept as the one spelling ``serial``
    (``benchmarks/e2e`` and existing command lines pass it)."""

    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "300",
              "--output", str(output)])
        return output

    @pytest.mark.parametrize("surface", ["EngineConfig", *sorted(BACKEND_COMMANDS)])
    def test_removed_backend_spellings_are_rejected_loudly(self, surface, capsys):
        if surface == "EngineConfig":
            with pytest.raises(JobConfigurationError, match="process backend was removed"):
                EngineConfig(backend="process")
            assert EngineConfig(backend="serial") == EngineConfig()
            return
        argv = BACKEND_COMMANDS[surface]
        assert_exits_2(argv + ["--backend", "process"], capsys, "--backend")
        assert_exits_2(argv + ["--workers", "2"], capsys, "--workers")
        assert build_parser().parse_args(argv + ["--backend", "serial"]).backend == "serial"

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--input", "x", "--keywords", "a", "--backend", "bogus"]
            )

    def test_serial_backend_with_workers_rejected(self, dataset_file, capsys):
        assert_exits_2([
            "query", "--input", str(dataset_file), "--keywords", "w0001",
            "--radius", "3.0", "--grid-size", "6",
            "--backend", "serial", "--workers", "4",
        ], capsys, "--workers")

    def test_nonpositive_workers_rejected(self, dataset_file, capsys):
        assert_exits_2([
            "query", "--input", str(dataset_file), "--keywords", "w0001",
            "--radius", "3.0", "--grid-size", "6", "--workers", "0",
        ], capsys, "--workers")

    def test_batch_backend_flag_and_stats(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text('{"keywords": ["w0001"], "k": 3, "radius": 4.0}\n')
        argv = [
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--grid-size", "6", "--output", "-", "--stats",
        ]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--backend", "serial"]) == 0
        spelled_out = capsys.readouterr().out
        record = json.loads(spelled_out.splitlines()[0])
        assert record["results"] and "shuffled_records" in record["stats"]
        assert not {"backend", "workers"} & set(record["stats"])
        # Stats carry wall-clock seconds; everything else is identical.
        assert [
            {**json.loads(line), "stats": None} for line in spelled_out.splitlines()
        ] == [{**json.loads(line), "stats": None} for line in default.splitlines()]

    def test_batch_serial_workers_combination_rejected(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text('{"keywords": ["w0001"], "radius": 4.0}\n')
        assert_exits_2([
            "batch", "--input", str(dataset_file), "--queries", str(query_file),
            "--backend", "serial", "--workers", "2",
        ], capsys, "--workers")


#: The planner flags removed with the cost estimator and its calibration.
REMOVED_PLANNER_FLAGS = {
    "serve": [
        ["--calibration-path", "c.json"],
        ["--calibration-seed", "c.json"],
        ["--checkpoint-interval", "5"],
    ],
    "shard-node": [
        ["--calibration-path", "c.json"],
        ["--calibration-seed", "c.json"],
        ["--checkpoint-interval", "5"],
    ],
    "query": [["--explain"]],
}


class TestRemovedPlannerFlags:
    """``auto`` is eSPQsco: nothing is estimated, calibrated or persisted,
    so the flags and fields that configured it are gone, loudly."""

    @pytest.mark.parametrize("surface", ["ServiceConfig", *sorted(REMOVED_PLANNER_FLAGS)])
    def test_removed_planner_spellings_are_rejected_loudly(self, surface, capsys):
        if surface == "ServiceConfig":
            for field in (
                "calibration_path", "calibration_seed_path",
                "checkpoint_interval_seconds",
            ):
                with pytest.raises(TypeError, match=field):
                    ServiceConfig(**{field: "c.json"})
            return
        argv = BACKEND_COMMANDS[surface]
        for flag in REMOVED_PLANNER_FLAGS[surface]:
            assert_exits_2(argv + flag, capsys, flag[0])
        build_parser().parse_args(argv)


class TestAnalyzeCommand:
    def test_duplication_table(self, capsys):
        code = main(["analyze", "duplication", "--cell-side", "10", "--radius", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "duplication factor" in out
        assert "1.9257" in out  # pi*(0.2)^2 + 4*0.2 + 1

    def test_cell_size_table(self, capsys):
        code = main(["analyze", "cell-size", "--radius-fraction", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reducer cost" in out
        assert "1/2" in out and "1/64" in out


class TestExperimentsCommand:
    def test_single_figure(self, capsys):
        code = main(["experiments", "--figure", "7", "--objects", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "grid size" in out
        assert "espq-sco" in out


class TestServeCommand:
    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "400",
              "--output", str(output)])
        return output

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--input", "x.tsv"])
        assert args.port == 8787
        assert args.engines == 2

    def test_parser_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--input", "x.tsv", "--algorithm", "bogus"]
            )

    def test_rejects_dataset_without_data_objects(self, tmp_path, capsys):
        dataset = tmp_path / "features_only.tsv"
        dataset.write_text("f1\t1.0\t2.0\titalian\n")
        code = main(["serve", "--input", str(dataset), "--port", "0"])
        assert code == 2
        assert "no data objects" in capsys.readouterr().err

    def test_rejects_bad_backend_combination(self, dataset_file, capsys):
        assert_exits_2([
            "serve", "--input", str(dataset_file), "--port", "0",
            "--backend", "serial", "--workers", "4",
        ], capsys, "--workers")

    def test_rejects_nonpositive_engines(self, dataset_file, capsys):
        code = main([
            "serve", "--input", str(dataset_file), "--port", "0",
            "--engines", "0",
        ])
        assert code == 2
        assert "engines" in capsys.readouterr().err

    def test_serve_startup_and_shutdown_in_process(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ):
        """The serve command's own path (bind, print, shut down)."""
        from repro.server.http import QueryHTTPServer

        monkeypatch.setattr(
            QueryHTTPServer, "serve_forever", lambda self, poll_interval=0.1: None
        )
        argv = [
            "serve", "--input", str(dataset_file), "--port", "0",
            "--grid-size", "8", "--engines", "1",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "listening on http://127.0.0.1:" in captured.out
        assert "shutting down" in captured.err
        assert list(tmp_path.iterdir()) == [dataset_file]

    def test_parser_shard_defaults(self):
        args = build_parser().parse_args(["serve", "--input", "x.tsv"])
        assert args.shards == 1
        assert args.max_radius is None

    def test_rejects_nonpositive_shards(self, dataset_file, capsys):
        code = main([
            "serve", "--input", str(dataset_file), "--port", "0",
            "--shards", "0",
        ])
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_max_radius_without_shards_warns(
        self, dataset_file, capsys, monkeypatch
    ):
        from repro.server.http import QueryHTTPServer

        monkeypatch.setattr(
            QueryHTTPServer, "serve_forever", lambda self, poll_interval=0.1: None
        )
        code = main([
            "serve", "--input", str(dataset_file), "--port", "0",
            "--grid-size", "8", "--engines", "1", "--max-radius", "2.0",
        ])
        assert code == 0
        assert "--max-radius" in capsys.readouterr().err

    def test_serve_sharded_startup_and_shutdown_in_process(
        self, dataset_file, tmp_path, capsys, monkeypatch
    ):
        """`repro serve --shards 2` builds a router behind the same server."""
        from repro.server.http import QueryHTTPServer

        monkeypatch.setattr(
            QueryHTTPServer, "serve_forever", lambda self, poll_interval=0.1: None
        )
        argv = [
            "serve", "--input", str(dataset_file), "--port", "0",
            "--grid-size", "8", "--engines", "1", "--shards", "2",
            "--max-radius", "3.0",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "2 shards" in captured.out
        assert "POST /datasets" in captured.out

    def test_serve_lifecycle_in_a_real_process(self, dataset_file):
        """A real ``repro serve`` process: listen, answer an ``auto`` query
        as eSPQsco, exit 0 on SIGTERM."""
        import os
        import re
        import signal
        import subprocess
        import sys as _sys
        import urllib.request

        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        def run_server():
            # --port 0: the OS assigns a free port, read back from the
            # startup banner -- no bind-close-reuse race on shared runners.
            return subprocess.Popen(
                [_sys.executable, "-m", "repro", "serve",
                 "--input", str(dataset_file), "--port", "0",
                 "--grid-size", "8", "--engines", "1"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )

        def wait_listening(process) -> int:
            """Parse the OS-assigned port from the startup banner."""
            for raw in process.stdout:
                line = raw.decode()
                match = re.search(
                    r"listening on http://127\.0\.0\.1:(\d+)", line
                )
                if match:
                    return int(match.group(1))
            raise AssertionError(
                "server exited before listening: "
                + process.stderr.read().decode()
            )

        process = run_server()
        try:
            port = wait_listening(process)
            body = json.dumps({
                "keywords": ["w0001"], "k": 3, "algorithm": "auto",
            }).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/query", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as reply:
                payload = json.loads(reply.read())
            assert payload["planned_algorithm"] == "global-scan"
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=20)
        assert process.returncode == 0, err.decode()


class TestClusterCommands:
    """`repro serve --cluster` and `repro shard-node`."""

    @pytest.fixture()
    def dataset_file(self, tmp_path):
        output = tmp_path / "un.tsv"
        main(["generate", "--dataset", "uniform", "--objects", "300",
              "--output", str(output)])
        return output

    def test_parser_cluster_defaults(self):
        args = build_parser().parse_args(["serve", "--input", "x.tsv"])
        assert args.cluster == 0
        assert args.replication == 1
        assert args.heartbeat_interval == 2.0
        assert args.liveness_timeout == 6.0
        assert args.node_deadline == 10.0

    def test_parser_shard_node_binds_port_zero_by_default(self):
        args = build_parser().parse_args([
            "shard-node", "--input", "x.tsv",
            "--shard-index", "1", "--shards", "4",
        ])
        assert args.port == 0
        assert args.result_cache == 0
        assert args.dataset_epoch == "boot"

    def test_cluster_and_shards_are_mutually_exclusive(
        self, dataset_file, capsys
    ):
        code = main([
            "serve", "--input", str(dataset_file),
            "--cluster", "2", "--shards", "2",
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cluster_rejects_bad_replication(self, dataset_file, capsys):
        code = main([
            "serve", "--input", str(dataset_file),
            "--cluster", "2", "--replication", "0",
        ])
        assert code == 2
        assert "--replication" in capsys.readouterr().err

    def test_shard_node_rejects_bad_index(self, dataset_file, capsys):
        code = main([
            "shard-node", "--input", str(dataset_file),
            "--shard-index", "3", "--shards", "2",
        ])
        assert code == 2
        assert "shard_index" in capsys.readouterr().err

    def test_shard_node_in_process(self, dataset_file, capsys, monkeypatch):
        from repro.server.http import QueryHTTPServer

        monkeypatch.setattr(
            QueryHTTPServer, "serve_forever", lambda self, poll_interval=0.1: None
        )
        code = main([
            "shard-node", "--input", str(dataset_file),
            "--shard-index", "0", "--shards", "2",
            "--grid-size", "8", "--engines", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro shard-node: shard 0/2 listening on http://" in out
        assert "GET /heartbeat" in out

    def test_serve_cluster_spawns_fleet_in_process(
        self, dataset_file, capsys, monkeypatch
    ):
        """--cluster spawns real node subprocesses, then cleans them up."""
        from repro.server.http import QueryHTTPServer

        monkeypatch.setattr(
            QueryHTTPServer, "serve_forever", lambda self, poll_interval=0.1: None
        )
        code = main([
            "serve", "--input", str(dataset_file), "--port", "0",
            "--cluster", "2", "--replication", "1",
            "--grid-size", "8", "--engines", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shard(s) x 1 replica(s)" in out
        assert "2 shards x 1 replicas" in out
        assert "node shard 0 replica 0" in out
        assert "node shard 1 replica 0" in out
