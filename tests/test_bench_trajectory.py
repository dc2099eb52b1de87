"""``tools/bench_trajectory.py check``: committed BENCH files name declared metrics."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_trajectory_passes(tool, capsys):
    assert tool.check() == 0
    assert sorted(path.name for path in ROOT.glob("BENCH_*.json"))[:1] == ["BENCH_13.json"]
    assert "0 problem(s)" in capsys.readouterr().out


def test_undeclared_names_are_reported(tool, tmp_path, monkeypatch, capsys):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    row = {"workload": "engine_fixed", "metric": "latency_p50_ms"}
    documents = {
        "BENCH_1.json": {"rows": [row], "per_layer": [
            {"workload": "engine_fixed", "metrics": {"execution.map_ms": 1.0}}
        ]},
        "BENCH_2.json": {"rows": [dict(row, metric="latency_p95_ms")]},
        "BENCH_3.json": {"rows": [dict(row, workload="engine_gone")], "per_layer": [
            {"workload": "engine_fixed", "metrics": {"execution.shuffle_ms": 1.0}}
        ]},
        "BENCH_4.json": {"rows": []},
    }
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document))
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.check() == 1
    out = capsys.readouterr().out
    assert "BENCH_1.json" not in out
    assert "BENCH_2.json: unknown end-to-end metric 'latency_p95_ms'" in out
    assert "BENCH_3.json: unknown workload 'engine_gone'" in out
    assert "BENCH_3.json: unknown per-layer metric 'execution.shuffle_ms'" in out
    assert "BENCH_4.json: no rows" in out
    assert "4 BENCH file(s), 4 problem(s)" in out
