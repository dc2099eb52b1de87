"""Shared fixtures for the benchmark suite.

Each figure of the paper gets one bench module; they all share the four
scaled-down datasets (FL, TW, UN, CL) built here once per session.  The
benchmarks measure the wall-clock cost of executing a query end-to-end on the
simulated MapReduce substrate; the *simulated* job times that reproduce the
paper's figures are produced by ``benchmarks/run_all.py`` and recorded in
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import pytest

from repro.paper.bench.experiments import (
    _clustered_spec,
    _flickr_spec,
    _twitter_spec,
    _uniform_spec,
)

#: Smaller cardinality for the benchmark runs so the whole suite stays fast.
BENCH_NUM_OBJECTS = 4_000


@pytest.fixture(scope="session")
def flickr_spec():
    return _flickr_spec(BENCH_NUM_OBJECTS)


@pytest.fixture(scope="session")
def twitter_spec():
    return _twitter_spec(BENCH_NUM_OBJECTS)


@pytest.fixture(scope="session")
def uniform_spec():
    return _uniform_spec(BENCH_NUM_OBJECTS)


@pytest.fixture(scope="session")
def clustered_spec():
    return _clustered_spec(BENCH_NUM_OBJECTS)


def execute(spec, algorithm, **overrides):
    """Run one query with the spec's defaults (plus overrides) and return stats."""
    varied = spec.with_overrides(**overrides) if overrides else spec
    engine = varied.build_engine()
    query = varied.build_query()
    result = engine.execute(query, algorithm=algorithm, grid_size=varied.grid_size)
    return result
