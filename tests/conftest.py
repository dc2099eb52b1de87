"""Shared fixtures: the paper's running example and small generated datasets."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from object_oracle import OBJECT_JOB_CLASSES, use_object_reducers
from repro.datagen.realistic import RealisticDatasetConfig, generate_flickr_like
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery


# --------------------------------------------------------------------- #
# Per-test watchdog: a test that hangs prints every thread's stack and kills
# the run, instead of sitting silent until the CI job's 20-minute timeout.

#: Seconds one test (set-up, call and tear-down) may take.  The slowest test
#: of the suite takes about 2 s (``pytest --durations=10``, which CI ``test``
#: prints), so a minute is only ever a hang.
TEST_WATCHDOG_SECONDS = 60

_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while this hook runs, so fd 2 is still the
    # terminal; during a test it is a capture file, which the watchdog's hard
    # exit would throw away together with the stacks written to it.
    config.stash[_TERMINAL_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL_STDERR])


@pytest.fixture(autouse=True)
def _watchdog(request):
    faulthandler.dump_traceback_later(
        TEST_WATCHDOG_SECONDS, exit=True, file=request.config.stash[_TERMINAL_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


# --------------------------------------------------------------------- #
# The running example of the paper (Figure 1 / Table 2): hotels (data
# objects) ranked by Italian restaurants (feature objects) nearby.


@pytest.fixture()
def paper_data_objects():
    return [
        DataObject("p1", 4.6, 4.8),
        DataObject("p2", 7.5, 1.7),
        DataObject("p3", 8.9, 5.2),
        DataObject("p4", 1.8, 1.8),
        DataObject("p5", 1.9, 9.0),
    ]


@pytest.fixture()
def paper_feature_objects():
    return [
        FeatureObject("f1", 2.8, 1.2, frozenset({"italian", "gourmet"})),
        FeatureObject("f2", 5.0, 3.8, frozenset({"chinese", "cheap"})),
        FeatureObject("f3", 8.7, 1.9, frozenset({"sushi", "wine"})),
        FeatureObject("f4", 3.8, 5.5, frozenset({"italian"})),
        FeatureObject("f5", 5.2, 5.1, frozenset({"mexican", "exotic"})),
        FeatureObject("f6", 7.4, 5.4, frozenset({"greek", "traditional"})),
        FeatureObject("f7", 3.0, 8.1, frozenset({"italian", "spaghetti"})),
        FeatureObject("f8", 9.5, 7.0, frozenset({"indian"})),
    ]


@pytest.fixture()
def paper_query():
    """The example query: top-1 for keyword "italian" within r = 1.5."""
    return SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})


# --------------------------------------------------------------------- #
# The reference reduce loops (tests/object_oracle.py).


@pytest.fixture()
def object_reducers(monkeypatch):
    """Every SPQ job the engine or ``raw_oracle`` builds in this test reduces
    with the per-object loops; returns their classes by algorithm name."""
    use_object_reducers(monkeypatch)
    return OBJECT_JOB_CLASSES


# --------------------------------------------------------------------- #
# Small generated datasets used by integration tests.


@pytest.fixture(scope="session")
def small_uniform_dataset():
    config = SyntheticDatasetConfig(num_objects=1_000, seed=101)
    return generate_uniform(config)


@pytest.fixture(scope="session")
def small_clustered_dataset():
    config = SyntheticDatasetConfig(num_objects=1_000, seed=202)
    return generate_clustered(config)


@pytest.fixture(scope="session")
def small_flickr_dataset():
    config = RealisticDatasetConfig(num_objects=800, vocabulary_size=500, seed=303)
    return generate_flickr_like(config=config)
