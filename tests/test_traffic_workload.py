"""Property tests for the seeded open-loop workload models of
``benchmarks/traffic_lab.py``."""

from __future__ import annotations

import importlib.util
import math
import pathlib
import sys

import pytest

from repro.core.centralized import dataset_extent
from repro.core.engine import ALGORITHM_CHOICES
from repro.server.protocol import RequestDefaults, parse_query_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "traffic_lab", ROOT / "benchmarks" / "traffic_lab.py"
)
traffic_lab = importlib.util.module_from_spec(_SPEC)
# Registered first: dataclasses look their module up while they are built.
sys.modules[_SPEC.name] = traffic_lab
_SPEC.loader.exec_module(traffic_lab)

ScheduledRequest = traffic_lab.ScheduledRequest
TrafficModel = traffic_lab.TrafficModel
WorkloadConfig = traffic_lab.WorkloadConfig

DEFAULTS = RequestDefaults(k=10, radius=5.0, algorithm="espq-sco", grid_size=10)


@pytest.fixture(scope="module")
def dataset(small_uniform_dataset):
    data, features = small_uniform_dataset
    return data, features, dataset_extent(data, features)


class TestDeterminism:
    def test_same_seed_same_schedule(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(
            seed=42,
            duration_seconds=2.0,
            rate=80.0,
            hotspot_fraction=0.4,
            burst_every_seconds=0.5,
            burst_size=6,
            slow_client_fraction=0.25,
            deadline_ms=300.0,
        )
        first = TrafficModel(features, extent, config).schedule()
        second = TrafficModel(
            features, extent, WorkloadConfig(**vars(config))
        ).schedule()
        assert first == second
        assert all(isinstance(r, ScheduledRequest) for r in first)

    def test_different_seed_different_schedule(self, dataset):
        _, features, extent = dataset
        base = dict(duration_seconds=2.0, rate=80.0)
        first = TrafficModel(
            features, extent, WorkloadConfig(seed=1, **base)
        ).schedule()
        second = TrafficModel(
            features, extent, WorkloadConfig(seed=2, **base)
        ).schedule()
        assert first != second

    def test_indexes_follow_send_order(self, dataset):
        _, features, extent = dataset
        schedule = TrafficModel(
            features,
            extent,
            WorkloadConfig(seed=9, duration_seconds=1.0, rate=100.0),
        ).schedule()
        assert [r.index for r in schedule] == list(range(len(schedule)))
        assert all(
            a.send_at <= b.send_at for a, b in zip(schedule, schedule[1:])
        )


class TestZipfPopularity:
    def test_weights_follow_rank_monotonically(self, dataset):
        _, features, extent = dataset
        model = TrafficModel(
            features, extent, WorkloadConfig(seed=3, zipf_exponent=1.2)
        )
        weights = model.keyword_weights
        assert len(weights) == len(model.ranked_words)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_empirical_frequency_tracks_rank(self, dataset):
        """Top-ranked words must be drawn at least as often as tail words."""
        _, features, extent = dataset
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=11,
                duration_seconds=20.0,
                rate=100.0,
                zipf_exponent=1.5,
                keywords_per_query=1,
            ),
        )
        counts: dict = {}
        for request in model.schedule():
            for word in request.spec["keywords"]:
                counts[word] = counts.get(word, 0) + 1
        ranked = model.ranked_words
        head = sum(counts.get(word, 0) for word in ranked[:10])
        tail = sum(counts.get(word, 0) for word in ranked[-10:])
        assert head > tail

    def test_exponent_zero_is_uniformish(self, dataset):
        """With no skew the head cannot dominate the way Zipf does."""
        _, features, extent = dataset
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=11,
                duration_seconds=20.0,
                rate=100.0,
                zipf_exponent=0.0,
                keywords_per_query=1,
            ),
        )
        counts: dict = {}
        total = 0
        for request in model.schedule():
            for word in request.spec["keywords"]:
                counts[word] = counts.get(word, 0) + 1
                total += 1
        top = max(counts.values())
        # Under Zipf(1.5) the top word takes a double-digit share; uniform
        # sampling over hundreds of words keeps every word's share tiny.
        assert top / total < 0.05


class TestArrivals:
    def test_poisson_long_run_mean(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(seed=21, duration_seconds=30.0, rate=200.0)
        schedule = TrafficModel(features, extent, config).schedule()
        expected = config.rate * config.duration_seconds
        # 6000 expected arrivals; 4 sigma of a Poisson count is ~310.
        assert abs(len(schedule) - expected) < 4 * math.sqrt(expected) + 1
        assert all(0 <= r.send_at < config.duration_seconds for r in schedule)

    def test_diurnal_mean_and_shape(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(
            seed=22,
            duration_seconds=20.0,
            rate=200.0,
            arrival="diurnal",
            diurnal_amplitude=0.9,
        )
        schedule = TrafficModel(features, extent, config).schedule()
        times = [r.send_at for r in schedule]
        expected = config.rate * config.duration_seconds
        assert abs(len(times) - expected) < 4 * math.sqrt(expected) + 1
        # The sinusoid rises through the first half-period and dips
        # through the second: the halves must be visibly asymmetric.
        half = config.duration_seconds / 2
        first = sum(1 for t in times if t < half)
        second = len(times) - first
        assert first > second * 1.2

    def test_burst_groups_share_an_instant(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(
            seed=23,
            duration_seconds=2.0,
            rate=10.0,
            burst_every_seconds=0.5,
            burst_size=7,
        )
        schedule = TrafficModel(features, extent, config).schedule()
        bursts: dict = {}
        for request in schedule:
            if request.profile == "burst":
                bursts.setdefault(request.send_at, 0)
                bursts[request.send_at] += 1
        assert set(bursts) == {0.5, 1.0, 1.5}
        # Burst instants carry at least the injected group (a slow client
        # tag can re-label a member, hence >= only on the total).
        assert sum(bursts.values()) >= 3 * (config.burst_size - 2)

    def test_slow_clients_are_a_stable_subset(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(
            seed=24,
            duration_seconds=4.0,
            rate=100.0,
            slow_client_fraction=0.25,
            clients=8,
        )
        schedule = TrafficModel(features, extent, config).schedule()
        slow_clients = {r.client for r in schedule if r.profile == "slow"}
        steady_clients = {r.client for r in schedule if r.profile != "slow"}
        assert len(slow_clients) == 2  # 25% of 8
        assert not slow_clients & steady_clients


class TestHotspot:
    def test_hotspot_box_inside_extent(self, dataset):
        _, features, extent = dataset
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=31, hotspot_fraction=0.5, hotspot_extent_fraction=0.2
            ),
        )
        box = model.hotspot_box
        assert box is not None
        assert box.min_x >= extent.min_x and box.max_x <= extent.max_x
        assert box.min_y >= extent.min_y and box.max_y <= extent.max_y
        assert box.width == pytest.approx(extent.width * 0.2)

    def test_hotspot_words_come_from_inside_the_box(self, dataset):
        _, features, extent = dataset
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(seed=31, hotspot_fraction=1.0),
        )
        inside_words = set()
        for feature in features:
            if model.hotspot_box.contains(feature.x, feature.y):
                inside_words.update(feature.keywords)
        assert set(model.hotspot_words) == inside_words

    def test_full_hotspot_queries_use_hot_vocabulary(self, dataset):
        _, features, extent = dataset
        model = TrafficModel(
            features,
            extent,
            WorkloadConfig(
                seed=33,
                duration_seconds=5.0,
                rate=50.0,
                hotspot_fraction=1.0,
            ),
        )
        hot = set(model.hotspot_words)
        assert hot  # seed 33 must land the box on some features
        for request in model.schedule():
            assert set(request.spec["keywords"]) <= hot


class TestSpecValidity:
    def test_every_spec_parses_and_resolves(self, dataset):
        _, features, extent = dataset
        config = WorkloadConfig(
            seed=41,
            duration_seconds=3.0,
            rate=60.0,
            hotspot_fraction=0.3,
            burst_every_seconds=1.0,
            burst_size=4,
            deadline_ms=250.0,
            radius=3.0,
        )
        schedule = TrafficModel(features, extent, config).schedule()
        assert schedule
        for request in schedule:
            parsed = parse_query_spec(
                dict(request.spec), DEFAULTS, ALGORITHM_CHOICES
            )
            assert parsed.deadline_ms == 250.0
            assert parsed.item.query.k == config.k

    def test_deadline_ms_not_in_canonical_key(self, dataset):
        _, features, extent = dataset
        schedule = TrafficModel(
            features,
            extent,
            WorkloadConfig(seed=41, duration_seconds=1.0, deadline_ms=100.0),
        ).schedule()
        spec = dict(schedule[0].spec)
        with_deadline = parse_query_spec(spec, DEFAULTS, ALGORITHM_CHOICES)
        spec.pop("deadline_ms")
        without = parse_query_spec(spec, DEFAULTS, ALGORITHM_CHOICES)
        assert with_deadline.canonical_key((1, 0)) == without.canonical_key((1, 0))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration_seconds": 0.0},
            {"rate": -1.0},
            {"arrival": "sawtooth"},
            {"diurnal_amplitude": 1.0},
            {"zipf_exponent": -0.1},
            {"keywords_per_query": 0},
            {"k": 0},
            {"hotspot_fraction": 1.5},
            {"hotspot_extent_fraction": 0.0},
            {"burst_every_seconds": -1.0},
            {"burst_size": -1},
            {"slow_client_fraction": -0.1},
            {"clients": 0},
        ],
    )
    def test_bad_knobs_rejected(self, dataset, overrides):
        _, features, extent = dataset
        with pytest.raises(ValueError):
            TrafficModel(features, extent, WorkloadConfig(**overrides))

    def test_empty_vocabulary_rejected(self, dataset):
        _, _, extent = dataset
        with pytest.raises(ValueError, match="empty vocabulary"):
            TrafficModel([], extent, WorkloadConfig())
