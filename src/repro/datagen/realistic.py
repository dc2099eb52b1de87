"""Flickr-like (FL) and Twitter-like (TW) dataset generators.

The paper's real datasets are not redistributable, so these generators produce
stand-ins matching the published statistics (Section 7.1):

* FL: ~40M geotagged images, 7.9 keywords per object on average, 34,716-word
  dictionary.
* TW: ~80M tweets, 9.8 keywords per object on average, 88,706-word dictionary.

Both real datasets are heavily skewed in space (population centres) and in
keyword frequency (Zipfian term usage).  The generators reproduce those
properties at configurable (much smaller) cardinalities:

* spatial positions are drawn from a mixture of Gaussian "hotspots" (cities)
  over a world-like extent plus a uniform background component;
* keyword counts follow a Poisson-like distribution around the published mean;
* keywords are drawn from a Zipf distribution over a synthetic dictionary of
  the published size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from sys import intern
from typing import List, Tuple

from repro.model.objects import DataObject, FeatureObject
from repro.spatial.geometry import BoundingBox


@dataclass(frozen=True)
class RealisticDatasetConfig:
    """Parameters of the FL/TW-like generators."""

    num_objects: int = 10_000
    extent: BoundingBox = BoundingBox(-180.0, -90.0, 180.0, 90.0)
    mean_keywords: float = 8.0
    vocabulary_size: int = 30_000
    num_hotspots: int = 40
    hotspot_fraction: float = 0.8
    hotspot_stddev_fraction: float = 0.01
    zipf_exponent: float = 1.05
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_objects < 2:
            raise ValueError("need at least 2 objects")
        if self.mean_keywords <= 0:
            raise ValueError("mean_keywords must be > 0")
        if self.vocabulary_size < 1:
            raise ValueError("vocabulary_size must be >= 1")
        if not (0.0 <= self.hotspot_fraction <= 1.0):
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if self.num_hotspots < 1:
            raise ValueError("num_hotspots must be >= 1")


def flickr_config(num_objects: int = 10_000, seed: int = 11) -> RealisticDatasetConfig:
    """FL-like configuration: 7.9 keywords per object, 34,716-word dictionary."""
    return RealisticDatasetConfig(
        num_objects=num_objects, mean_keywords=7.9, vocabulary_size=34_716, seed=seed
    )


def twitter_config(num_objects: int = 10_000, seed: int = 13) -> RealisticDatasetConfig:
    """TW-like configuration: 9.8 keywords per object, 88,706-word dictionary."""
    return RealisticDatasetConfig(
        num_objects=num_objects, mean_keywords=9.8, vocabulary_size=88_706, seed=seed
    )


class _ZipfSampler:
    """Zipf-distributed keyword sampling via inverse-CDF on precomputed weights."""

    def __init__(self, vocabulary_size: int, exponent: float, rng: random.Random) -> None:
        self._rng = rng
        weights = [1.0 / (rank ** exponent) for rank in range(1, vocabulary_size + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        # Interned: sample_set's canonical tuples reach FeatureObject as is.
        self._vocabulary = [intern(f"t{rank:06d}") for rank in range(1, vocabulary_size + 1)]

    def sample(self) -> str:
        u = self._rng.random()
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < u:
                low = mid + 1
            else:
                high = mid
        return self._vocabulary[low]

    def sample_set(self, count: int) -> Tuple[str, ...]:
        words = set()
        attempts = 0
        # Cap attempts so pathological configurations (count close to the
        # vocabulary size) cannot loop forever.
        while len(words) < count and attempts < 20 * count + 20:
            words.add(self.sample())
            attempts += 1
        return tuple(sorted(words))


def _poisson_like(rng: random.Random, mean: float) -> int:
    """Small-mean Poisson sample via Knuth's algorithm, clamped to >= 1."""
    threshold = math.exp(-mean)
    k = 0
    product = 1.0
    while True:
        k += 1
        product *= rng.random()
        if product <= threshold:
            break
    return max(k - 1, 1)


def _generate_positions(
    config: RealisticDatasetConfig, rng: random.Random
) -> List[Tuple[float, float]]:
    extent = config.extent
    hotspots = [
        (rng.uniform(extent.min_x, extent.max_x), rng.uniform(extent.min_y, extent.max_y))
        for _ in range(config.num_hotspots)
    ]
    stddev_x = extent.width * config.hotspot_stddev_fraction
    stddev_y = extent.height * config.hotspot_stddev_fraction
    positions: List[Tuple[float, float]] = []
    for _ in range(config.num_objects):
        if rng.random() < config.hotspot_fraction:
            cx, cy = hotspots[rng.randrange(config.num_hotspots)]
            x = min(max(rng.gauss(cx, stddev_x), extent.min_x), extent.max_x)
            y = min(max(rng.gauss(cy, stddev_y), extent.min_y), extent.max_y)
        else:
            x = rng.uniform(extent.min_x, extent.max_x)
            y = rng.uniform(extent.min_y, extent.max_y)
        positions.append((x, y))
    return positions


def _generate(
    config: RealisticDatasetConfig, prefix: str
) -> Tuple[List[DataObject], List[FeatureObject]]:
    rng = random.Random(config.seed)
    positions = _generate_positions(config, rng)
    sampler = _ZipfSampler(config.vocabulary_size, config.zipf_exponent, rng)
    indices = list(range(len(positions)))
    rng.shuffle(indices)
    data_objects: List[DataObject] = []
    feature_objects: List[FeatureObject] = []
    for rank, index in enumerate(indices):
        x, y = positions[index]
        if rank % 2 == 0:
            data_objects.append(DataObject(oid=f"{prefix}p{index}", x=x, y=y))
        else:
            count = _poisson_like(rng, config.mean_keywords)
            feature_objects.append(
                FeatureObject(
                    oid=f"{prefix}f{index}", x=x, y=y, keywords=sampler.sample_set(count)
                )
            )
    return data_objects, feature_objects


def generate_flickr_like(
    num_objects: int = 10_000, seed: int = 11, config: RealisticDatasetConfig | None = None
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Generate an FL-like dataset (skewed space, 7.9 keywords/object average)."""
    config = config or flickr_config(num_objects=num_objects, seed=seed)
    return _generate(config, prefix="fl_")


def generate_twitter_like(
    num_objects: int = 10_000, seed: int = 13, config: RealisticDatasetConfig | None = None
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Generate a TW-like dataset (skewed space, 9.8 keywords/object average)."""
    config = config or twitter_config(num_objects=num_objects, seed=seed)
    return _generate(config, prefix="tw_")
