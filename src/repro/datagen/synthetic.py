"""Synthetic dataset generators: Uniform (UN) and Clustered (CL).

Section 7.1 of the paper: the UN dataset contains spatial objects following a
uniform distribution; each feature object carries a random number of keywords
between 10 and 100 drawn from a 1,000-word vocabulary.  The CL dataset places
objects around 16 clusters whose centres are selected at random, with all
other parameters unchanged.  In both cases half of the generated objects act
as data objects and the other half as feature objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from sys import intern
from typing import List, Sequence, Tuple

from repro.model.objects import DataObject, FeatureObject
from repro.spatial.geometry import BoundingBox


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Parameters of the synthetic generators.

    Defaults follow the paper's recipe (keyword counts in [10, 100],
    vocabulary of 1,000 words, 16 clusters for CL), with the dataset extent
    normalised to ``[0, 100] x [0, 100]``.
    """

    num_objects: int = 10_000
    extent: BoundingBox = BoundingBox(0.0, 0.0, 100.0, 100.0)
    min_keywords: int = 10
    max_keywords: int = 100
    vocabulary_size: int = 1_000
    num_clusters: int = 16
    cluster_stddev_fraction: float = 0.03
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_objects < 2:
            raise ValueError("need at least 2 objects (one data, one feature)")
        if not (1 <= self.min_keywords <= self.max_keywords):
            raise ValueError("keyword count range must satisfy 1 <= min <= max")
        if self.vocabulary_size < 1:
            raise ValueError("vocabulary_size must be >= 1")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")

    def vocabulary(self) -> List[str]:
        """The synthetic vocabulary ``w0000 .. wNNNN``, interned: the words
        reach :class:`FeatureObject` as canonical tuples, kept as they are."""
        return [intern(f"w{i:04d}") for i in range(self.vocabulary_size)]


def _random_keywords(rng: random.Random, config: SyntheticDatasetConfig,
                     vocabulary: Sequence[str]) -> Tuple[str, ...]:
    # Distinct words of one shared vocabulary list, sorted: the canonical
    # tuple FeatureObject keeps as is.
    count = rng.randint(config.min_keywords, min(config.max_keywords, len(vocabulary)))
    return tuple(sorted(rng.sample(vocabulary, count)))


def split_objects(
    positions: Sequence[Tuple[float, float]],
    config: SyntheticDatasetConfig,
    rng: random.Random,
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Turn generated positions into data/feature objects (half and half).

    The paper "randomly select[s] half of the objects to act as data objects
    and the other half as feature objects"; here even/odd indices after a
    shuffle achieve the same effect deterministically under the seed.
    """
    vocabulary = config.vocabulary()
    indices = list(range(len(positions)))
    rng.shuffle(indices)
    data_objects: List[DataObject] = []
    feature_objects: List[FeatureObject] = []
    for rank, index in enumerate(indices):
        x, y = positions[index]
        if rank % 2 == 0:
            data_objects.append(DataObject(oid=f"p{index}", x=x, y=y))
        else:
            feature_objects.append(
                FeatureObject(
                    oid=f"f{index}", x=x, y=y,
                    keywords=_random_keywords(rng, config, vocabulary),
                )
            )
    return data_objects, feature_objects


def generate_uniform(
    config: SyntheticDatasetConfig | None = None,
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Generate the UN dataset: uniformly distributed positions."""
    config = config or SyntheticDatasetConfig()
    rng = random.Random(config.seed)
    extent = config.extent
    positions = [
        (rng.uniform(extent.min_x, extent.max_x), rng.uniform(extent.min_y, extent.max_y))
        for _ in range(config.num_objects)
    ]
    return split_objects(positions, config, rng)


def generate_clustered(
    config: SyntheticDatasetConfig | None = None,
) -> Tuple[List[DataObject], List[FeatureObject]]:
    """Generate the CL dataset: positions around ``num_clusters`` random centres.

    Cluster centres are uniform in the extent; members are Gaussian around the
    centre with standard deviation ``cluster_stddev_fraction`` of the extent
    side, clamped into the extent.
    """
    config = config or SyntheticDatasetConfig()
    rng = random.Random(config.seed)
    extent = config.extent
    centres = [
        (rng.uniform(extent.min_x, extent.max_x), rng.uniform(extent.min_y, extent.max_y))
        for _ in range(config.num_clusters)
    ]
    stddev_x = extent.width * config.cluster_stddev_fraction
    stddev_y = extent.height * config.cluster_stddev_fraction
    positions: List[Tuple[float, float]] = []
    for _ in range(config.num_objects):
        cx, cy = centres[rng.randrange(config.num_clusters)]
        x = min(max(rng.gauss(cx, stddev_x), extent.min_x), extent.max_x)
        y = min(max(rng.gauss(cy, stddev_y), extent.min_y), extent.max_y)
        positions.append((x, y))
    return split_objects(positions, config, rng)
