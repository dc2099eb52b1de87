"""Seeded inputs: datasets and per-block operation streams.

Everything a workload feeds the system is made here: the dataset (through
``repro.datagen``'s paper recipes, pinned per workload) and, derived from
``--seed``, an endless stream of *blocks*, each a fixed-shape list of read
operations followed by a burst of write batches.  Every block has the same
shape and is drawn from the same distribution, so a run measures as many
whole blocks as fit its time budget and the per-block medians stay
comparable whatever that count turns out to be.  The same seed always gives
the same blocks.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.datagen import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.model.objects import DataObject, FeatureObject

#: Blocks folded into ``inputs_digest`` (the stream itself is endless).
DIGEST_BLOCKS = 4

Dataset = Tuple[List[DataObject], List[FeatureObject]]


@dataclass
class Block:
    """One block of operations: reads first, then the write burst.

    ``reads`` holds request objects (``{"keywords": [...], "k": ...}``); for
    the batch workload each read is a *list* of request objects executed as
    one ``execute_many`` call.  ``writes`` holds ``POST /objects`` bodies.
    """

    index: int
    reads: List[object]
    writes: List[Dict[str, object]] = field(default_factory=list)


def make_dataset(kind: str, num_objects: int, dataset_seed: int) -> Dataset:
    """The paper's UN / CL recipe (``repro.datagen``) at ``num_objects``.

    The dataset is a **constant of the workload** (``dataset_seed`` in
    ``config.json``), not a function of ``--seed``; the seed draws the
    operations -- every read, hot pool and write burst.  Which dataset is
    served decides how much work every query does: over five dataset seeds
    the mean score computations per query moved +-3.5% (and where the CL
    centres fall against the grid moved latency +-12%), while five query
    seeds over one dataset moved it +-1%.  Between runs that is noise that
    says nothing about the code, and ten seeds do not average it out.
    """
    config = SyntheticDatasetConfig(num_objects=num_objects, seed=dataset_seed)
    generators = {"uniform": generate_uniform, "clustered": generate_clustered}
    if kind not in generators:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return generators[kind](config)


class OpStream:
    """Deterministic block generator for one (workload, seed, dataset)."""

    def __init__(
        self,
        workload: str,
        sizes: Mapping[str, object],
        seed: int,
        dataset: Dataset,
    ) -> None:
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        data, features = dataset
        self._vocabulary = SyntheticDatasetConfig().vocabulary()
        self._k = int(sizes["k"])
        self._num_keywords = int(sizes["num_keywords"])
        self._anchors = [(obj.x, obj.y) for obj in data]
        xs = [x for x, _ in self._anchors]
        ys = [y for _, y in self._anchors]
        #: Appends stay strictly inside the data objects' bounding box, which
        #: lies inside the served extent however the features fall.
        self._box = (min(xs), min(ys), max(xs), max(ys))
        # Deletes walk seeded permutations of the base oids, so no oid is
        # ever deleted twice and every delete hits a live object.
        rng = self._rng("deletes")
        self._delete_data = [obj.oid for obj in data]
        self._delete_features = [obj.oid for obj in features]
        rng.shuffle(self._delete_data)
        rng.shuffle(self._delete_features)
        self._check_burst_shape()

    def _check_burst_shape(self) -> None:
        """The write burst must compact exactly once, whatever it starts on.

        Every batch but the next-to-last is *small*; the next-to-last, the
        *compaction batch*, appends at least ``compact_threshold`` features
        on its own.  Feature appends reach every delta owner (the service,
        or every shard node), so that batch pushes each overlay past the
        threshold whether the overlay held one small batch (the designed
        state), none (a node the cluster router just re-synchronised) or
        the whole run of small batches before it -- which alone must stay
        below the threshold, or compaction would land somewhere else.
        """
        sizes = self.sizes
        batches = int(sizes.get("write_batches_per_block", 0))
        if not batches:
            return
        threshold = int(sizes["compact_threshold"])
        small = (
            int(sizes["append_data"]) + int(sizes["append_features"])
            + 2 * int(sizes["delete_each"])
        )
        # one live batch from the previous burst + the small ones before
        # the compaction batch
        if batches < 2 or (batches - 1) * small >= threshold:
            raise ValueError(
                f"{batches - 1} small write batches of {small} operations "
                f"reach --compact-threshold {threshold} on their own"
            )
        if int(sizes["compact_append_features"]) < threshold:
            raise ValueError(
                "the compaction batch must cross --compact-threshold alone"
            )

    def _rng(self, tag: object) -> random.Random:
        return random.Random(f"{self.seed}/{self.workload}/{tag}")

    def _spec(self, rng: random.Random) -> Dict[str, object]:
        return {
            "keywords": sorted(rng.sample(self._vocabulary, self._num_keywords)),
            "k": self._k,
        }

    def block(self, index: int) -> Block:
        """Block ``index`` of the stream (pure function of the seed)."""
        sizes = self.sizes
        rng = self._rng(index)
        batch_size = int(sizes.get("batch_size", 0))
        count = int(sizes["reads_per_block"])
        if batch_size:
            reads: List[object] = [
                [self._spec(rng) for _ in range(batch_size)] for _ in range(count)
            ]
        else:
            # Each block draws its own hot pool, and every hot spec appears
            # exactly ``hot_repeats`` times in it, so each block holds the
            # same number of repeated queries -- and, where a result cache
            # is on, the same number of hits.  (Drawing the hot *share* at
            # random let it swing between 10% and 30% of a block, and the
            # median latency with it.)  A pool that outlived its block would
            # buy no extra hits -- every write burst invalidates the result
            # cache and compaction drops the index caches -- but it would
            # make a third of a run's cache misses the same few queries,
            # and their cost a property of the seed.
            pool = [self._spec(rng) for _ in range(int(sizes.get("hot_pool", 0)))]
            hot = [
                dict(spec)
                for _ in range(int(sizes.get("hot_repeats", 0)))
                for spec in pool
            ]
            reads = hot + [self._spec(rng) for _ in range(count - len(hot))]
            rng.shuffle(reads)
            algorithms = sizes.get("algorithms")
            if algorithms:
                # Fixed-algorithm workloads rotate through the paper's three
                # algorithms so every block holds the same mix.
                for position, spec in enumerate(reads):
                    spec["algorithm"] = algorithms[position % len(algorithms)]
        writes = [
            self._write_batch(rng, index, number)
            for number in range(int(sizes.get("write_batches_per_block", 0)))
        ]
        return Block(index=index, reads=reads, writes=writes)

    def _position(self, rng: random.Random) -> Tuple[float, float]:
        """Near a random existing data object: keeps the distribution stationary."""
        min_x, min_y, max_x, max_y = self._box
        anchor_x, anchor_y = rng.choice(self._anchors)
        x = min(max(anchor_x + rng.gauss(0.0, 0.5), min_x), max_x)
        y = min(max(anchor_y + rng.gauss(0.0, 0.5), min_y), max_y)
        return x, y

    def _write_batch(
        self, rng: random.Random, block: int, number: int
    ) -> Dict[str, object]:
        sizes = self.sizes
        per_block = int(sizes["write_batches_per_block"])
        # The warm-up block is index -1: ordinals start there, at 0.
        ordinal = (block + 1) * per_block + number
        feature_count = int(
            sizes["compact_append_features"] if number == per_block - 2
            else sizes["append_features"]
        )
        data_objects = []
        for item in range(int(sizes["append_data"])):
            x, y = self._position(rng)
            data_objects.append({"oid": f"ad{block}_{number}_{item}", "x": x, "y": y})
        feature_objects = []
        for item in range(feature_count):
            x, y = self._position(rng)
            feature_objects.append({
                "oid": f"af{block}_{number}_{item}",
                "x": x,
                "y": y,
                "keywords": sorted(
                    rng.sample(self._vocabulary, rng.randint(10, 100))
                ),
            })
        deletes = int(sizes["delete_each"])
        start = ordinal * deletes
        return {
            "append": {
                "data_objects": data_objects,
                "feature_objects": feature_objects,
            },
            "delete": {
                "data_oids": self._delete_data[start:start + deletes],
                "feature_oids": self._delete_features[start:start + deletes],
            },
        }


def objects_from_write(
    batch: Mapping[str, object],
) -> Tuple[List[DataObject], List[FeatureObject], List[str], List[str]]:
    """A write body as engine arguments, parsed exactly as the server does."""
    append = batch["append"]
    delete = batch["delete"]
    data = [
        DataObject(oid=str(obj["oid"]), x=float(obj["x"]), y=float(obj["y"]))
        for obj in append["data_objects"]
    ]
    features = [
        FeatureObject(
            oid=str(obj["oid"]),
            x=float(obj["x"]),
            y=float(obj["y"]),
            keywords=frozenset(str(word) for word in obj["keywords"]),
        )
        for obj in append["feature_objects"]
    ]
    return data, features, list(delete["data_oids"]), list(delete["feature_oids"])


def inputs_digest(dataset: Dataset, stream: OpStream) -> str:
    """sha256 over the dataset records and the first blocks of the stream."""
    digest = hashlib.sha256()
    data, features = dataset
    for obj in data:
        digest.update(obj.to_record().encode("utf-8"))
        digest.update(b"\n")
    for obj in features:
        digest.update(obj.to_record().encode("utf-8"))
        digest.update(b"\n")
    for index in range(DIGEST_BLOCKS):
        block = stream.block(index)
        digest.update(
            json.dumps(
                {"reads": block.reads, "writes": block.writes}, sort_keys=True
            ).encode("utf-8")
        )
    return digest.hexdigest()


def scores_digest(score_lists: Sequence[Sequence[float]]) -> str:
    """sha256 over score lists in operation order (``repr`` is exact)."""
    digest = hashlib.sha256()
    for scores in score_lists:
        digest.update(repr(list(scores)).encode("ascii"))
    return digest.hexdigest()
