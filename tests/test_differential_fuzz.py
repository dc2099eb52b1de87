"""Differential fuzzing: every execution strategy must agree with the oracle.

Seeded random datasets (uniform + clustered) crossed with seeded random
queries -- k, radius, keyword sets including zero-match and
everywhere-matching ("stop-word-only") extremes -- asserting that

* the three MapReduce algorithms (pSPQ, eSPQlen, eSPQsco) reproduce the
  centralized oracle's positively scored prefix: identical score
  sequences, every reported object's score exactly its ground-truth
  ``tau(p)``, and identical object ids whenever score ties leave the top-k
  composition well-defined (with ties, any maximal set of tied objects is
  a correct answer -- eSPQsco's Lemma 3 reports the first ``k`` found per
  cell, the oracle breaks ties by object id);
* ``auto`` (one global Lemma-3 scan) *is* that prefix, ids and scores,
  ties included -- unsharded, on a sharded router and with a live delta;
* ``execute_many`` is bit-for-bit identical (ids *and* scores, ties
  included) to the raw record stream (``tests/raw_oracle.py`` -- per-query
  ``execute`` is the same index path since PR 23, so it is not the
  reference any more) for every algorithm.

This is the regression net under every layer the engine grew (index-backed
batches, the cost-based planner): any divergence in
shuffle ordering, early termination or result merging shows up here as a
concrete (dataset seed, query) counterexample.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from object_oracle import select_reduce_loop
from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.core.scoring import compute_score
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.model.query import SpatialPreferenceQuery

MR_ALGORITHMS = ("pspq", "espq-len", "espq-sco")

#: (generator, dataset seed) pairs fuzzed below.
DATASETS = (
    ("uniform", 9001),
    ("uniform", 9002),
    ("clustered", 9101),
    ("clustered", 9102),
)

QUERIES_PER_DATASET = 6


def build_dataset(kind: str, seed: int):
    config = SyntheticDatasetConfig(
        num_objects=360,
        seed=seed,
        min_keywords=2,
        max_keywords=12,
        vocabulary_size=80,
    )
    generator = generate_uniform if kind == "uniform" else generate_clustered
    data, features = generator(config)
    # A "stop word" present in every feature: queries containing it match
    # the whole feature set, the opposite extreme of zero-match keywords.
    features = [
        type(feature)(
            oid=feature.oid,
            x=feature.x,
            y=feature.y,
            keywords=(*feature.keywords, "stop"),
        )
        for feature in features
    ]
    return data, features


def build_queries(seed: int) -> List[SpatialPreferenceQuery]:
    """Seeded random queries spanning the parameter extremes."""
    rng = random.Random(seed)
    queries: List[SpatialPreferenceQuery] = []
    for index in range(QUERIES_PER_DATASET):
        k = rng.choice((1, 3, 10, 40))
        radius = rng.choice((0.0, 0.8, 4.0, 15.0, 70.0, 250.0))
        if index == 0:
            keywords = {"zz-nothing-matches"}      # zero-match
        elif index == 1:
            keywords = {"stop"}                    # matches every feature
        else:
            count = rng.choice((1, 2, 4, 7))
            keywords = {f"w{rng.randrange(80):04d}" for _ in range(count)}
            if rng.random() < 0.3:
                keywords.add("stop")
            if rng.random() < 0.2:
                keywords.add("zz-never")
        queries.append(
            SpatialPreferenceQuery.create(k=k, radius=radius, keywords=keywords)
        )
    return queries


def fingerprint(result) -> Tuple[Tuple[str, float], ...]:
    return tuple(zip(result.object_ids(), result.scores()))


def oracle_scores(data, features, query) -> Dict[str, float]:
    """Ground-truth ``tau(p)`` of every data object (exhaustive)."""
    return {
        obj.oid: compute_score(obj, features, query, "range") for obj in data
    }


def expected_prefix(truth: Dict[str, float], k: int) -> List[Tuple[str, float]]:
    """The oracle's positively scored top-k: (score desc, oid asc)."""
    ranked = sorted(
        ((oid, score) for oid, score in truth.items() if score > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


def centralized_prefix(engine, query) -> Tuple[Tuple[str, float], ...]:
    """The centralized oracle's positively scored top-k over ``engine``'s
    live datasets: what ``auto`` must return, ties included."""
    result = engine.execute(query, algorithm="centralized")
    return tuple(pair for pair in fingerprint(result) if pair[1] > 0.0)


def assert_matches_oracle(result, truth: Dict[str, float], k: int, label: str) -> None:
    """The oracle-equivalence contract (see module docstring)."""
    actual = fingerprint(result)
    expected = expected_prefix(truth, k)
    assert [score for _, score in actual] == pytest.approx(
        [score for _, score in expected]
    ), f"score sequence diverged: {label}"
    for oid, score in actual:
        assert score == pytest.approx(truth[oid]), (
            f"reported score is not the ground-truth tau({oid}): {label}"
        )
    # With all reported scores distinct and the k-th score unambiguous, the
    # top-k composition is unique, so the object ids must match exactly.
    scores = [score for _, score in expected]
    boundary_tied = len(expected) == k and any(
        score == pytest.approx(scores[-1]) and oid not in dict(expected)
        for oid, score in truth.items()
        if score > 0.0
    )
    if len(set(scores)) == len(scores) and not boundary_tied:
        assert [oid for oid, _ in actual] == [oid for oid, _ in expected], (
            f"object ids diverged without ties: {label}"
        )


def case_label(kind: str, seed: int, query: SpatialPreferenceQuery) -> str:
    return (
        f"{kind}/seed={seed} k={query.k} r={query.radius} "
        f"W={sorted(query.keywords)}"
    )


@pytest.mark.parametrize("kind,seed", DATASETS, ids=[f"{k}-{s}" for k, s in DATASETS])
class TestSerialDifferentialFuzz:
    """All strategies vs the exhaustive oracle."""

    @pytest.fixture()
    def setup(self, kind, seed):
        data, features = build_dataset(kind, seed)
        queries = build_queries(seed + 1)
        engine = SPQEngine(data, features)
        return data, features, queries, engine

    def test_all_algorithms_match_oracle(self, setup, kind, seed):
        data, features, queries, engine = setup
        for grid_size, query in zip((4, 7, 12, 4, 7, 12), queries):
            truth = oracle_scores(data, features, query)
            label = case_label(kind, seed, query)
            for algorithm in MR_ALGORITHMS:
                result = engine.execute(query, algorithm=algorithm, grid_size=grid_size)
                assert_matches_oracle(
                    result, truth, query.k, f"{algorithm} on {label} (grid {grid_size})"
                )

    def test_execute_many_matches_sequential(self, setup, kind, seed):
        data, features, queries, engine = setup
        for algorithm in MR_ALGORITHMS:
            sequential = [
                fingerprint(raw_execute(engine, query, algorithm=algorithm, grid_size=6))
                for query in queries
            ]
            batched = [
                fingerprint(result)
                for result in engine.execute_many(queries, algorithm=algorithm, grid_size=6)
            ]
            assert batched == sequential, f"{algorithm} batch != sequential ({kind}/{seed})"

    def test_auto_matches_oracle(self, setup, kind, seed):
        data, features, queries, engine = setup
        for query in queries:
            truth = oracle_scores(data, features, query)
            result = engine.execute(query, algorithm="auto", grid_size=6)
            label = f"auto on {case_label(kind, seed, query)}"
            assert_matches_oracle(result, truth, query.k, label)
            # Bit-for-bit against the centralized oracle, ties included --
            # and against the exhaustive ground truth ranked the same way.
            assert fingerprint(result) == centralized_prefix(engine, query), label
            assert list(fingerprint(result)) == expected_prefix(truth, query.k), label
            batched = engine.execute_many([query], algorithm="auto", grid_size=6)[0]
            assert fingerprint(result) == fingerprint(batched)


class TestIngestParityFuzz:
    """Randomized append/delete/query interleavings vs the bulk-swap oracle.

    After every mutation step, the delta-serving engine must answer
    **bit-for-bit** like a fresh engine bulk-swapped to the final state --
    ids and scores, ties included -- with the extent pinned (incremental
    appends may not widen the served extent, so neither may the oracle's).
    ``auto`` is compared with the centralized oracle over the bulk-swapped
    state, ids and scores, ties included.  Both reduce loops are fuzzed: a
    data tombstone hands either one a filtered view of the cell's block,
    which must stay exact.
    """

    CHECK_QUERIES = 3
    MUTATION_STEPS = 10

    @pytest.mark.parametrize("dataplane", ("object", "columnar"))
    @pytest.mark.parametrize("kind,seed", (("uniform", 9001), ("clustered", 9102)))
    def test_interleaved_ops_match_bulk_swap(
        self, kind, seed, dataplane, monkeypatch
    ):
        from repro.model.objects import DataObject, FeatureObject

        select_reduce_loop(monkeypatch, dataplane)
        data, features = build_dataset(kind, seed)
        rng = random.Random(seed + 77)
        queries = build_queries(seed + 1)
        with SPQEngine(data, features, config=EngineConfig(grid_size=6)) as engine:
            extent = engine.extent
            live_data = {obj.oid for obj in data}
            live_features = {feature.oid for feature in features}
            for step in range(self.MUTATION_STEPS):
                op = rng.choice(("append", "append", "delete", "mixed"))
                append_data, append_features = [], []
                delete_data, delete_features = [], []
                if op in ("append", "mixed"):
                    for _ in range(rng.randrange(1, 4)):
                        oid = f"fz-d{step}-{rng.randrange(10_000)}"
                        if oid in live_data:
                            continue
                        append_data.append(DataObject(
                            oid=oid,
                            x=rng.uniform(extent.min_x, extent.max_x),
                            y=rng.uniform(extent.min_y, extent.max_y),
                        ))
                    oid = f"fz-f{step}-{rng.randrange(10_000)}"
                    if oid not in live_features:
                        append_features.append(FeatureObject(
                            oid=oid,
                            x=rng.uniform(extent.min_x, extent.max_x),
                            y=rng.uniform(extent.min_y, extent.max_y),
                            keywords=frozenset(
                                {f"w{rng.randrange(80):04d}", "stop"}
                            ),
                        ))
                if op in ("delete", "mixed"):
                    delete_data = rng.sample(sorted(live_data), 2)
                    delete_features = rng.sample(sorted(live_features), 3)
                engine.apply_updates(
                    append_data=append_data,
                    append_features=append_features,
                    delete_data_oids=delete_data,
                    delete_feature_oids=delete_features,
                )
                live_data = (live_data - set(delete_data)) | {
                    obj.oid for obj in append_data
                }
                live_features = (live_features - set(delete_features)) | {
                    obj.oid for obj in append_features
                }
                if step % 3 != 2 and step != self.MUTATION_STEPS - 1:
                    continue
                final_data, final_features = engine.materialize_datasets()
                with SPQEngine(
                    final_data, final_features,
                    config=EngineConfig(grid_size=6), extent=extent,
                ) as oracle:
                    for query in rng.sample(queries, self.CHECK_QUERIES):
                        for algorithm in MR_ALGORITHMS:
                            got = engine.execute(
                                query, algorithm=algorithm, grid_size=6
                            )
                            want = raw_execute(
                                oracle, query, algorithm=algorithm, grid_size=6
                            )
                            assert fingerprint(got) == fingerprint(want), (
                                f"{algorithm} diverged at step {step} "
                                f"({kind}/{seed}, {dataplane})"
                            )
                        auto = engine.execute(query, algorithm="auto", grid_size=6)
                        assert fingerprint(auto) == centralized_prefix(oracle, query), (
                            f"auto diverged from the centralized oracle at step "
                            f"{step} ({kind}/{seed}, {dataplane})"
                        )


class TestShardedParityFuzz:
    """Randomized hot swaps and compactions interleaved with ingest, sharded.

    A 4-shard router (2 x 2 over a 6-cell grid: aligned) runs a seeded
    schedule of incremental write batches, hot swaps to its own live state
    (``swap_datasets``: a repartition over the re-derived extent) and
    per-shard compactions, with checkpoint queries between them.  At every
    checkpoint the router must answer **bit-for-bit** like a fresh
    unsharded engine bulk-swapped to the current state on the router's
    current extent -- ids and scores, ties included: the sharded twin of
    :class:`TestIngestParityFuzz`.  ``auto`` is compared with the
    centralized oracle over the current state, ids and scores, ties
    included.
    """

    CHECK_QUERIES = 3
    MUTATION_STEPS = 10
    GRID = 6

    @pytest.mark.parametrize("kind,seed", (("clustered", 9102), ("uniform", 9001)))
    def test_interleaved_swaps_match_bulk_swap(self, kind, seed):
        from repro.core.engine import EngineConfig, SPQEngine
        from repro.model.objects import DataObject, FeatureObject
        from repro.server import ServiceConfig
        from repro.sharding import ShardRouter, ShardingConfig

        data, features = build_dataset(kind, seed)
        rng = random.Random(seed + 177)
        queries = build_queries(seed + 1)
        grid = self.GRID
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=grid),
            service_config=ServiceConfig(
                engines=1, default_grid_size=grid, result_cache_capacity=0
            ),
            sharding=ShardingConfig(shards=4),
        )
        with router:
            assert router.plan.grid_aligned(grid)
            # The bulk-swap mirror: surviving objects in storage order,
            # appends at the tail -- exactly ``materialize``'s order, which
            # swaps and compactions re-base but never reorder.
            live_data = list(data)
            live_features = list(features)
            swaps = compactions = 0
            for step in range(self.MUTATION_STEPS):
                roll = rng.random()
                if roll < 0.3:
                    info = router.swap_datasets(live_data, live_features)
                    swaps += 1
                    assert info["data_objects"] == len(live_data)
                elif roll < 0.6:
                    router.compact()
                    compactions += 1
                extent = router.plan.extent
                append_data, append_features = [], []
                delete_data, delete_features = [], []
                live_data_oids = {obj.oid for obj in live_data}
                live_feature_oids = {obj.oid for obj in live_features}
                if rng.random() < 0.8:
                    for _ in range(rng.randrange(1, 4)):
                        oid = f"rb-d{step}-{rng.randrange(10_000)}"
                        if oid in live_data_oids:
                            continue
                        append_data.append(DataObject(
                            oid=oid,
                            x=rng.uniform(extent.min_x, extent.max_x),
                            y=rng.uniform(extent.min_y, extent.max_y),
                        ))
                    oid = f"rb-f{step}-{rng.randrange(10_000)}"
                    if oid not in live_feature_oids:
                        append_features.append(FeatureObject(
                            oid=oid,
                            x=rng.uniform(extent.min_x, extent.max_x),
                            y=rng.uniform(extent.min_y, extent.max_y),
                            keywords=frozenset(
                                {f"w{rng.randrange(80):04d}", "stop"}
                            ),
                        ))
                if rng.random() < 0.5:
                    delete_data = rng.sample(sorted(live_data_oids), 2)
                    delete_features = rng.sample(sorted(live_feature_oids), 2)
                router.apply_objects(
                    append_data=append_data,
                    append_features=append_features,
                    delete_data_oids=delete_data,
                    delete_feature_oids=delete_features,
                )
                live_data = [
                    obj for obj in live_data if obj.oid not in set(delete_data)
                ] + append_data
                live_features = [
                    obj for obj in live_features
                    if obj.oid not in set(delete_features)
                ] + append_features
                if step % 3 != 2 and step != self.MUTATION_STEPS - 1:
                    continue
                with SPQEngine(
                    live_data, live_features,
                    config=EngineConfig(grid_size=grid), extent=router.plan.extent,
                ) as oracle:
                    for query in rng.sample(queries, self.CHECK_QUERIES):
                        spec = {
                            "keywords": sorted(query.keywords),
                            "k": query.k,
                            "radius": query.radius,
                            "grid_size": grid,
                        }
                        for algorithm in MR_ALGORITHMS:
                            response = router.submit(
                                {**spec, "algorithm": algorithm}
                            )
                            got = tuple(
                                (e["oid"], e["score"])
                                for e in response["results"]
                            )
                            want = fingerprint(raw_execute(
                                oracle, query, algorithm=algorithm, grid_size=grid
                            ))
                            assert got == want, (
                                f"{algorithm} diverged at step {step} "
                                f"({kind}/{seed}, swaps={swaps}, "
                                f"compactions={compactions})"
                            )
                        auto = router.submit({**spec, "algorithm": "auto"})
                        got = tuple(
                            (e["oid"], e["score"]) for e in auto["results"]
                        )
                        assert got == centralized_prefix(oracle, query), (
                            f"auto diverged from the centralized oracle at "
                            f"step {step} ({kind}/{seed})"
                        )
            assert router.stats()["dataset"]["swaps"] == swaps
            assert swaps and compactions  # the schedule exercised both


class TestDataplaneParity:
    """Columnar reduce loops vs the per-object oracle, bit-for-bit.

    The ``object`` run swaps in the per-object loops of
    ``tests/object_oracle.py`` -- the paper's algorithms as written, which
    the columnar hot paths replaced; every algorithm must agree across the
    two on ids, scores *and* counters, values and key order -- the counters
    feed the planner's calibration, so the columnar loops must also preserve
    the cost model's accounting exactly.
    """

    @pytest.mark.parametrize("kind,seed", DATASETS)
    def test_columnar_is_bit_for_bit_identical(self, kind, seed):
        data, features = build_dataset(kind, seed)
        queries = build_queries(seed + 31)

        def run(loop: str):
            snapshots = []
            with pytest.MonkeyPatch.context() as patch:
                select_reduce_loop(patch, loop)
                with SPQEngine(
                    data, features, config=EngineConfig(grid_size=6)
                ) as engine:
                    for algorithm in MR_ALGORITHMS:
                        for result in engine.execute_many(
                            queries, algorithm=algorithm, grid_size=6
                        ):
                            counters = result.stats["counters"]
                            snapshots.append((
                                fingerprint(result),
                                [(group, list(names.items()))
                                 for group, names in counters.items()],
                            ))
            return snapshots

        oracle = run("object")
        columnar = run("columnar")
        assert oracle and len(oracle) == len(columnar)
        for index, (want, got) in enumerate(zip(oracle, columnar)):
            assert got == want, f"dataplane divergence at run {index}"
