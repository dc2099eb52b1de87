"""Tests for ``algorithm="auto"``: it runs eSPQsco, on every surface."""

from __future__ import annotations

import pytest

from repro.core.engine import ALGORITHM_CHOICES, EngineConfig, SPQEngine
from repro.datagen.synthetic import SyntheticDatasetConfig, generate_uniform
from repro.exceptions import InvalidQueryError
from repro.index.dataset_index import DatasetIndex
from repro.index.planner import BatchQuery
from repro.model.query import SpatialPreferenceQuery
from repro.planner import AUTO_ALGORITHM, AUTO_CHOICE, QueryPlanner
from repro.server import QueryService, ServiceConfig
from repro.sharding import ShardingConfig, ShardRouter
from repro.spatial.grid import UniformGrid

GRID = 10


@pytest.fixture(scope="module")
def planner_dataset():
    return generate_uniform(SyntheticDatasetConfig(num_objects=1_200, seed=71))


@pytest.fixture(scope="module")
def planner_index(planner_dataset):
    data, features = planner_dataset
    engine = SPQEngine(data, features)
    return engine.get_index(grid_size=12)


def make_query(k=10, radius=4.0, keywords=("w0001", "w0002")):
    return SpatialPreferenceQuery.create(k=k, radius=radius, keywords=set(keywords))


# --------------------------------------------------------------------- #
# the posting-list walk prepare reuses


class TestStatisticsCollection:
    def test_candidates_match_inverted_index(self, planner_index):
        query = make_query()
        hits, candidates = QueryPlanner().collect(planner_index, query, 12)
        assert candidates == planner_index.candidate_positions(query.keywords)
        assert hits == planner_index.keyword_hits(query.keywords, query.radius)

    def test_data_histogram_covers_every_object(self, planner_index):
        assert sum(planner_index.data_cell_counts.values()) == planner_index.num_data

    def test_zero_candidate_query(self, planner_index):
        hits, candidates = QueryPlanner().collect(
            planner_index, make_query(keywords=("zz-unknown",)), 12
        )
        assert hits == {} and candidates == []


# --------------------------------------------------------------------- #
# auto == espq-sco


#: Keys a fingerprint leaves out: the clocks, and the fields that name the
#: requested algorithm rather than the one that ran.
SKIPPED = {"wall_seconds", "index_build_seconds", "algorithm", "planned_algorithm"}


def tree(value):
    """A stats or payload tree as nested ``(key, value)`` lists: key order
    counts, the skipped keys do not."""
    if isinstance(value, dict):
        return [(key, tree(item)) for key, item in value.items() if key not in SKIPPED]
    return value


def engine_fingerprint(result):
    """Everything an ``auto`` run shares with an ``espq-sco`` run: ids,
    scores, the counter tree in key order, ``simulated_seconds``, the job
    name and every other stat but the clocks."""
    return (
        result.object_ids(),
        result.scores(),
        tree(result.stats["counters"]),
        result.stats["simulated_seconds"],
        result.stats["algorithm"],
        tree(result.stats),
    )


def payload_fingerprint(payload):
    """A response and its stats, key order included (a router's
    ``stats["algorithm"]`` is the requested name, so it is skipped too)."""
    return tree(payload)


def request(algorithm, keywords=("w0001", "w0002"), k=5):
    return {
        "keywords": list(keywords), "k": k, "radius": 4.0,
        "grid_size": GRID, "algorithm": algorithm, "stats": True,
    }


def run_execute(dataset, algorithm):
    engine = SPQEngine(*dataset)
    queries = [
        make_query(k=1, radius=8.0, keywords=("w0001",)),
        make_query(k=10, radius=2.0, keywords=("w0010", "w0020")),
        make_query(k=50, radius=5.0, keywords=("w0100", "w0200", "w0300")),
    ]
    runs = [[engine.execute(q, algorithm=algorithm, grid_size=GRID) for q in queries]
            for _ in range(2)]
    return runs[-1], [engine_fingerprint(result) for result in runs[-1]]


def run_execute_many(dataset, algorithm):
    engine = SPQEngine(*dataset)
    items = [
        BatchQuery(query=make_query(keywords=("w0003",)), algorithm=algorithm),
        BatchQuery(query=make_query(keywords=("w0004",)), algorithm="pspq"),
        make_query(keywords=("w0005",)),
    ]
    engine.execute_many(items, algorithm="espq-len", grid_size=GRID)
    results = engine.execute_many(items, algorithm="espq-len", grid_size=GRID)
    assert [r.stats["algorithm"] for r in results[1:]] == ["pSPQ", "eSPQlen"]
    assert not any("planned_algorithm" in r.stats for r in results[1:])
    return results[:1], [engine_fingerprint(result) for result in results]


def run_zero_match(dataset, algorithm):
    engine = SPQEngine(*dataset)
    result = engine.execute(
        make_query(keywords=("zz-missing",)), algorithm=algorithm, grid_size=GRID
    )
    assert result.object_ids() == []
    return [result], [engine_fingerprint(result)]


def run_service(dataset, algorithm, batch):
    config = ServiceConfig(engines=1, result_cache_capacity=0, default_grid_size=GRID)
    specs = [request(algorithm), request(algorithm, keywords=("w0007",), k=3)]
    with QueryService(*dataset, EngineConfig(grid_size=GRID), config) as service:
        for _ in range(2):
            payloads = service.submit_many(specs) if batch else [
                service.submit(spec) for spec in specs
            ]
    return payloads, [payload_fingerprint(payload) for payload in payloads]


def run_sharded(dataset, algorithm):
    with ShardRouter(
        *dataset,
        engine_config=EngineConfig(grid_size=GRID),
        service_config=ServiceConfig(engines=1, result_cache_capacity=0),
        sharding=ShardingConfig(shards=2),
    ) as router:
        for _ in range(2):
            payload = router.submit(request(algorithm))
    return [payload], [payload_fingerprint(payload)]


SURFACES = {
    "execute": run_execute,
    "execute_many": run_execute_many,
    "service-query": lambda dataset, algorithm: run_service(dataset, algorithm, False),
    "service-batch": lambda dataset, algorithm: run_service(dataset, algorithm, True),
    "sharded": run_sharded,
    "zero-match": run_zero_match,
}


def planned(answer):
    stats = getattr(answer, "stats", None)
    return (stats if stats is not None else answer).get("planned_algorithm")


class TestAutoIsEspqSco:
    """Each surface runs the same requests twice per algorithm (the second
    run is compared, so cache-hit flags agree) on fresh state."""

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_auto_answers_as_espq_sco(self, planner_dataset, surface):
        run = SURFACES[surface]
        auto_answers, auto = run(planner_dataset, AUTO_ALGORITHM)
        sco_answers, sco = run(planner_dataset, "espq-sco")
        assert auto == sco
        assert all(planned(answer) == "espq-sco" for answer in auto_answers)
        assert not any(planned(answer) for answer in sco_answers)

    def test_zero_match_answers_agree_across_algorithms(self, planner_dataset):
        """No feature carries the keyword: every algorithm returns the same
        empty answer with the same counters."""
        fingerprints = {
            algorithm: run_zero_match(planner_dataset, algorithm)[1][0][:4]
            for algorithm in ("auto", "pspq", "espq-len", "espq-sco")
        }
        assert len({repr(value) for value in fingerprints.values()}) == 1


class TestAutoAlgorithm:
    def test_auto_rejects_non_range_score_mode(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        with pytest.raises(InvalidQueryError, match="auto"):
            engine.execute(make_query(), algorithm="auto", score_mode="influence")

    def test_unknown_algorithm_message_lists_auto(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        with pytest.raises(InvalidQueryError, match="auto"):
            engine.execute(make_query(), algorithm="bogus")

    def test_planner_decisions_counted(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        engine.execute(make_query(), algorithm="auto", grid_size=10)
        engine.execute(make_query(), algorithm="auto", grid_size=10)
        assert engine.planner.decisions == 2
        assert engine.service_stats()["planner"] == {"decisions": 2}

    def test_fixed_algorithm_runs_are_not_planned(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        result = engine.execute(make_query(), algorithm="espq-len", grid_size=10)
        engine.execute_many([make_query()], algorithm="pspq", grid_size=10)
        assert engine.planner.decisions == 0
        assert "planned_algorithm" not in result.stats

    def test_auto_in_batch_with_per_item_overrides(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        items = [
            BatchQuery(query=make_query(keywords=("w0003",)), algorithm="auto"),
            BatchQuery(query=make_query(keywords=("w0004",)), algorithm="pspq"),
            make_query(keywords=("w0005",)),
        ]
        results = engine.execute_many(items, algorithm="espq-len", grid_size=GRID)
        assert results[0].stats["planned_algorithm"] == "espq-sco"
        assert results[0].stats["algorithm"] == "eSPQsco"
        assert "planned_algorithm" not in results[1].stats
        assert results[1].stats["algorithm"] == "pSPQ"
        assert results[2].stats["algorithm"] == "eSPQlen"

    def test_auto_equivalent_between_execute_and_execute_many(self, planner_dataset):
        data, features = planner_dataset
        engine = SPQEngine(data, features)
        query = make_query(k=3, radius=6.0, keywords=("w0008", "w0009"))
        single = engine.execute(query, algorithm="auto", grid_size=GRID)
        other = SPQEngine(data, features)
        batched = other.execute_many([query], algorithm="auto", grid_size=GRID)[0]
        assert single.object_ids() == batched.object_ids()
        assert single.scores() == batched.scores()
        assert single.stats["planned_algorithm"] == batched.stats["planned_algorithm"]


class TestPlannerConfiguration:
    def test_auto_is_an_algorithm_choice(self):
        assert AUTO_ALGORITHM in ALGORITHM_CHOICES


# --------------------------------------------------------------------- #
# a planner over a raw index (no engine involved)


class TestStandalonePlanner:
    def test_decide_over_fresh_index(self, planner_dataset):
        data, features = planner_dataset
        grid = UniformGrid.square(
            SPQEngine(data, features).extent, 8
        )
        index = DatasetIndex(data, features, grid)
        planner = QueryPlanner()
        stats = planner.collect(index, make_query(), 8)
        assert planner.decide(stats) == AUTO_CHOICE == "espq-sco"
        assert planner.decisions == 1
