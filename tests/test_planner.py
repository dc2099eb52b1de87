"""Tests for ``algorithm="auto"``: on every surface it answers as the
centralized oracle does (ties included) with eSPQsco's scores, by one
global Lemma-3 scan."""

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
        hits = QueryPlanner().collect(planner_index, query, 12)
        assert hits == planner_index.keyword_hits(query.keywords, query.radius)
        assert sorted(hits) == planner_index.candidate_positions(query.keywords)

    def test_zero_candidate_query(self, planner_index):
        hits = QueryPlanner().collect(
            planner_index, make_query(keywords=("zz-unknown",)), 12
        )
        assert hits == {}


# --------------------------------------------------------------------- #
# auto == the centralized oracle (and eSPQsco's scores)


def make_request_query(spec):
    return make_query(k=spec["k"], radius=spec["radius"], keywords=spec["keywords"])


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
    return runs[-1], queries


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
    return results[:1], [items[0].query]


def run_zero_match(dataset, algorithm):
    engine = SPQEngine(*dataset)
    query = make_query(keywords=("zz-missing",))
    result = engine.execute(query, algorithm=algorithm, grid_size=GRID)
    assert result.object_ids() == []
    return [result], [query]


def run_service(dataset, algorithm, batch):
    config = ServiceConfig(engines=1, result_cache_capacity=0, default_grid_size=GRID)
    specs = [request(algorithm), request(algorithm, keywords=("w0007",), k=3)]
    with QueryService(*dataset, EngineConfig(grid_size=GRID), config) as service:
        for _ in range(2):
            payloads = service.submit_many(specs) if batch else [
                service.submit(spec) for spec in specs
            ]
    return payloads, [make_request_query(spec) for spec in specs]


def run_sharded(dataset, algorithm):
    with ShardRouter(
        *dataset,
        engine_config=EngineConfig(grid_size=GRID),
        service_config=ServiceConfig(engines=1, result_cache_capacity=0),
        sharding=ShardingConfig(shards=2),
    ) as router:
        for _ in range(2):
            payload = router.submit(request(algorithm))
    return [payload], [make_request_query(request(algorithm))]


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


def pairs(answer):
    """``(oid, score)`` of an engine result or a response payload."""
    if isinstance(answer, dict):
        return [(entry["oid"], entry["score"]) for entry in answer["results"]]
    return list(zip(answer.object_ids(), answer.scores()))


def answer_stats(answer):
    return answer.stats if not isinstance(answer, dict) else answer["stats"]


def oracle_prefix(dataset, query):
    """The centralized oracle's positively scored top-k, ties by oid."""
    result = SPQEngine(*dataset).execute(query, algorithm="centralized")
    return [(oid, score) for oid, score in pairs(result) if score > 0.0]


class TestAutoIsEspqSco:
    """Each surface runs the same requests twice per algorithm (the second
    run is compared, so cache-hit flags agree) on fresh state."""

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_auto_answers_as_espq_sco(self, planner_dataset, surface):
        """``auto`` is the centralized oracle's positively scored prefix,
        ids and scores, ties included; its scores are eSPQsco's.  It names
        the scan it ran, reports the work that scan did and no simulated
        job time."""
        run = SURFACES[surface]
        auto_answers, queries = run(planner_dataset, AUTO_ALGORITHM)
        sco_answers, _ = run(planner_dataset, "espq-sco")
        assert len(auto_answers) == len(queries) == len(sco_answers)
        for auto, sco, query in zip(auto_answers, sco_answers, queries):
            assert pairs(auto) == oracle_prefix(planner_dataset, query)
            assert [s for _, s in pairs(auto)] == [s for _, s in pairs(sco)]
            assert planned(auto) == AUTO_CHOICE
            stats = answer_stats(auto)
            assert stats["algorithm"] in (AUTO_CHOICE, AUTO_ALGORITHM)
            assert "simulated_seconds" not in stats
            assert "simulated_seconds" in answer_stats(sco)
            if "counters" in stats:
                assert stats["counters"] == {"work": {
                    "features_examined": stats["features_examined"],
                    "score_computations": stats["score_computations"],
                }}
        assert not any(planned(answer) for answer in sco_answers)

    def test_zero_match_answers_agree_across_algorithms(self, planner_dataset):
        """No feature carries the keyword: every algorithm returns the same
        empty answer; the named jobs agree on their counters and simulated
        time, and ``auto`` did no work."""
        answers = {
            algorithm: run_zero_match(planner_dataset, algorithm)[0][0]
            for algorithm in ("auto", "pspq", "espq-len", "espq-sco")
        }
        assert {repr(pairs(answer)) for answer in answers.values()} == {"[]"}
        jobs = {
            repr((answer.stats["counters"], answer.stats["simulated_seconds"]))
            for algorithm, answer in answers.items() if algorithm != "auto"
        }
        assert len(jobs) == 1
        assert answers["auto"].stats["counters"] == {
            "work": {"features_examined": 0, "score_computations": 0}
        }


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
        assert results[0].stats["planned_algorithm"] == AUTO_CHOICE
        assert results[0].stats["algorithm"] == AUTO_CHOICE
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
        planner.collect(index, make_query(), 8)
        assert planner.decide() == AUTO_CHOICE == "global-scan"
        assert planner.decisions == 1
