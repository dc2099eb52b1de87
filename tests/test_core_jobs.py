"""Unit tests for the three SPQ MapReduce jobs (map emissions, sort order,
reduce behaviour, early-termination counters)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from object_oracle import ObjectESPQLenJob, ObjectESPQScoJob, ObjectPSPQJob
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob, TAG_DATA, TAG_FEATURE
from repro.execution.tasks import block_without
from repro.index.columns import DataBlock
from repro.mapreduce.counters import Counters
from repro.mapreduce.runtime import LocalJobRunner
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.text.similarity import jaccard


@pytest.fixture()
def grid():
    return UniformGrid.square(BoundingBox(0, 0, 10, 10), 4)


@pytest.fixture()
def query():
    return SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})


def _run(job_class, query, grid, data, features):
    job = job_class(query, grid)
    runner = LocalJobRunner(num_reducers=grid.num_cells)
    return runner.run(job, list(data) + list(features))


class TestMapEmissions:
    def test_data_object_emitted_once_with_cell_key(self, query, grid):
        job = PSPQJob(query, grid)
        counters = Counters()
        emitted = list(job.map(DataObject("p1", 4.6, 4.8), counters))
        assert len(emitted) == 1
        (key, value), = emitted
        assert key == (grid.locate(4.6, 4.8), TAG_DATA)
        assert value.oid == "p1"

    def test_irrelevant_feature_pruned_in_map(self, query, grid):
        job = PSPQJob(query, grid)
        counters = Counters()
        emitted = list(job.map(FeatureObject("f2", 5.0, 3.8, {"chinese"}), counters))
        assert emitted == []
        assert counters.get("spq", "features_pruned") == 1

    def test_relevant_feature_duplicated_per_lemma1(self, query, grid):
        job = PSPQJob(query, grid)
        counters = Counters()
        emitted = list(job.map(FeatureObject("f7", 3.0, 8.1, {"italian"}), counters))
        cells = sorted(key[0] for key, _ in emitted)
        assert cells == [9, 10, 13, 14]
        assert counters.get("spq", "feature_duplicates") == 3

    def test_unknown_record_type_rejected(self, query, grid):
        job = PSPQJob(query, grid)
        with pytest.raises(TypeError):
            list(job.map("not-an-object", Counters()))

    def test_espqlen_feature_key_carries_keyword_count(self, query, grid):
        job = ESPQLenJob(query, grid)
        feature = FeatureObject("f1", 2.8, 1.2, {"italian", "gourmet"})
        emitted = list(job.map(feature, Counters()))
        assert all(key[1] == 2 for key, _ in emitted)

    def test_espqsco_feature_key_carries_score(self, query, grid):
        job = ESPQScoJob(query, grid)
        feature = FeatureObject("f1", 2.8, 1.2, {"italian", "gourmet"})
        emitted = list(job.map(feature, Counters()))
        assert all(key[1] == pytest.approx(0.5) for key, _ in emitted)
        assert all(value[1] == pytest.approx(0.5) for _, value in emitted)


class TestKeyRouting:
    def test_partition_uses_cell_id_only(self, query, grid):
        job = PSPQJob(query, grid)
        assert job.partition((5, TAG_DATA), grid.num_cells) == job.partition(
            (5, TAG_FEATURE), grid.num_cells
        )

    def test_group_key_is_cell_id(self, query, grid):
        job = PSPQJob(query, grid)
        assert job.group_key((7, TAG_FEATURE)) == 7

    def test_pspq_sort_puts_data_before_features(self, query, grid):
        job = PSPQJob(query, grid)
        assert job.sort_key((3, TAG_DATA)) < job.sort_key((3, TAG_FEATURE))

    def test_espqlen_sort_orders_by_increasing_length(self, query, grid):
        job = ESPQLenJob(query, grid)
        keys = [(1, 0), (1, 2), (1, 10)]
        assert sorted(keys, key=job.sort_key) == keys

    def test_espqsco_sort_orders_by_decreasing_score(self, query, grid):
        job = ESPQScoJob(query, grid)
        data_key = (1, ESPQScoJob.DATA_SORT_VALUE)
        high = (1, 0.9)
        low = (1, 0.1)
        ordered = sorted([low, high, data_key], key=job.sort_key)
        assert ordered == [data_key, high, low]

    def test_estimated_record_size_positive(self, query, grid):
        job = ESPQScoJob(query, grid)
        feature = FeatureObject("f", 1, 1, {"italian"})
        assert job.estimated_record_size((1, 0.5), (feature, 0.5)) > 0
        assert job.estimated_record_size((1, 2.0), DataObject("p", 1, 1)) > 0


class TestReduceBehaviour:
    def test_all_three_jobs_return_paper_answer(
        self, query, grid, paper_data_objects, paper_feature_objects
    ):
        for job_class in (PSPQJob, ESPQLenJob, ESPQScoJob):
            result = _run(job_class, query, grid, paper_data_objects, paper_feature_objects)
            best = max(result.outputs, key=lambda row: row[2])
            assert best[1] == "p1"
            assert best[2] == pytest.approx(1.0)

    def test_per_cell_outputs_at_most_k(
        self, query, grid, paper_data_objects, paper_feature_objects
    ):
        for job_class in (PSPQJob, ESPQLenJob, ESPQScoJob):
            result = _run(job_class, query, grid, paper_data_objects, paper_feature_objects)
            per_cell: dict = {}
            for cell_id, oid, score in result.outputs:
                per_cell.setdefault(cell_id, []).append(oid)
            assert all(len(oids) <= query.k for oids in per_cell.values())

    def test_espqsco_examines_no_more_features_than_pspq(
        self, grid, paper_data_objects, paper_feature_objects
    ):
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        pspq = _run(PSPQJob, query, grid, paper_data_objects, paper_feature_objects)
        sco = _run(ESPQScoJob, query, grid, paper_data_objects, paper_feature_objects)
        assert sco.counters.get("work", "features_examined") <= pspq.counters.get(
            "work", "features_examined"
        )

    def test_espqsco_records_early_terminations(
        self, grid, paper_data_objects, paper_feature_objects
    ):
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        result = _run(ESPQScoJob, query, grid, paper_data_objects, paper_feature_objects)
        assert result.counters.get("spq", "early_terminations") >= 1

    def test_espqlen_terminates_early_when_bound_cannot_improve(self, grid):
        """One cell, a high-scoring short feature first, then many long ones:
        eSPQlen must stop before reading them all."""
        query = SpatialPreferenceQuery.create(k=1, radius=5.0, keywords={"kw"})
        data = [DataObject("p", 1.0, 1.0)]
        features = [FeatureObject("best", 1.1, 1.0, {"kw"})] + [
            FeatureObject(
                f"long{i}", 1.2, 1.0, frozenset({"kw"} | {f"junk{j}" for j in range(9)})
            )
            for i in range(50)
        ]
        small_grid = UniformGrid.square(BoundingBox(0, 0, 10, 10), 1)
        job = ESPQLenJob(query, small_grid)
        runner = LocalJobRunner(num_reducers=1)
        result = runner.run(job, data + features)
        examined = result.counters.get("work", "features_examined")
        # The bound for a 10-keyword feature is 0.1 < tau = 1.0, so the scan
        # stops at the first long feature.
        assert examined == 2
        assert result.counters.get("spq", "early_terminations") == 1

    def test_pspq_reads_every_shuffled_feature(
        self, grid, paper_data_objects, paper_feature_objects
    ):
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        result = _run(PSPQJob, query, grid, paper_data_objects, paper_feature_objects)
        # Features with the keyword: f1, f4, f7; f7 duplicated to 3 extra cells,
        # f1 and f4 to at least their own cell.
        examined = result.counters.get("work", "features_examined")
        shuffled_features = result.counters.get("spq", "features_kept") + result.counters.get(
            "spq", "feature_duplicates"
        )
        assert examined == shuffled_features

    def test_data_objects_counter(self, query, grid, paper_data_objects, paper_feature_objects):
        result = _run(PSPQJob, query, grid, paper_data_objects, paper_feature_objects)
        assert result.counters.get("spq", "data_objects") == len(paper_data_objects)


# --------------------------------------------------------------------- #
# The columnar reducers against the per-object loops (tests/object_oracle.py)

#: Half-unit lattice coordinates: distances land exactly on the radius.
LATTICE = st.integers(0, 8).map(lambda half: half / 2.0)
VOCABULARY = ("kw", "cafe", "park", "bar", "pier")
ORACLE_GRID = UniformGrid.square(BoundingBox(0, 0, 10, 10), 4)


#: Jaccard score against the query ``{"kw"}`` -> a keyword set scoring it.
KEYWORDS_SCORING = {
    0.0: frozenset({"cafe"}),
    0.25: frozenset({"kw", "cafe", "park", "bar"}),
    0.5: frozenset({"kw", "cafe"}),
    1.0: frozenset({"kw"}),
}


@st.composite
def cell_data(draw):
    """A reduce group's data objects as the shuffle hands them over.

    Oids come from a pool that may be smaller than the cell (one oid on
    several rows).  The indexed rows arrive as a block -- minus any data
    tombstones, as the data plane filters them -- then the live delta rows.
    """
    pool = draw(st.integers(1, 30))
    rows = draw(
        st.lists(st.tuples(st.integers(0, pool - 1), LATTICE, LATTICE), max_size=30)
    )
    data = [DataObject(f"o{oid}", x, y) for oid, x, y in rows]
    indexed = draw(st.integers(0, len(data)))
    tombstoned = draw(st.sets(st.sampled_from([obj.oid for obj in data] or ["none"])))
    values = []
    entry = block_without((0, DataBlock.from_objects(0, data[:indexed])), tombstoned)
    if entry is not None and len(entry[1]):
        values.append(entry[1])
    values.extend(data[indexed:])
    return values


def draw_query(draw, keywords):
    return SpatialPreferenceQuery.create(
        k=draw(st.integers(1, 12)),
        radius=draw(st.sampled_from([0.5, 1.0, 1.5, 2.5])),
        keywords=keywords,
    )


@st.composite
def espqsco_cells(draw):
    """One eSPQsco reduce group plus the query: the cell's data, then the
    features that survived feature tombstones, by score descending (zero
    scores included).  Each feature's keywords score exactly what it
    carries against the query ``{"kw"}``, as the oracle checks."""
    values = draw(cell_data())
    score = st.sampled_from(sorted(KEYWORDS_SCORING))
    scored = draw(
        st.lists(st.tuples(LATTICE, LATTICE, score, st.booleans()), max_size=15)
    )
    features = [
        (FeatureObject(f"f{i}", x, y, KEYWORDS_SCORING[score]), score)
        for i, (x, y, score, deleted) in enumerate(scored)
        if not deleted
    ]
    features.sort(key=lambda value: -value[1])
    return draw_query(draw, {"kw"}), values + features


@st.composite
def keyword_cells(draw, by_length):
    """One pSPQ reduce group plus the query -- or, ``by_length``, eSPQlen's.

    Features carry keyword sets over a five-word vocabulary, so Jaccard
    scores vary, tie and can be zero; each ships as ``(feature, score)``,
    the shape the map side hands every reducer.  The ones that survived
    feature tombstones follow the cell's data: in any order for pSPQ, by
    increasing keyword count (the composite key) for eSPQlen.
    """
    values = draw(cell_data())
    words = st.frozensets(st.sampled_from(VOCABULARY), min_size=1, max_size=4)
    drawn = draw(
        st.lists(st.tuples(LATTICE, LATTICE, words, st.booleans()), max_size=15)
    )
    features = [
        FeatureObject(f"f{i}", x, y, keywords)
        for i, (x, y, keywords, deleted) in enumerate(drawn)
        if not deleted
    ]
    if by_length:
        features.sort(key=lambda feature: feature.keyword_count)
    keywords = draw(st.frozensets(st.sampled_from(VOCABULARY), min_size=1, max_size=3))
    shipped = [(feature, jaccard(feature.keywords, keywords)) for feature in features]
    return draw_query(draw, keywords), values + shipped


def _counter_log(counters):
    """Counter values in key creation order, groups and names both."""
    return [(group, list(names.items())) for group, names in counters.as_dict().items()]


def assert_same_reduce(job, oracle, values):
    """``job`` reduces ``values`` exactly as the per-object ``oracle`` does."""
    columnar, objects = Counters(), Counters()
    got = list(job.reduce(3, iter(values), columnar))
    want = list(oracle.reduce(3, iter(values), objects))
    assert got == want
    assert _counter_log(columnar) == _counter_log(objects)


@pytest.mark.parametrize("score_mode", ("range", "influence"))
@settings(max_examples=300, deadline=None)
@given(cell=keyword_cells(by_length=False))
def test_pspq_columnar_reduce_matches_the_per_object_loop(score_mode, cell):
    query, values = cell
    assert_same_reduce(
        PSPQJob(query, ORACLE_GRID, score_mode=score_mode),
        ObjectPSPQJob(query, ORACLE_GRID, score_mode=score_mode),
        values,
    )


@settings(max_examples=300, deadline=None)
@given(keyword_cells(by_length=True))
def test_espqlen_columnar_reduce_matches_the_per_object_loop(cell):
    query, values = cell
    assert_same_reduce(
        ESPQLenJob(query, ORACLE_GRID), ObjectESPQLenJob(query, ORACLE_GRID), values
    )


@settings(max_examples=300, deadline=None)
@given(espqsco_cells())
def test_espqsco_columnar_reduce_matches_the_per_object_loop(cell):
    query, values = cell
    assert_same_reduce(
        ESPQScoJob(query, ORACLE_GRID), ObjectESPQScoJob(query, ORACLE_GRID), values
    )
