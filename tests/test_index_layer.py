"""Tests for the reusable index layer (``repro.index``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.centralized import dataset_extent
from repro.core.jobs import ESPQLenJob, ESPQScoJob, PSPQJob
from repro.index.cache import IndexCache
from repro.index.dataset_index import DatasetIndex
from repro.index.delta import DeltaSnapshot, with_delta_appends
from repro.index.planner import BatchQuery, plan_batch
from repro.index.records import MapSplit
from repro.exceptions import InvalidQueryError
from repro.mapreduce.runtime import LocalJobRunner
from repro.model.objects import FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner
from repro.text.inverted_index import PositionalInvertedIndex
from repro.text.similarity import jaccard


@pytest.fixture()
def grid():
    return UniformGrid.unit(4)


@pytest.fixture()
def index(small_uniform_dataset):
    data, features = small_uniform_dataset
    grid = UniformGrid.square(dataset_extent(data, features), 8)
    return DatasetIndex(data, features, grid)


class TestPositionalInvertedIndex:
    def test_positions_follow_insertion_order(self):
        features = [
            FeatureObject("f1", 0.1, 0.1, frozenset({"a", "b"})),
            FeatureObject("f2", 0.2, 0.2, frozenset({"b"})),
            FeatureObject("f3", 0.3, 0.3, frozenset({"a"})),
        ]
        index = PositionalInvertedIndex(features)
        assert index.positions("a") == [0, 2]
        assert index.positions("b") == [0, 1]
        assert index.positions("zzz") == []

    def test_candidate_positions_are_sorted_and_deduplicated(self):
        features = [
            FeatureObject("f1", 0.1, 0.1, frozenset({"a", "b"})),
            FeatureObject("f2", 0.2, 0.2, frozenset({"b"})),
            FeatureObject("f3", 0.3, 0.3, frozenset({"c"})),
        ]
        index = PositionalInvertedIndex(features)
        assert index.candidate_positions({"a", "b"}) == [0, 1]
        assert index.candidate_positions({"c", "zzz"}) == [2]

    def test_equal_duplicate_features_keep_distinct_positions(self):
        # A set-based candidate lookup would silently collapse these.
        feature = FeatureObject("f1", 0.1, 0.1, frozenset({"a"}))
        index = PositionalInvertedIndex([feature, feature])
        assert index.candidate_positions({"a"}) == [0, 1]


    def test_one_posting_structure_and_object_lookups_agree(self, small_uniform_dataset):
        from repro.text.inverted_index import InvertedIndex

        _, features = small_uniform_dataset
        positional = PositionalInvertedIndex(features)
        plain = InvertedIndex(features)
        # Positions are the only postings held: no feature is stored per keyword.
        assert all(
            isinstance(posting, int)
            for postings in positional._postings.values()
            for posting in postings
        )
        assert not hasattr(positional, "_keyword_positions")
        assert len(positional) == len(plain) == len(features)
        assert positional.vocabulary_size == plain.vocabulary_size
        keywords = sorted({word for feature in features for word in feature.keywords})
        for keyword in keywords[:25] + ["no-such-word"]:
            assert positional.postings(keyword) == plain.postings(keyword)
            assert positional.document_frequency(keyword) == plain.document_frequency(keyword)
        query = frozenset(keywords[:3])
        assert positional.candidates(query) == plain.candidates(query)
        assert positional.scored_candidates(query) == plain.scored_candidates(query)


class TestDatasetIndex:
    def test_candidates_match_pruning_rule(self, index, small_uniform_dataset):
        _, features = small_uniform_dataset
        keywords = frozenset({"w0001", "w0042"})
        expected = [
            position
            for position, feature in enumerate(features)
            if feature.has_common_keyword(keywords)
        ]
        assert index.candidate_positions(keywords) == expected

    def test_data_cells_match_partitioner(self, index, small_uniform_dataset):
        data, _ = small_uniform_dataset
        partitioner = GridPartitioner(index.grid, radius=0.0)
        for position in (0, 17, len(data) - 1):
            assert index.data_cell_of(position) == partitioner.assign_data_object(
                data[position]
            )

    def test_feature_cells_cached_per_radius(self, index, small_uniform_dataset):
        _, features = small_uniform_dataset
        assert index.cached_radii == []
        first = index.feature_cells(2.0)
        assert index.cached_radii == [2.0]
        assert index.feature_cells(2.0) is first  # cache hit returns same object
        index.feature_cells(5.0)
        assert index.cached_radii == [2.0, 5.0]
        partitioner = GridPartitioner(index.grid, radius=2.0)
        assert list(first[3]) == partitioner.assign_feature_object(features[3])

    def test_feature_cells_lazy_for_requested_positions(self, index):
        cache = index.feature_cells(1.5, positions=[4, 9])
        assert set(cache) == {4, 9}  # only the touched features were assigned
        again = index.feature_cells(1.5, positions=[9, 11])
        assert again is cache
        assert set(cache) == {4, 9, 11}

    def test_prepare_reports_pruning_and_order(self, index):
        query = SpatialPreferenceQuery.create(
            k=5, radius=2.0, keywords={"w0001", "w0042"}
        )
        prepared = index.prepare(query)
        split = prepared.split
        assert isinstance(split, MapSplit)
        assert prepared.num_candidates == len(split) == len(split.features)
        assert prepared.num_pruned == index.num_features - prepared.num_candidates
        positions = index.candidate_positions(query.keywords)
        assert positions
        assert list(split.features) == [index._feature_objects[p] for p in positions]
        cached = index.feature_cells(query.radius)
        assert list(split.cells) == [cached[p] for p in positions]
        assert not split.data and not split.data_cells

    def test_radius_cache_is_an_lru_over_radii(self, index):
        """One ``{position -> cells}`` dict per distinct radius used to live
        as long as the index; a sweep of ad-hoc radii now keeps the last
        ``MAX_CACHED_RADII`` and a radius re-used inside that window stays
        a hit (and stays the most recently used)."""
        from repro.index.dataset_index import MAX_CACHED_RADII

        def query(radius):
            return SpatialPreferenceQuery.create(
                k=5, radius=radius, keywords={"w0001", "w0042"}
            )

        hot = query(0.5)
        assert index.prepare(hot).radius_cache_hit is False
        for step in range(100):
            assert index.prepare(query(1.0 + step / 100)).radius_cache_hit is False
            if step % (MAX_CACHED_RADII - 1) == 0:
                assert index.prepare(hot).radius_cache_hit is True
            assert len(index._feature_cells) <= MAX_CACHED_RADII
        assert len(index.cached_radii) == MAX_CACHED_RADII
        assert index.stats.radii_cached == index.cached_radii
        assert 0.5 in index.cached_radii and 1.0 not in index.cached_radii
        # An evicted radius is simply recomputed.
        assert index.prepare(query(1.0)).radius_cache_hit is False
        assert index.prepare(query(1.0)).radius_cache_hit is True

    def test_radius_cache_hit_flag(self, index):
        query = SpatialPreferenceQuery.create(k=5, radius=3.0, keywords={"w0001"})
        assert index.prepare(query).radius_cache_hit is False
        assert index.prepare(query).radius_cache_hit is True


class TestPreloadedShuffle:
    def test_preloaded_run_equals_plain_run(self, paper_data_objects, paper_feature_objects):
        from repro.spatial.geometry import BoundingBox

        grid = UniformGrid.square(BoundingBox(0.0, 0.0, 10.0, 10.0), 3)
        query = SpatialPreferenceQuery.create(k=2, radius=1.5, keywords={"italian"})
        index = DatasetIndex(paper_data_objects, paper_feature_objects, grid)

        plain_job = ESPQScoJob(query, grid)
        runner = LocalJobRunner(num_reducers=grid.num_cells)
        plain = runner.run(
            plain_job, list(paper_data_objects) + list(paper_feature_objects)
        )

        batch_job = ESPQScoJob(query, grid)
        prepared = index.prepare(query)
        batch = runner.run(
            batch_job, prepared.split, preloaded=index.data_shuffle(batch_job)
        )
        assert sorted(batch.outputs) == sorted(plain.outputs)

    def test_one_plane_serves_all_three_job_classes(
        self, paper_data_objects, paper_feature_objects
    ):
        from repro.spatial.geometry import BoundingBox

        grid = UniformGrid.square(BoundingBox(0.0, 0.0, 10.0, 10.0), 3)
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        index = DatasetIndex(paper_data_objects, paper_feature_objects, grid)
        plane = index.data_shuffle(ESPQScoJob(query, grid))
        assert index.data_shuffle(PSPQJob(query, grid)) is plane
        assert index.data_shuffle(ESPQLenJob(query, grid)) is plane
        # ... and hands out the index's own cached blocks, not copies.
        held = [p for p in range(grid.num_cells) if plane.block(p) is not None]
        assert held
        for partition in held:
            assert plane.reduce_block(partition) is index.partition_block(partition)
        assert sum(len(plane.block(p)[1]) for p in held) == len(paper_data_objects)

    def test_preloaded_partition_count_validated(self, paper_data_objects, paper_feature_objects):
        from repro.exceptions import JobConfigurationError
        from repro.spatial.geometry import BoundingBox

        grid = UniformGrid.square(BoundingBox(0.0, 0.0, 10.0, 10.0), 3)
        query = SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})
        index = DatasetIndex(paper_data_objects, paper_feature_objects, grid)
        job = ESPQScoJob(query, grid)
        shuffle = index.data_shuffle(job)
        wrong_runner = LocalJobRunner(num_reducers=grid.num_cells + 1)
        with pytest.raises(JobConfigurationError):
            wrong_runner.run(job, [], preloaded=shuffle)


class TestIndexCache:
    def _entry(self):
        # The cache never inspects its values, so a sentinel object suffices.
        return object()

    def test_hit_miss_accounting(self):
        cache = IndexCache(capacity=2)
        value, hit = cache.get_or_build("a", self._entry)
        assert hit is False
        again, hit = cache.get_or_build("a", self._entry)
        assert hit is True and again is value
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = IndexCache(capacity=2)
        cache.get_or_build("a", self._entry)
        cache.get_or_build("b", self._entry)
        cache.get_or_build("a", self._entry)  # refresh "a"
        cache.get_or_build("c", self._entry)  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_single_and_all(self):
        cache = IndexCache(capacity=4)
        cache.get_or_build("a", self._entry)
        cache.get_or_build("b", self._entry)
        assert cache.invalidate("a") == 1
        assert cache.invalidate("a") == 0
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)

    def test_concurrent_same_key_builds_once(self):
        import threading

        cache = IndexCache(capacity=4)
        release = threading.Event()
        builds = []

        def slow_build():
            builds.append(threading.current_thread().name)
            release.wait(5)
            return object()

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_build("k", slow_build))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # Hits and builds of OTHER keys must not block behind the build.
        other, hit = cache.get_or_build("other", self._entry)
        assert hit is False
        release.set()
        for thread in threads:
            thread.join()
        assert len(builds) == 1  # exactly one thread paid the build
        values = {id(value) for value, _ in results}
        assert len(values) == 1  # everyone got the same index
        assert sum(1 for _, was_hit in results if not was_hit) == 1

    def test_failed_build_releases_waiters(self):
        cache = IndexCache(capacity=4)

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", boom)
        # The latch was cleaned up: the next caller builds fresh.
        value, hit = cache.get_or_build("k", self._entry)
        assert hit is False and value is not None


class TestPlanner:
    def test_groups_by_grid_and_mode_preserving_positions(self):
        q = SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"a"})
        items = [
            BatchQuery(q, grid_size=20),
            q,
            BatchQuery(q, grid_size=20, algorithm="pspq"),
            BatchQuery(q, score_mode="influence", algorithm="pspq"),
        ]
        plan = plan_batch(items, "espq-sco", 10, "range")
        assert [p.position for p in plan] == [3, 1, 0, 2]
        assert plan[0].score_mode == "influence"
        assert plan[1].grid_size == 10
        assert plan[2].grid_size == 20 and plan[2].algorithm == "espq-sco"

    def test_rejects_foreign_items(self):
        with pytest.raises(InvalidQueryError):
            plan_batch(["not a query"], "espq-sco", 10, "range")

    def test_rejects_invalid_grid_size_override(self):
        q = SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"a"})
        with pytest.raises(InvalidQueryError, match="grid_size"):
            plan_batch([BatchQuery(q, grid_size=0)], "espq-sco", 10, "range")
        with pytest.raises(InvalidQueryError, match="grid_size"):
            plan_batch([q], "espq-sco", "20", "range")


class TestMapSplit:
    @staticmethod
    def split_of(data, features):
        """Every feature as a candidate, ``data`` riding as delta appends."""
        from repro.spatial.geometry import BoundingBox

        grid = UniformGrid.square(BoundingBox(0.0, 0.0, 10.0, 10.0), 3)
        query = SpatialPreferenceQuery.create(
            k=1, radius=1.0, keywords=set().union(*(f.keywords for f in features))
        )
        split = DatasetIndex([], features, grid).prepare(query).split
        return with_delta_appends(split, DeltaSnapshot(data=tuple(data)), query, grid)[0]

    def test_split_is_frozen(self, paper_feature_objects):
        split = self.split_of([], paper_feature_objects[:1])
        with pytest.raises(AttributeError):
            split.cells = [(4,)]

    def test_slices_walk_data_rows_then_feature_rows(
        self, paper_data_objects, paper_feature_objects
    ):
        data, features = paper_data_objects[:3], paper_feature_objects[:5]
        split = self.split_of(data, features)
        assert len(split) == 8
        assert split.slices(8) == [split] and split.slices(100) == [split]
        assert MapSplit().slices(4) == []
        with pytest.raises(ValueError, match="feature columns"):
            MapSplit(features, split.cells[:5])
        for size in (1, 2, 3, 5, 7):
            parts = split.slices(size)
            assert [len(part) for part in parts] == [
                min(size, 8 - start) for start in range(0, 8, size)
            ]
            for column in ("features", "cells", "scores", "sizes", "data", "data_cells"):
                joined = [row for part in parts for row in getattr(part, column)]
                assert joined == list(getattr(split, column)), (size, column)
            # A task's slice keeps the logical order: no feature row before
            # a data row anywhere in the walk.
            kinds = "".join("d" * len(p.data) + "f" * len(p.features) for p in parts)
            assert kinds == "ddd" + "fffff"


@st.composite
def scored_splits(draw):
    """Base features, a query, feature tombstones and delta appends."""
    words = st.frozensets(st.sampled_from("abcdefgh"), max_size=6)
    point = st.floats(0.0, 1.0)

    def features(prefix):
        return [
            FeatureObject(f"{prefix}{i}", x, y, keywords)
            for i, (x, y, keywords) in enumerate(
                draw(st.lists(st.tuples(point, point, words), max_size=25))
            )
        ]

    query = SpatialPreferenceQuery.create(
        k=3,
        radius=draw(st.sampled_from([0.05, 0.2])),
        keywords=draw(st.frozensets(st.sampled_from("abcdefghij"), min_size=1, max_size=4)),
    )
    base = features("f")
    deleted = draw(st.sets(st.integers(0, max(len(base) - 1, 0))))
    return query, base, deleted, features("n")


@settings(max_examples=150, deadline=None)
@given(scored_splits(), st.integers(1, 9))
def test_posting_hit_scores_are_jaccards_floats(case, slice_size):
    """Scores counted from the postings are ``jaccard``'s floats, bit for bit:
    base candidates, candidates left by feature tombstones (as the engine
    drops them), appended features and every task slice of the split."""
    query, base, deleted, appended = case
    grid = UniformGrid.unit(4)
    index = DatasetIndex([], base, grid)
    hits = index.keyword_hits(query.keywords)
    candidates = [p for p in index.candidate_positions(query.keywords) if p not in deleted]
    split = index.prepare(query, candidates=candidates, hits=hits).split
    split, _ = with_delta_appends(split, DeltaSnapshot(features=tuple(appended)), query, grid)

    expected = [
        f for f in [base[p] for p in candidates] + appended if f.keywords & query.keywords
    ]
    assert list(split.features) == expected
    want = [jaccard(f.keywords, query.keywords).hex() for f in expected]
    assert [score.hex() for score in split.scores] == want
    sliced = [score for part in split.slices(slice_size) for score in part.scores]
    assert [score.hex() for score in sliced] == want
