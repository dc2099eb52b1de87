"""Property-based tests (hypothesis) for the core invariants.

The most important property of the whole reproduction is algorithm
equivalence: for *any* dataset, query and grid configuration, the three
distributed algorithms must return the same top-k score profile as the
centralized oracle.  Additional properties cover the Jaccard bound (Eq. 1),
grid geometry, Lemma 1 duplication, and the top-k list.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from repro.paper.analysis import duplication_factor, max_duplication_factor
from repro.core.centralized import CentralizedSPQ
from repro.core.engine import SPQEngine
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.model.result import TopKList
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid import UniformGrid
from repro.spatial.partitioning import GridPartitioner
from repro.text.similarity import jaccard, jaccard_upper_bound, upper_bound_for_length

# --------------------------------------------------------------------- #
# strategies

WORDS = st.sampled_from([f"kw{i}" for i in range(12)])
KEYWORD_SETS = st.frozensets(WORDS, min_size=1, max_size=8)
COORDS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw, max_data=30, max_features=30):
    num_data = draw(st.integers(min_value=1, max_value=max_data))
    num_features = draw(st.integers(min_value=1, max_value=max_features))
    data = [
        DataObject(f"p{i}", draw(COORDS), draw(COORDS)) for i in range(num_data)
    ]
    features = [
        FeatureObject(f"f{i}", draw(COORDS), draw(COORDS), draw(KEYWORD_SETS))
        for i in range(num_features)
    ]
    return data, features


@st.composite
def queries(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    radius = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    keywords = draw(KEYWORD_SETS)
    return SpatialPreferenceQuery(k=k, radius=radius, keywords=keywords)


# --------------------------------------------------------------------- #
# Jaccard and the length bound


class TestJaccardProperties:
    @given(left=KEYWORD_SETS, right=KEYWORD_SETS)
    def test_jaccard_in_unit_interval(self, left, right):
        assert 0.0 <= jaccard(left, right) <= 1.0

    @given(left=KEYWORD_SETS, right=KEYWORD_SETS)
    def test_jaccard_symmetric(self, left, right):
        assert jaccard(left, right) == pytest.approx(jaccard(right, left))

    @given(keywords=KEYWORD_SETS)
    def test_jaccard_identity(self, keywords):
        assert jaccard(keywords, keywords) == pytest.approx(1.0)

    @given(feature=KEYWORD_SETS, query=KEYWORD_SETS)
    def test_upper_bound_dominates_jaccard(self, feature, query):
        """Equation 1 is a true upper bound for any pair of keyword sets."""
        assert jaccard_upper_bound(feature, query) >= jaccard(feature, query) - 1e-12

    @given(query_len=st.integers(min_value=1, max_value=20))
    def test_upper_bound_monotone_in_feature_length(self, query_len):
        bounds = [upper_bound_for_length(n, query_len) for n in range(0, 40)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


# --------------------------------------------------------------------- #
# grid geometry and duplication


class TestGridProperties:
    @given(
        x=COORDS,
        y=COORDS,
        cells=st.integers(min_value=1, max_value=25),
    )
    def test_located_cell_contains_point(self, x, y, cells):
        grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), cells)
        cell_id = grid.locate(x, y)
        assert grid.cell_box(cell_id).contains(x, y)

    @given(
        x=COORDS,
        y=COORDS,
        cells=st.integers(min_value=1, max_value=15),
        radius=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
    def test_lemma1_duplication_exact(self, x, y, cells, radius):
        """A feature is assigned to exactly the cells with MINDIST <= r."""
        grid = UniformGrid.square(BoundingBox(0, 0, 100, 100), cells)
        partitioner = GridPartitioner(grid, radius)
        assigned = set(partitioner.assign_feature_object(FeatureObject("f", x, y, {"kw0"})))
        expected = {
            cell_id
            for cell_id in range(1, grid.num_cells + 1)
            if grid.min_distance(cell_id, x, y) <= radius
        }
        assert assigned == expected

    @given(
        ratio=st.floats(min_value=2.0, max_value=1000.0, allow_nan=False),
    )
    def test_duplication_factor_bounds(self, ratio):
        factor = duplication_factor(cell_side=ratio, radius=1.0)
        assert 1.0 <= factor <= max_duplication_factor() + 1e-9


# --------------------------------------------------------------------- #
# TopKList invariants


class TestTopKProperties:
    @given(
        scores=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                        min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_topk_matches_sorted_prefix(self, scores, k):
        top = TopKList(k)
        for index, score in enumerate(scores):
            top.offer(DataObject(f"o{index}", 0.0, 0.0), score)
        expected = sorted(scores, reverse=True)[:k]
        # Exact: result identity is bit-for-bit, so no tolerance.
        assert [entry.score for entry in top.top()] == expected

    @given(
        scores=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                        min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_threshold_never_decreases(self, scores, k):
        top = TopKList(k)
        previous = 0.0
        for index, score in enumerate(scores):
            top.offer(DataObject(f"o{index}", 0.0, 0.0), score)
            assert top.threshold >= previous - 1e-12
            previous = top.threshold


# --------------------------------------------------------------------- #
# the headline property: algorithm equivalence


class TestAlgorithmEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets(), query=queries(), grid_size=st.integers(min_value=1, max_value=6))
    def test_distributed_algorithms_match_oracle(self, dataset, query, grid_size):
        data, features = dataset
        oracle = CentralizedSPQ(data, features).evaluate_exhaustive(query)
        oracle_positive = [s for s in oracle.scores() if s > 0]
        engine = SPQEngine(data, features)
        for algorithm in ("pspq", "espq-len", "espq-sco"):
            result = engine.execute(query, algorithm=algorithm, grid_size=grid_size)
            scores = result.scores()
            # The distributed algorithms report every positively-scored object
            # of the true top-k, with identical scores, in the same order.
            assert scores[: len(oracle_positive)] == pytest.approx(oracle_positive)
            # And they never report anything beyond the true top-k scores.
            assert len(scores) <= query.k

    @settings(max_examples=25, deadline=None)
    @given(dataset=datasets(), query=queries(),
           grid_a=st.integers(min_value=1, max_value=5),
           grid_b=st.integers(min_value=6, max_value=12))
    def test_result_scores_invariant_to_grid_size(self, dataset, query, grid_a, grid_b):
        data, features = dataset
        engine = SPQEngine(data, features)
        first = engine.execute(query, algorithm="espq-sco", grid_size=grid_a)
        second = engine.execute(query, algorithm="espq-sco", grid_size=grid_b)
        assert first.scores() == pytest.approx(second.scores())

    @settings(max_examples=25, deadline=None)
    @given(dataset=datasets(), query=queries())
    def test_early_termination_never_examines_more_than_pspq(self, dataset, query):
        data, features = dataset
        engine = SPQEngine(data, features)
        pspq = engine.execute(query, algorithm="pspq", grid_size=4)
        sco = engine.execute(query, algorithm="espq-sco", grid_size=4)
        assert sco.stats["features_examined"] <= pspq.stats["features_examined"]
