"""Compaction folds the delta into the cached index instead of rebuilding it.

``DatasetIndex.fold`` derives the compacted snapshot's index from the
retired one and the delta.  Its oracle is the fresh build a full swap
still runs: ``DatasetIndex(*materialize(base, delta), grid, scope)``.  A
fold is an index lifecycle event, so the bar is the field-for-field
equality of every structure a query reads -- data cells and counts,
feature columns, posting lists, vocabulary and every carried Lemma-1
list -- under appends, deletes, re-appends of a deleted oid, the loss of
every holder of a word, scoped and unscoped indexes, several cached grid
sizes and radii; then identity of the served answers across the four
algorithms and the retired index's release (reads racing the fold are
``test_ingest.py``'s ``test_queries_race_compaction``).
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import EngineConfig, SPQEngine
from repro.index.dataset_index import DatasetIndex
from repro.index.delta import dropped, materialize
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig
from repro.spatial.geometry import BoundingBox

from test_ingest import GRID, make_appends, make_dataset, make_service

EXTENT = BoundingBox(0.0, 0.0, 100.0, 100.0)
WORDS = ("cafe", "bar", "museum", "park", "pier", "zoo")
GRID_SIZES = (4, 7)
RADII = (3.0, 11.0, 26.0)


def index_fields(index: DatasetIndex) -> dict:
    """Every structure a query reads from an index, as comparable values."""
    return {
        "grid": (index.grid.extent, index.grid.cells_x, index.grid.cells_y),
        "scope": index.scope,
        "data": index._data_objects,
        "data_cells": index._data_cells,
        "features": index._feature_objects,
        "record_sizes": index._record_sizes,
        "keyword_counts": index._keyword_counts,
        "reach": index._reach,
        "sorted_reach": getattr(index, "_sorted_reach", None),
        "postings": dict(index.inverted_index._postings),
        "inverted_features": index.inverted_index._features,
        "inverted_len": len(index.inverted_index),
        "vocabulary_size": index.inverted_index.vocabulary_size,
        "stats": (index.stats.num_data, index.stats.num_features,
                  index.stats.vocabulary_size),
    }


def assert_fold_equals_fresh(folded: DatasetIndex, fresh: DatasetIndex, radii) -> None:
    assert index_fields(folded) == index_fields(fresh)
    # Every cached radius survives, in LRU order, re-keyed to the new
    # positions; each carried list is the one a fresh build computes.
    assert list(folded._feature_cells) == list(radii)
    for radius, cells in folded._feature_cells.items():
        assert cells == fresh.feature_cells(radius, sorted(cells))


# --------------------------------------------------------------------- #
# property: the folded index equals a fresh build of the materialized state


def _point(draw):
    return draw(st.floats(1.0, 99.0)), draw(st.floats(1.0, 99.0))


@st.composite
def fold_cases(draw):
    num_data = draw(st.integers(0, 14))
    num_features = draw(st.integers(1, 14))
    data = [DataObject(f"d{i}", *_point(draw)) for i in range(num_data)]
    features = [
        FeatureObject(
            f"f{i}", *_point(draw),
            keywords=draw(st.sets(st.sampled_from(WORDS), min_size=1, max_size=3)),
        )
        for i in range(num_features)
    ]
    delete_data = draw(st.sets(st.sampled_from([o.oid for o in data]))) if data else set()
    delete_features = draw(st.sets(st.sampled_from([f.oid for f in features])))
    if draw(st.booleans()):
        # Every holder of one word goes: the word must leave the vocabulary.
        word = draw(st.sampled_from(WORDS))
        delete_features |= {f.oid for f in features if word in f.keywords}
    if draw(st.booleans()):
        delete_features = set()  # a delta that deletes no feature
    # Re-appends reuse a deleted oid; fresh appends use new ones.
    reused_data = sorted(delete_data)[: draw(st.integers(0, 2))]
    reused_features = sorted(delete_features)[: draw(st.integers(0, 2))]
    append_data = [
        DataObject(oid, *_point(draw))
        for oid in reused_data + [f"ad{i}" for i in range(draw(st.integers(0, 4)))]
    ]
    append_features = [
        FeatureObject(
            oid, *_point(draw),
            keywords=draw(st.sets(st.sampled_from(WORDS), min_size=1, max_size=3)),
        )
        for oid in reused_features + [f"af{i}" for i in range(draw(st.integers(0, 4)))]
    ]
    scope = draw(st.sampled_from([None, BoundingBox(0.0, 0.0, 50.0, 100.0)]))
    return data, features, delete_data, delete_features, append_data, append_features, scope


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fold_cases())
def test_folded_index_equals_fresh_build(case):
    data, features, delete_data, delete_features, append_data, append_features, scope = case
    engine = SPQEngine(data, features, EngineConfig(grid_size=GRID_SIZES[0]),
                       extent=EXTENT, scope=scope)
    for grid_size in GRID_SIZES:
        index = engine.get_index(grid_size)
        for radius in RADII:
            index.feature_cells(radius)  # every position, at three radii
    base_data, base_features = list(data), list(features)
    # Deletes first, then appends: a batch may re-append a deleted oid.
    engine.apply_updates(delete_data_oids=delete_data, delete_feature_oids=delete_features)
    engine.apply_updates(append_data=append_data, append_features=append_features)
    snapshot = engine.delta.snapshot()
    final_data, final_features = materialize(base_data, base_features, snapshot)
    engine.compact()
    assert (engine.data_objects, engine.feature_objects) == (final_data, final_features)
    for grid_size in GRID_SIZES:
        folded = engine.get_index(grid_size)
        fresh = DatasetIndex(final_data, final_features,
                             engine.build_grid(grid_size), scope)
        assert_fold_equals_fresh(folded, fresh, RADII)


def block_fields(index: DatasetIndex) -> list:
    """Every data block a reducer reads from an index, as comparable values."""
    return [
        None if entry is None else (entry[0], entry[1].objs, list(entry[1].xs), list(entry[1].ys))
        for entry in map(index.partition_block, range(index.grid.num_cells))
    ]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fold_cases())
def test_folded_blocks_equal_fresh_build(case):
    """Blocks built before a compaction: a cell the delta left alone keeps
    its block and the memos of the features that survive; a touched cell's
    is rebuilt, equal to a fresh build's."""
    data, features, delete_data, delete_features, append_data, append_features, scope = case
    engine = SPQEngine(data, features, EngineConfig(grid_size=GRID_SIZES[0]),
                       extent=EXTENT, scope=scope)
    grid = engine.build_grid()
    index = engine.get_index()
    before = [index.partition_block(p) for p in range(grid.num_cells)]
    for entry in filter(None, before):
        for f in features:
            entry[1].rows_within(f.x, f.y, 30.0)
    base_data, base_features = list(data), list(features)
    engine.apply_updates(delete_data_oids=delete_data, delete_feature_oids=delete_features)
    engine.apply_updates(append_data=append_data, append_features=append_features)
    final_data, final_features = materialize(base_data, base_features, engine.delta.snapshot())
    engine.compact()
    folded = engine.get_index()
    assert block_fields(folded) == block_fields(DatasetIndex(final_data, final_features, grid))
    touched = {grid.locate(o.x, o.y) for o in data if o.oid in delete_data}
    touched |= {grid.locate(o.x, o.y) for o in append_data}
    kept = {(f.x, f.y, 30.0) for f in features} & {(f.x, f.y, 30.0) for f in final_features}
    for partition, entry in enumerate(before):
        if entry is not None and entry[0] not in touched:
            assert folded.partition_block(partition) is entry
            assert set(entry[1]._within) == kept


def test_feature_churn_keeps_memoizing_new_features():
    """Fold after fold with only features changing, a carried block
    memoizes the rows of each new feature: the memos of deleted features
    leave with them and give their room back."""
    data = [DataObject(f"d{i}", 10.0 + i, 10.0 + i) for i in range(3)]
    features = [FeatureObject("f0", 12.0, 12.0, keywords={"cafe"})]
    engine = SPQEngine(data, features, EngineConfig(grid_size=1), extent=EXTENT)
    block = engine.get_index().partition_block(0)[1]
    # Each memo holds all 3 rows: the block's room is 64 features' worth,
    # and 200 features pass through it.
    for number in range(1, 200):
        for f in engine.feature_objects:
            assert block.rows_within(f.x, f.y, 200.0) == (0, 1, 2)
        assert set(block._within) == {(f.x, f.y, 200.0) for f in engine.feature_objects}
        engine.apply_updates(
            delete_feature_oids={f"f{number - 1}"},
            append_features=[FeatureObject(f"f{number}", 12.0 + number / 10, 12.0,
                                           keywords={"cafe"})],
        )
        engine.compact()
        assert engine.get_index().partition_block(0)[1] is block


def test_a_fold_forgets_only_the_points_left_without_a_feature():
    """The memo of a point goes with its last feature: a deleted feature
    whose point a survivor shares keeps it, a point left empty -- by a
    tombstone or by an append deleted again before the compaction --
    gives its room back."""
    data = [DataObject(f"d{i}", 10.0 + i, 10.0 + i) for i in range(3)]
    features = [FeatureObject(oid, x, 12.0, keywords={"cafe"})
                for oid, x in (("f0", 12.0), ("f1", 12.0), ("f2", 13.0), ("f3", 14.0))]
    engine = SPQEngine(data, features, EngineConfig(grid_size=1), extent=EXTENT)
    block = engine.get_index().partition_block(0)[1]
    room = block._room
    withdrawn = FeatureObject("g0", 15.0, 12.0, keywords={"cafe"})
    engine.apply_updates(append_features=[withdrawn])
    engine.execute(SpatialPreferenceQuery.create(k=9, radius=200.0, keywords={"cafe"}),
                   algorithm="auto")
    assert set(block._within) == {(x, 12.0, 200.0) for x in (12.0, 13.0, 14.0, 15.0)}
    assert block._room == room - 4 * 3
    engine.apply_updates(delete_feature_oids={"f0", "f2", "g0"})
    engine.compact()
    assert engine.get_index().partition_block(0)[1] is block
    assert set(block._within) == {(12.0, 12.0, 200.0), (14.0, 12.0, 200.0)}
    assert block._room == room - 2 * 3


@given(st.lists(st.booleans(), max_size=40))
def test_dropped_is_what_survival_leaves_out(keep):
    kept = [position for position, alive in enumerate(keep) if alive]
    assert dropped(kept, len(keep)) == [p for p, alive in enumerate(keep) if not alive]


def test_fold_refuses_another_grid():
    data, features = make_dataset()
    engine = SPQEngine(data, features, EngineConfig(grid_size=GRID), extent=EXTENT)
    index = engine.get_index()
    engine.apply_updates(delete_feature_oids=[features[0].oid])
    other = SPQEngine(data, features, EngineConfig(grid_size=GRID),
                      extent=BoundingBox(0.0, 0.0, 200.0, 200.0))
    with pytest.raises(ValueError, match="grid"):
        index.fold(engine.delta.snapshot(), other.build_grid())


def test_compaction_retires_instead_of_rebuilding():
    data, features = make_dataset()
    engine = SPQEngine(data, features, EngineConfig(grid_size=GRID), extent=EXTENT)
    engine.get_index().feature_cells(8.0)
    new_data, new_features = make_appends(4, "x")
    engine.apply_updates(append_data=new_data, append_features=new_features)
    engine.compact()
    assert engine.delta.snapshot().is_empty
    assert engine.get_index().cached_radii == [8.0]
    # A full swap builds fresh: nothing is carried over it.
    engine.set_datasets(engine.data_objects, engine.feature_objects)
    assert engine.get_index().cached_radii == []


def test_two_compactions_without_a_read_build_fresh():
    """A retiree whose successor never read is two generations stale at
    the next compaction: dropped, not folded with the wrong delta."""
    data, features = make_dataset()
    engine = SPQEngine(data, features, EngineConfig(grid_size=GRID), extent=EXTENT)
    engine.get_index().feature_cells(8.0)
    for number, prefix in enumerate(("p", "q")):
        new_data, new_features = make_appends(3, prefix)
        engine.apply_updates(append_data=new_data, append_features=new_features,
                             delete_feature_oids=[features[number].oid])
        engine.compact()
    index = engine.get_index()
    assert index.cached_radii == []
    fresh = DatasetIndex(engine.data_objects, engine.feature_objects,
                         engine.build_grid(), None)
    assert index_fields(index) == index_fields(fresh)


# --------------------------------------------------------------------- #
# service level: carried Lemma-1 lists serve the first read, answers equal


#: A query none of the appended features below matches, so every
#: candidate of its first post-compaction read is a carried one.
WARM = {"keywords": ["museum"], "k": 12, "radius": 14.0, "grid_size": GRID,
        "stats": True}


def _appends(prefix):
    new_data, new_features = make_appends(6, prefix)
    return new_data, [
        FeatureObject(f.oid, f.x, f.y, keywords=("bar", "pier")) for f in new_features
    ]


@pytest.mark.parametrize("algorithm", ["pspq", "espq-len", "espq-sco", "auto"])
def test_first_read_after_compaction_hits_the_carried_radius(algorithm):
    data, features = make_dataset()
    spec = {**WARM, "algorithm": algorithm}
    with make_service((data, features), result_cache_capacity=0) as service:
        extent = service.engines[0].extent
        service.submit(spec)  # warm: index, radius lists, data blocks
        new_data, new_features = _appends("w")
        museum = [f.oid for f in features if "museum" in f.keywords]
        service.apply_objects(
            append_data=new_data, append_features=new_features,
            delete_data_oids=[data[3].oid, data[40].oid],
            # Shift every later position: a stale rows_within memo or
            # Lemma-1 key would show in pSPQ / eSPQlen.
            delete_feature_oids=[features[0].oid, museum[1]],
        )
        final = service.engines[0].materialize_datasets()
        service.compact()
        first = service.submit(spec)
    assert first["stats"]["index"]["radius_cache_hit"] is True
    assert first["stats"]["index"]["index_cache_hit"] is False
    with QueryService(
        *final,
        engine_config=EngineConfig(grid_size=GRID),
        config=ServiceConfig(engines=1, default_grid_size=GRID),
        extent=extent,
    ) as oracle:
        expected = oracle.submit(spec)
    assert first["results"] == expected["results"]


def test_retired_index_dies_after_the_first_read():
    with make_service(make_dataset(), result_cache_capacity=0) as service:
        service.submit(WARM)
        retired = weakref.ref(service.engines[0].get_index(GRID))
        service.apply_objects(delete_feature_oids=["f1"], append_data=_appends("r")[0])
        gc.disable()  # refcounting alone must free it: no cycle holds it
        try:
            service.compact()
            assert retired() is not None  # held for its successor
            service.submit(WARM)
            assert retired() is None
        finally:
            gc.enable()


def test_one_compaction_is_one_reset_on_a_pool():
    with make_service(make_dataset(), engines=2) as service:
        service.apply_objects(append_data=_appends("p")[0])
        service.compact()
        assert service.stats()["ingest"]["cumulative"]["resets"] == 1
        service.swap_datasets(*service.engines[0].materialize_datasets())
        assert service.stats()["ingest"]["cumulative"]["resets"] == 2
