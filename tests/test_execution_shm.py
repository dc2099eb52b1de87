"""Shared-memory segment lifecycle: refcounts, unlink-on-last-close, datasets."""

from __future__ import annotations

import glob
import random

import pytest

from repro.core.engine import EngineConfig, SPQEngine
from repro.execution.shm import (
    SEGMENT_PREFIX,
    attach_dataset,
    attach_segment,
    create_segment,
    live_segment_names,
    publish_dataset_segment,
    shared_memory_available,
)
from repro.index.columns import ColumnStore
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery

requires_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="shared memory unavailable here"
)


def shm_strays():
    """Names of ``repro_dp_*`` files currently visible under /dev/shm."""
    return sorted(
        path.rsplit("/", 1)[1] for path in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    )


def make_dataset(count: int = 60, seed: int = 5):
    rng = random.Random(seed)
    data = [
        DataObject(f"p{i}", rng.uniform(0, 20), rng.uniform(0, 20))
        for i in range(count)
    ]
    features = [
        FeatureObject(
            f"f{i}",
            rng.uniform(0, 20),
            rng.uniform(0, 20),
            frozenset(rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))),
        )
        for i in range(count)
    ]
    return data, features


@requires_shm
class TestSegmentLifecycle:
    def test_create_attach_round_trip(self):
        owner = create_segment(b"payload-bytes")
        try:
            attached = attach_segment(owner.name)
            try:
                assert bytes(attached.buf[:13]) == b"payload-bytes"
            finally:
                attached.release()
        finally:
            owner.release()
        assert shm_strays() == []

    def test_refcount_keeps_segment_open(self):
        segment = create_segment(b"x")
        segment.acquire()
        segment.release()
        assert not segment.closed
        assert segment.buf[0] == ord("x")
        segment.release()
        assert segment.closed

    def test_release_is_idempotent(self):
        segment = create_segment(b"x")
        segment.release()
        segment.release()
        assert segment.closed

    def test_acquire_after_close_raises(self):
        segment = create_segment(b"x")
        segment.release()
        with pytest.raises(ValueError, match="closed"):
            segment.acquire()

    def test_owner_release_unlinks_name(self):
        segment = create_segment(b"x")
        name = segment.name
        segment.release()
        with pytest.raises(FileNotFoundError):
            attach_segment(name)
        assert shm_strays() == []

    def test_attacher_release_does_not_unlink(self):
        owner = create_segment(b"still-here")
        attached = attach_segment(owner.name)
        attached.release()
        # The non-owner dropped out; the name and payload must survive.
        again = attach_segment(owner.name)
        assert bytes(again.buf[:10]) == b"still-here"
        again.release()
        owner.release()
        assert shm_strays() == []

    def test_memory_outlives_owner_until_last_attacher(self):
        # POSIX keeps the pages alive until the last close; only the name
        # dies with the owner -- the cluster dataset hand-off relies on it.
        owner = create_segment(b"hand-off")
        attached = attach_segment(owner.name)
        owner.release()
        assert bytes(attached.buf[:8]) == b"hand-off"
        attached.release()
        assert shm_strays() == []

    def test_live_segment_names_tracks_wrappers(self):
        assert live_segment_names() == []
        owner = create_segment(b"x")
        attached = attach_segment(owner.name)
        assert live_segment_names() == [owner.name]
        # The attacher leaving must not evict the owner from the registry.
        attached.release()
        assert live_segment_names() == [owner.name]
        owner.release()
        assert live_segment_names() == []

    def test_attach_unknown_name_raises(self):
        with pytest.raises(OSError):
            attach_segment(f"{SEGMENT_PREFIX}does_not_exist")


@requires_shm
class TestDatasetSegment:
    def test_publish_attach_round_trip(self):
        data, features = make_dataset(70)
        segment = publish_dataset_segment(data, features)
        try:
            rebuilt_data, rebuilt_features = attach_dataset(segment.name)
        finally:
            segment.release()
        assert rebuilt_data == data
        assert rebuilt_features == features
        assert [f.keywords for f in rebuilt_features] == [
            f.keywords for f in features
        ]
        assert shm_strays() == []

    def test_attach_rejects_reduce_plane(self):
        # A segment holding data columns but no feature columns is not a
        # dataset, whatever else it carries.
        data, _ = make_dataset(10)
        segment = create_segment(ColumnStore.from_datasets(data_objects=data).to_bytes())
        try:
            with pytest.raises(ValueError, match="dataset"):
                attach_dataset(segment.name)
        finally:
            segment.release()
        assert live_segment_names() == []


class TestEngineIntegration:
    QUERY = SpatialPreferenceQuery.create(k=5, radius=3.0, keywords={"a", "b"})

    def run_engine(self):
        data, features = make_dataset(200, seed=9)
        with SPQEngine(data, features, config=EngineConfig(grid_size=3)) as engine:
            engine.execute_many([self.QUERY], algorithm="pspq", grid_size=3)

    @requires_shm
    def test_serial_engine_leaves_no_segments(self):
        before = shm_strays()
        self.run_engine()
        assert live_segment_names() == []
        assert shm_strays() == before
