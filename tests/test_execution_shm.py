"""The cluster dataset hand-off: one anonymous memory file, inherited by fd.

``repro.cluster.spawn.publish_dataset`` writes the datasets as one
``marshal`` of plain rows into a ``memfd``; ``attach_dataset`` maps it
read-only, builds the objects and closes the descriptor.  The file has no
name, so the only lifecycle left is the kernel's: the memory lives while
some descriptor or mapping does.  ("Segment" in the class names is the hand-off's old name.)
"""

from __future__ import annotations

import marshal
import mmap
import os
import random
import tempfile

import pytest

from invariants import dataset_memfds, shm_strays
from repro.cluster.spawn import attach_dataset, publish_dataset
from repro.core.engine import EngineConfig, SPQEngine
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery

requires_memfd = pytest.mark.skipif(
    not hasattr(os, "memfd_create"), reason="os.memfd_create unavailable here"
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


def read_all(fd: int) -> bytes:
    with mmap.mmap(fd, 0, access=mmap.ACCESS_READ) as mapping:
        return bytes(mapping)


def published(data, features) -> bytes:
    """The bytes ``publish_dataset`` writes for the datasets."""
    fd = publish_dataset(data, features)
    try:
        return read_all(fd)
    finally:
        os.close(fd)


def memfd_holding(payload: bytes) -> int:
    fd = os.memfd_create("repro-dataset")
    os.write(fd, payload)
    return fd


def is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@requires_memfd
class TestSegmentLifecycle:
    def test_create_attach_round_trip(self):
        data, features = make_dataset(20)
        fd = publish_dataset(data, features)
        try:
            assert marshal.loads(read_all(fd)) == (
                [(obj.oid, obj.x, obj.y) for obj in data],
                [(f.oid, f.x, f.y, f.keywords) for f in features],
            )
        finally:
            os.close(fd)
        assert dataset_memfds() == []

    def test_refcount_keeps_segment_open(self):
        # The kernel counts mappings as well as descriptors: a node may
        # close its fd right after mapping and still read every byte.
        fd = memfd_holding(b"mapped")
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        os.close(fd)
        try:
            assert mapping[:6] == b"mapped"
        finally:
            mapping.close()
        assert dataset_memfds() == []

    def test_owner_release_unlinks_name(self):
        # Nothing is left to unlink: once the last descriptor closes, no
        # name exists anywhere -- not in /dev/shm, not in the fd table.
        fd = publish_dataset(*make_dataset(5))
        assert len(dataset_memfds()) == 1
        os.close(fd)
        assert dataset_memfds() == []
        assert shm_strays() == []

    def test_attacher_release_does_not_unlink(self):
        # One node attaching (and closing its copy) leaves the data for
        # every other holder.
        data, features = make_dataset(30)
        fd = publish_dataset(data, features)
        try:
            assert attach_dataset(os.dup(fd)) == (data, features)
            assert attach_dataset(os.dup(fd)) == (data, features)
        finally:
            os.close(fd)

    def test_memory_outlives_owner_until_last_attacher(self):
        # The spawner closes its descriptor right after the last launch;
        # the nodes' inherited copies keep the memory alive until they
        # have read it.
        data, features = make_dataset(30)
        owner = publish_dataset(data, features)
        inherited = os.dup(owner)
        os.close(owner)
        assert attach_dataset(inherited) == (data, features)
        assert dataset_memfds() == []

    def test_live_segment_names_tracks_wrappers(self):
        # The leak probe (tests/invariants.py) sees every open publication.
        assert dataset_memfds() == []
        first = publish_dataset(*make_dataset(5))
        second = publish_dataset(*make_dataset(5))
        assert len(dataset_memfds()) == 2
        os.close(first)
        assert len(dataset_memfds()) == 1
        os.close(second)
        assert dataset_memfds() == []

    def test_attach_unknown_name_raises(self):
        # A descriptor that is open but is no dataset file.
        with tempfile.TemporaryFile() as handle:
            handle.write(b"not a dataset, just bytes" * 4)
            handle.flush()
            with pytest.raises(ValueError, match="does not hold a dataset"):
                attach_dataset(os.dup(handle.fileno()))
        reader, writer = os.pipe()
        os.close(writer)
        with pytest.raises(OSError):
            attach_dataset(reader)
        assert not is_open(reader)

    def test_acquire_after_close_raises(self):
        fd = publish_dataset(*make_dataset(5))
        os.close(fd)
        with pytest.raises(OSError):
            attach_dataset(fd)

    def test_attach_closes_the_fd_on_every_path(self):
        data, features = make_dataset(10)
        good = publish_dataset(data, features)
        attach_dataset(good)
        assert not is_open(good)
        empty = memfd_holding(b"")
        with pytest.raises(ValueError):
            attach_dataset(empty)
        assert not is_open(empty)
        assert dataset_memfds() == []


@requires_memfd
class TestDatasetSegment:
    def test_publish_attach_round_trip(self):
        data, features = make_dataset(70)
        rebuilt_data, rebuilt_features = attach_dataset(
            publish_dataset(data, features)
        )
        assert rebuilt_data == data
        assert rebuilt_features == features
        assert [f.keywords for f in rebuilt_features] == [
            f.keywords for f in features
        ]
        assert dataset_memfds() == []

    def test_attach_rejects_reduce_plane(self):
        # A file holding data rows but no feature rows is not a dataset,
        # whatever else it carries.
        data, _ = make_dataset(10)
        data_rows, _ = marshal.loads(published(data, []))
        fd = memfd_holding(marshal.dumps((data_rows,)))
        with pytest.raises(ValueError, match="dataset"):
            attach_dataset(fd)
        assert not is_open(fd)
        assert dataset_memfds() == []

    @pytest.mark.parametrize("payload", [
        7, None, "rows", ([], [], []), ([("p0", 1.0)], []),
        ([], [("f0", 1.0, 2.0, ("a",), "extra")]), ([], [("f0", 1.0, 2.0, "ab")]),
        # Well-shaped rows of the wrong types: a keyword that is not a str,
        # an oid and coordinates that are not an id and numbers.
        ([], [("f0", 1.0, 2.0, (3,))]), ([], [("f0", 1.0, 2.0, (1, 2))]),
        ([("a", "b", "c")], []), ([(7, 1.0, 2.0)], []), ([("p0", 1.0, None)], []),
        ([], [(b"f0", 1.0, 2.0, ("a",))]), ([], [("f0", "1", 2.0, ("a",))]),
    ])
    def test_a_well_formed_payload_of_the_wrong_shape_raises(self, payload):
        fd = memfd_holding(marshal.dumps(payload))
        with pytest.raises(ValueError, match="does not hold a dataset"):
            attach_dataset(fd)
        assert not is_open(fd)
        assert dataset_memfds() == []

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.05, 0.5, 0.99])
    def test_truncated_payload_raises(self, keep):
        payload = published(*make_dataset(40))
        fd = memfd_holding(payload[: int(len(payload) * keep)])
        with pytest.raises(ValueError):
            attach_dataset(fd)
        assert not is_open(fd)
        assert dataset_memfds() == []


class TestEngineIntegration:
    QUERY = SpatialPreferenceQuery.create(k=5, radius=3.0, keywords={"a", "b"})

    def run_engine(self):
        data, features = make_dataset(200, seed=9)
        with SPQEngine(data, features, config=EngineConfig(grid_size=3)) as engine:
            engine.execute_many([self.QUERY], algorithm="pspq", grid_size=3)

    def test_serial_engine_leaves_no_segments(self):
        before = shm_strays()
        self.run_engine()
        assert dataset_memfds() == []
        assert shm_strays() == before
