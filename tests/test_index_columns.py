"""Cell data blocks, and the cluster dataset hand-off's round trip."""

from __future__ import annotations

import os
import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.spawn import attach_dataset, publish_dataset
from repro.execution.tasks import block_without
from repro.index.columns import MEMO_ROWS_PER_ROW, DataBlock
from repro.model.objects import DataObject, FeatureObject


def make_data(count: int, seed: int = 7):
    rng = random.Random(seed)
    return [
        DataObject(f"p{i:04d}", rng.uniform(-50, 50), rng.uniform(-50, 50))
        for i in range(count)
    ]


def make_features(count: int, seed: int = 8):
    rng = random.Random(seed)
    vocabulary = [f"w{n}" for n in range(30)]
    return [
        FeatureObject(
            f"f{i:04d}",
            rng.uniform(-50, 50),
            rng.uniform(-50, 50),
            frozenset(rng.sample(vocabulary, rng.randint(0, 5))),
        )
        for i in range(count)
    ]


requires_memfd = pytest.mark.skipif(
    not hasattr(os, "memfd_create"), reason="os.memfd_create unavailable here"
)


def round_trip(data, features):
    """The dataset as a cluster node gets it: published, then attached."""
    return attach_dataset(publish_dataset(data, features))


@requires_memfd
class TestDatasetRoundTrip:
    """The cluster's dataset hand-off gives a node objects equal to the
    spawner's, with the same doubles and the same keyword tuples."""

    def test_data_round_trip_is_exact(self):
        data, features = make_data(40), make_features(40)
        assert round_trip(data, features) == (data, features)

    def test_doubles_round_trip_bit_for_bit(self):
        values = [-0.0, 0.0, 0.1, -2.25, 5e-324, 1.7976931348623157e308, float("inf")]
        data = [DataObject(f"p{n}", x, -x) for n, x in enumerate(values)]
        features = [FeatureObject(f"f{n}", -x, x, ("a",)) for n, x in enumerate(values)]
        rebuilt_data, rebuilt_features = round_trip(data, features)
        for got, want in zip([*rebuilt_data, *rebuilt_features], [*data, *features]):
            # ``-0.0 == 0.0``: compare the bits, not the values.
            assert struct.pack("<dd", got.x, got.y) == struct.pack("<dd", want.x, want.y)

    def test_empty_dataset(self):
        assert round_trip([], []) == ([], [])

    def test_unicode_oids(self):
        data = [DataObject("pé-中文", 1.0, 2.0)]
        features = [FeatureObject("f-ü", 0.5, 0.5, ("café", "中文"))]
        assert round_trip(data, features) == (data, features)

    def test_round_trip_rebuilds_equal_keyword_sets(self):
        features = make_features(40)
        _, rebuilt = round_trip(make_data(3), features)
        assert [f.keywords for f in rebuilt] == [f.keywords for f in features]
        assert all(type(f.keywords) is tuple for f in rebuilt)

    def test_empty_keyword_sets_round_trip(self):
        features = [FeatureObject("f0", 0.0, 0.0, frozenset())]
        assert round_trip([], features) == ([], features)


class TestDataBlock:
    def test_candidate_rows_is_exact_window(self):
        rng = random.Random(11)
        objects = [
            DataObject(f"p{i}", rng.uniform(-10, 10), 0.0) for i in range(300)
        ]
        block = DataBlock.from_objects(1, objects)
        for _ in range(25):
            low = rng.uniform(-12, 10)
            high = low + rng.uniform(0, 5)
            rows = block.candidate_rows(low, high)
            expected = {i for i, o in enumerate(objects) if low <= o.x <= high}
            assert set(rows) == expected
            # Returned in x-sorted order for cache-friendly scans.
            assert [objects[r].x for r in rows] == sorted(
                objects[r].x for r in rows
            )

    def test_columns_parallel_to_objects(self):
        objects = make_data(20)
        block = DataBlock.from_objects(3, objects)
        assert block.group == 3
        assert len(block) == 20
        assert block.xs == [o.x for o in objects]
        assert block.ys == [o.y for o in objects]
        assert block.oids == [o.oid for o in objects]


#: Half-unit lattice coordinates either side of zero: distances land exactly
#: on the radius, and negative coordinates widen the window's ulp allowance.
SIGNED_LATTICE = st.integers(-8, 8).map(lambda half: half / 2.0)


def brute_force_within(objects, fx, fy, radius):
    """The per-object filter of the paper's loops, in storage order."""
    probe = FeatureObject("probe", fx, fy, frozenset({"kw"}))
    return tuple(row for row, obj in enumerate(objects) if obj.within_distance(probe, radius))


class TestRowsWithin:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 5), SIGNED_LATTICE, SIGNED_LATTICE), max_size=30
        ),
        probes=st.lists(st.tuples(SIGNED_LATTICE, SIGNED_LATTICE), min_size=1, max_size=6),
        radius=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]),
    )
    def test_equals_the_per_object_filter_and_memoizes(self, rows, probes, radius):
        # Oids from a pool of six: one oid may sit on several rows.
        objects = [DataObject(f"o{oid}", x, y) for oid, x, y in rows]
        block = DataBlock.from_objects(0, objects)
        for fx, fy in probes:
            got = block.rows_within(fx, fy, radius)
            assert got == brute_force_within(objects, fx, fy, radius)
            assert block.rows_within(fx, fy, radius) is got

    def test_each_radius_is_kept_beside_the_others(self):
        objects = [DataObject(f"o{i}", i / 2.0, 0.0) for i in range(9)]
        block = DataBlock.from_objects(0, objects)
        near = block.rows_within(0.0, 0.0, 1.0)
        assert near == (0, 1, 2)
        far = block.rows_within(0.0, 0.0, 2.0)
        assert far == (0, 1, 2, 3, 4)
        assert block.rows_within(0.0, 0.0, 1.0) is near
        assert block.rows_within(0.0, 0.0, 2.0) is far

    def test_the_memo_stops_keeping_rows_past_its_room(self):
        # Every probe matches all four rows, so the room of four rows'
        # worth holds MEMO_ROWS_PER_ROW probes; the rest are answered, not
        # kept, at this radius or any other.
        objects = [DataObject(f"o{i}", 0.0, 0.0) for i in range(4)]
        block = DataBlock.from_objects(0, objects)
        probes = [(i / 1024.0, 0.0) for i in range(MEMO_ROWS_PER_ROW + 3)]
        for fx, fy in probes:
            assert block.rows_within(fx, fy, 1.0) == (0, 1, 2, 3)
        assert list(block._within) == [(fx, fy, 1.0) for fx, fy in probes[:MEMO_ROWS_PER_ROW]]
        assert block._room == 0
        fx, fy = probes[-1]
        assert block.rows_within(fx, fy, 1.0) is not block.rows_within(fx, fy, 1.0)
        assert block.rows_within(fx, fy, 2.0) is not block.rows_within(fx, fy, 2.0)
        # An empty answer costs no room, so it is still kept.
        assert block.rows_within(9.0, 9.0, 1.0) is block.rows_within(9.0, 9.0, 1.0) == ()

    def test_a_block_for_one_reduce_keeps_nothing(self):
        # A tombstone view and a frozen live stream live for one reduce.
        objects = [DataObject(f"o{i}", i / 2.0, 0.0) for i in range(9)]
        cached = DataBlock.from_objects(3, objects)
        _, view = block_without((3, cached), {"o1"})
        live = DataBlock(0, objects, cached.xs, cached.ys, memo=False)
        for block, want in ((view, ["o0", "o2"]), (live, ["o0", "o1", "o2"])):
            rows = block.rows_within(0.0, 0.0, 1.0)
            assert [block.objs[row].oid for row in rows] == want
            assert block.rows_within(9.0, 9.0, 1.0) == ()
            assert block._within == {}
        assert cached.rows_within(0.0, 0.0, 1.0) is cached.rows_within(0.0, 0.0, 1.0)

    def test_threads_at_alternating_radii_share_one_block(self):
        # Engines of one ``repro serve`` pool share the index's blocks.  Each
        # thread flips radius every pass, out of step with half the others;
        # rows filed under the wrong radius would fail a later read.
        rng = random.Random(5)
        objects = [
            DataObject(
                f"o{rng.randrange(300)}",
                rng.randrange(-20, 21) / 2.0,
                rng.randrange(-20, 21) / 2.0,
            )
            for _ in range(400)
        ]
        block = DataBlock.from_objects(0, objects)
        probes = [
            (rng.randrange(-12, 13) / 2.0, rng.randrange(-12, 13) / 2.0) for _ in range(6)
        ]
        radii = (1.0, 2.5)
        want = {
            (fx, fy, radius): brute_force_within(objects, fx, fy, radius)
            for fx, fy in probes
            for radius in radii
        }
        wrong = []
        # Four threads on two cores, half starting at each radius.
        start = threading.Barrier(4)

        def reader(first):
            start.wait()
            for turn in range(1000):
                radius = radii[(turn + first) % 2]
                for fx, fy in probes:
                    if block.rows_within(fx, fy, radius) != want[fx, fy, radius]:
                        wrong.append((fx, fy, radius))

        threads = [
            threading.Thread(target=reader, args=(first % 2,), daemon=True)
            for first in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert block._within and all(rows == want[key] for key, rows in block._within.items())
