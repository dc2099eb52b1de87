"""Property tests for the shard layout (``repro.sharding.partition``).

Seeded randomized datasets -- uniform, clustered, hotspot-skewed and
degenerate (single-cell, collinear, single-point, empty) -- crossed with
shard counts and query grid sizes, asserting every invariant the
scatter-gather identity contract rests on.  There is one layout: the
most-square ``cols x rows`` split of the extent, one shard per cell.

* **tiling** -- every shard-grid cell is owned by exactly one shard, the
  shard boxes tile the extent exactly, and every shard edge lies on a
  shard-grid line (and, on an aligned query grid, on a query-grid line);
* **data partitioning** -- every data object lands in exactly one shard,
  inside that shard's box, with storage order preserved within the shard;
* **grid alignment** -- ``grid_aligned`` agrees with its definition
  (every shard boundary coincides with a query-grid line, so no query-grid
  cell straddles two shards);
* **identity** -- a router over skewed (clustered, hotspot) data answers
  bit-for-bit like a fresh unsharded engine across all algorithms
  (``pspq``, ``espq-len``, ``espq-sco``, ``auto``);
* **degenerate inputs** -- a dataset collapsed into one cell, onto one
  point or one line, or empty, still yields ``num_shards`` shards with
  positive-area extents, and still serves exact answers.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import pytest

from raw_oracle import reference_execute
from repro.core.centralized import dataset_extent
from repro.core.engine import EngineConfig, SPQEngine
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import ServiceConfig
from repro.sharding import (
    ShardRouter,
    ShardingConfig,
    partition_datasets,
    shard_layout,
)
from repro.spatial.grid import UniformGrid

GRID = 10

#: (kind, seed, shards, query grid size) cases the property tests sweep;
#: 4 / 10, 3 / 12 and 8 / 20 are aligned, 5 / 8 and 7 / 16 are not.
LAYOUT_CASES = (
    ("uniform", 4101, 4, 10),
    ("uniform", 4102, 5, 8),
    ("clustered", 4201, 4, 10),
    ("clustered", 4202, 7, 16),
    ("clustered", 4203, 3, 12),
    ("hotspot", 4301, 4, 10),
    ("hotspot", 4302, 8, 20),
)

CASE_IDS = [f"{kind}-{seed}-s{shards}-r{res}"
            for kind, seed, shards, res in LAYOUT_CASES]


def build_dataset(kind: str, seed: int, num_objects: int = 400):
    """A seeded point set with the requested spatial shape."""
    rng = random.Random(seed)

    def point() -> Tuple[float, float]:
        if kind == "uniform":
            return rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        if kind == "clustered":
            cx, cy = rng.choice(((20.0, 20.0), (70.0, 60.0), (85.0, 15.0)))
            return (
                min(max(rng.gauss(cx, 6.0), 0.0), 100.0),
                min(max(rng.gauss(cy, 6.0), 0.0), 100.0),
            )
        # hotspot: ~90% of mass inside one small box, the rest uniform.
        if rng.random() < 0.9:
            return rng.uniform(10.0, 20.0), rng.uniform(10.0, 20.0)
        return rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)

    data = []
    for index in range(num_objects):
        x, y = point()
        data.append(DataObject(f"d{index:04d}", x, y))
    features = []
    for index in range(num_objects // 2):
        x, y = point()
        features.append(FeatureObject(
            f"f{index:04d}", x, y, frozenset({f"w{index % 20:04d}"})
        ))
    # Anchor the extent so every case grids over the same [0, 100]^2 box.
    data.append(DataObject("d-anchor-lo", 0.0, 0.0))
    data.append(DataObject("d-anchor-hi", 100.0, 100.0))
    return data, features


def build_plan(kind: str, seed: int, shards: int):
    data, features = build_dataset(kind, seed)
    return data, features, partition_datasets(data, features, shards)


def grid_lines(grid: UniformGrid) -> Tuple[set, set]:
    """The x and y coordinates of every line of ``grid``."""
    extent = grid.extent
    x_lines = {grid.cell_box(grid.cell_id(col, 0)).min_x
               for col in range(grid.cells_x)} | {extent.max_x}
    y_lines = {grid.cell_box(grid.cell_id(0, row)).min_y
               for row in range(grid.cells_y)} | {extent.max_y}
    return x_lines, y_lines


def on_a_line(value: float, lines: set) -> bool:
    return any(value == pytest.approx(line, rel=1e-12, abs=1e-9) for line in lines)


# --------------------------------------------------------------------- #
# tiling: shard cells are owned once; boxes tile the extent on grid lines


@pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                         ids=CASE_IDS)
class TestLayoutTiling:
    def test_regions_cover_every_cell_exactly_once(
        self, kind, seed, shards, resolution
    ):
        _, _, plan = build_plan(kind, seed, shards)
        cols, rows = shard_layout(shards)
        assert plan.stats.layout == (cols, rows)
        assert (plan.grid.cells_x, plan.grid.cells_y) == (cols, rows)
        assert [shard.shard_id for shard in plan.shards] == list(range(shards))
        owners = []
        for cell_id in range(1, plan.grid.num_cells + 1):
            box = plan.grid.cell_box(cell_id)
            owners.append(plan.locate((box.min_x + box.max_x) / 2,
                                      (box.min_y + box.max_y) / 2))
            assert plan.shards[owners[-1]].box == box
        assert sorted(owners) == list(range(shards))  # no gaps, no overlaps

    def test_boxes_tile_the_extent_exactly(self, kind, seed, shards, resolution):
        _, _, plan = build_plan(kind, seed, shards)
        extent = plan.extent
        area = sum(
            (shard.box.max_x - shard.box.min_x) * (shard.box.max_y - shard.box.min_y)
            for shard in plan.shards
        )
        extent_area = (extent.max_x - extent.min_x) * (
            extent.max_y - extent.min_y
        )
        assert area == pytest.approx(extent_area, rel=1e-12)
        assert len(plan.shards) == plan.stats.num_shards == shards

    def test_every_shard_edge_lies_on_a_grid_line(
        self, kind, seed, shards, resolution
    ):
        _, _, plan = build_plan(kind, seed, shards)
        x_lines, y_lines = grid_lines(plan.grid)
        for shard in plan.shards:
            box = shard.box
            assert box.min_x in x_lines and box.max_x in x_lines
            assert box.min_y in y_lines and box.max_y in y_lines
        if plan.grid_aligned(resolution):
            query_x, query_y = grid_lines(
                UniformGrid(plan.extent, resolution, resolution)
            )
            for shard in plan.shards:
                box = shard.box
                assert on_a_line(box.min_x, query_x) and on_a_line(box.max_x, query_x)
                assert on_a_line(box.min_y, query_y) and on_a_line(box.max_y, query_y)

    def test_locate_owns_every_point_exactly_once(
        self, kind, seed, shards, resolution
    ):
        _, _, plan = build_plan(kind, seed, shards)
        extent = plan.extent
        rng = random.Random(seed + 13)
        boxes = [shard.box for shard in plan.shards]
        # Interior samples plus exact shard-edge coordinates (the tie case).
        samples = [
            (rng.uniform(extent.min_x, extent.max_x),
             rng.uniform(extent.min_y, extent.max_y))
            for _ in range(200)
        ]
        samples += [(box.min_x, box.min_y) for box in boxes]
        samples += [(box.max_x, box.max_y) for box in boxes]
        for x, y in samples:
            shard_id = plan.locate(x, y)
            assert 0 <= shard_id < len(plan.shards)
            box = boxes[shard_id]
            assert box.min_x <= x <= box.max_x
            assert box.min_y <= y <= box.max_y

    def test_data_counts_account_for_every_object(
        self, kind, seed, shards, resolution
    ):
        data, _, plan = build_plan(kind, seed, shards)
        counts = [0] * shards
        for obj in data:
            counts[plan.locate(obj.x, obj.y)] += 1
        assert counts == [len(shard.data_objects) for shard in plan.shards]
        assert sum(counts) == len(data) == plan.stats.num_data
        assert plan.stats.empty_shards == counts.count(0)


# --------------------------------------------------------------------- #
# data partitioning: disjoint, complete, ordered, inside the shard box


@pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                         ids=CASE_IDS)
class TestDataPartitionProperties:
    def test_disjoint_complete_and_ordered(self, kind, seed, shards, resolution):
        data, _, plan = build_plan(kind, seed, shards)
        position = {obj.oid: index for index, obj in enumerate(data)}
        seen: List[str] = []
        for shard in plan.shards:
            for obj in shard.data_objects:
                seen.append(obj.oid)
                assert shard.box.min_x <= obj.x <= shard.box.max_x
                assert shard.box.min_y <= obj.y <= shard.box.max_y
            positions = [position[obj.oid] for obj in shard.data_objects]
            assert positions == sorted(positions)  # storage order preserved
        assert sorted(seen) == sorted(obj.oid for obj in data)
        assert len(seen) == len(set(seen))  # each object in exactly one shard
        assert plan.stats.num_data == len(data)


# --------------------------------------------------------------------- #
# grid alignment: the divisibility rule against its definitions


class TestGridAlignmentProperties:
    @pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                             ids=CASE_IDS)
    def test_matches_the_boundary_definition(
        self, kind, seed, shards, resolution
    ):
        _, _, plan = build_plan(kind, seed, shards)
        cols, rows = plan.stats.layout
        # Interior shard boundary b (of cols) sits at b / cols of the
        # extent; it is a query-grid line iff b * grid_size / cols is whole.
        for grid_size in (resolution // 2, resolution - 1, resolution,
                          resolution + 1, 2 * resolution, 3 * resolution):
            if grid_size < 1:
                continue
            expected = all(
                b * grid_size % cols == 0 for b in range(1, cols)
            ) and all(
                b * grid_size % rows == 0 for b in range(1, rows)
            )
            assert plan.grid_aligned(grid_size) is expected

    @pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                             ids=CASE_IDS)
    def test_layout_resolution_multiples_are_always_aligned(
        self, kind, seed, shards, resolution
    ):
        _, _, plan = build_plan(kind, seed, shards)
        cols, rows = plan.stats.layout
        lcm = cols * rows // math.gcd(cols, rows)
        assert plan.grid_aligned(lcm)
        assert plan.grid_aligned(2 * lcm)
        assert plan.grid_aligned(resolution) is (
            resolution % cols == 0 and resolution % rows == 0
        )

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5, 6, 8, 9, 12])
    @pytest.mark.parametrize("grid_size", [4, 6, 7, 9, 10, 12, 50])
    def test_uniform_reduces_to_the_historical_rule(self, shards, grid_size):
        """``grid_aligned`` is true exactly when no query-grid cell
        straddles a shard boundary."""
        data, features = build_dataset("uniform", 4999, num_objects=50)
        plan = partition_datasets(data, features, shards)
        query_grid = UniformGrid(dataset_extent(data, features), grid_size, grid_size)
        tolerance = 1e-9
        contained = True
        for cell_id in range(1, query_grid.num_cells + 1):
            cell = query_grid.cell_box(cell_id)
            box = plan.shards[plan.locate((cell.min_x + cell.max_x) / 2,
                                          (cell.min_y + cell.max_y) / 2)].box
            contained &= (
                box.min_x - tolerance <= cell.min_x
                and cell.max_x <= box.max_x + tolerance
                and box.min_y - tolerance <= cell.min_y
                and cell.max_y <= box.max_y + tolerance
            )
        assert plan.grid_aligned(grid_size) is contained


# --------------------------------------------------------------------- #
# degenerate inputs: every shard keeps a valid extent


class TestDegenerateLayouts:
    def one_cell_dataset(self):
        """Every object inside a single query-grid cell."""
        rng = random.Random(5001)
        data = [
            DataObject(f"d{i:03d}", rng.uniform(50.0, 50.9),
                       rng.uniform(50.0, 50.9))
            for i in range(50)
        ]
        features = [
            FeatureObject(f"f{i:02d}", rng.uniform(50.0, 50.9),
                          rng.uniform(50.0, 50.9), frozenset({"w"}))
            for i in range(10)
        ]
        # Anchors widen the extent so the cell is genuinely one of many.
        data += [DataObject("d-lo", 0.0, 0.0), DataObject("d-hi", 100.0, 100.0)]
        return data, features

    @staticmethod
    def assert_valid_shards(plan, shards: int, data) -> None:
        assert len(plan.shards) == shards
        for shard in plan.shards:
            assert shard.box.max_x > shard.box.min_x
            assert shard.box.max_y > shard.box.min_y
        seen = [obj.oid for shard in plan.shards for obj in shard.data_objects]
        assert sorted(seen) == sorted(obj.oid for obj in data)

    def test_single_cell_dataset_keeps_every_shard_valid(self):
        """All mass in one grid cell: the other shards are empty, never
        empty-extent."""
        data, features = self.one_cell_dataset()
        plan = partition_datasets(data, features, 4)
        self.assert_valid_shards(plan, 4, data)
        assert plan.stats.empty_shards >= 1

    def test_single_cell_layout_still_serves_exact_answers(self):
        data, features = self.one_cell_dataset()
        spec = {"keywords": ["w"], "k": 10, "radius": 5.0, "algorithm": "pspq"}
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=4),
        )
        with router:
            got = [(e["oid"], e["score"])
                   for e in router.submit(spec)["results"]]
        query = SpatialPreferenceQuery.create(k=10, radius=5.0, keywords={"w"})
        with SPQEngine(data, features,
                       config=EngineConfig(grid_size=GRID)) as engine:
            result = reference_execute(engine, query, algorithm="pspq", grid_size=GRID)
        assert got == [(entry.obj.oid, entry.score) for entry in result]

    def test_all_objects_on_one_point(self):
        data = [DataObject(f"d{i}", 5.0, 5.0) for i in range(20)]
        features = [FeatureObject("f0", 5.0, 5.0, frozenset({"w"}))]
        plan = partition_datasets(data, features, 4)
        self.assert_valid_shards(plan, 4, data)

    def test_collinear_dataset(self):
        data = [DataObject(f"d{i}", float(i), 3.0) for i in range(30)]
        features = [
            FeatureObject(f"f{i}", float(i) + 0.25, 3.0, frozenset({"w"}))
            for i in range(10)
        ]
        plan = partition_datasets(data, features, 3)
        self.assert_valid_shards(plan, 3, data)
        seen = [obj.oid for shard in plan.shards for obj in shard.data_objects]
        assert len(seen) == len(set(seen))

    def test_empty_dataset_keeps_valid_shards(self):
        plan = partition_datasets([], [], 4)
        self.assert_valid_shards(plan, 4, [])
        assert plan.stats.empty_shards == 4


# --------------------------------------------------------------------- #
# identity: sharded == unsharded, bit-for-bit, on skewed data


class TestSkewShardedIdentity:
    """Skewed (clustered, hotspot) data on the uniform layout, each case on
    a query grid its layout divides: 2 x 2 shards over 10, 3 x 1 over 12."""

    CASES = (("clustered", 4201, 4, 10), ("hotspot", 4301, 3, 12))

    @pytest.mark.parametrize("algorithm", [
        "pspq", "espq-len", "espq-sco", "auto",
    ])
    @pytest.mark.parametrize("kind,seed,shards,grid", CASES,
                             ids=[f"{k}-{s}-s{n}" for k, s, n, _ in CASES])
    def test_bit_for_bit_identity(self, kind, seed, shards, grid, algorithm):
        data, features = build_dataset(kind, seed)
        specs = [
            {"keywords": ["w0003"], "k": 5, "radius": 8.0,
             "algorithm": algorithm},
            {"keywords": ["w0001", "w0007"], "k": 12, "radius": 15.0,
             "algorithm": algorithm},
            {"keywords": ["zz-none"], "k": 5, "radius": 8.0,
             "algorithm": algorithm},
        ]
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=grid),
            service_config=ServiceConfig(
                engines=1, default_grid_size=grid, result_cache_capacity=0
            ),
            sharding=ShardingConfig(shards=shards),
        )
        with router:
            assert router.plan.grid_aligned(grid)
            got = [
                [(e["oid"], e["score"]) for e in router.submit(spec)["results"]]
                for spec in specs
            ]
        with SPQEngine(data, features,
                       config=EngineConfig(grid_size=grid)) as engine:
            for spec, entries in zip(specs, got):
                query = SpatialPreferenceQuery.create(
                    k=spec["k"], radius=spec["radius"],
                    keywords=set(spec["keywords"]),
                )
                result = reference_execute(
                    engine, query, algorithm=spec["algorithm"], grid_size=grid
                )
                assert entries == [
                    (entry.obj.oid, entry.score) for entry in result
                ], f"{algorithm} diverged on {spec['keywords']}"
