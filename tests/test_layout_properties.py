"""Property tests for shard layouts (``repro.sharding.layout``).

Seeded randomized datasets -- uniform, clustered, hotspot-skewed and
degenerate (single-cell, collinear, single-point) -- crossed with shard
counts and layout resolutions, asserting every invariant the scatter-gather
identity contract rests on:

* **tiling** -- the layout's cell regions cover the layout grid exactly
  once (no gaps, no overlaps), the shard boxes tile the extent exactly,
  and every shard edge lies on a layout-grid line (boundary snapping);
* **data partitioning** -- every data object lands in exactly one shard,
  inside that shard's box, with storage order preserved within the shard;
* **feature replication** -- Lemma 1 at shard granularity: a feature is
  copied to shard ``S`` iff ``MINDIST(f, extent(S)) <= max_radius``,
  verified against an exhaustive per-box check, replication order
  preserved;
* **grid alignment** -- ``grid_aligned`` agrees with its definition
  (every used shard boundary coincides with a query-grid line) and, for
  uniform layouts, with the historical divisibility rule;
* **identity** -- a skew-sharded router answers bit-for-bit like a fresh
  unsharded engine across all algorithms (``pspq``, ``espq-len``,
  ``espq-sco``, ``auto``) on each generated layout;
* **degenerate inputs** -- a histogram collapsed into one layout cell
  reduces the shard *count* instead of emitting empty-extent shards
  (regression: this used to matter for all-objects-in-one-grid-cell
  datasets), and the reduced layout still serves exact answers.
"""

from __future__ import annotations

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
    ShardLayout,
    ShardRouter,
    ShardingConfig,
    data_cell_histogram,
    partition_datasets,
    shard_layout,
)
from repro.spatial.grid import UniformGrid

GRID = 10

#: (kind, seed, shards, resolution) cases the property tests sweep.
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


def build_layout(kind: str, seed: int, shards: int, resolution: int):
    data, features = build_dataset(kind, seed)
    extent = dataset_extent(data, features)
    grid = UniformGrid(extent, resolution, resolution)
    histogram = data_cell_histogram(grid, data)
    layout = ShardLayout.skew(extent, shards, histogram, resolution=resolution)
    return data, features, extent, grid, histogram, layout


# --------------------------------------------------------------------- #
# tiling: regions cover the grid once; boxes tile the extent on grid lines


@pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                         ids=CASE_IDS)
class TestLayoutTiling:
    def test_regions_cover_every_cell_exactly_once(
        self, kind, seed, shards, resolution
    ):
        _, _, _, grid, _, layout = build_layout(kind, seed, shards, resolution)
        covered = [0] * grid.num_cells
        for col0, row0, col1, row1 in layout.regions:
            assert 0 <= col0 <= col1 < grid.cells_x
            assert 0 <= row0 <= row1 < grid.cells_y
            for row in range(row0, row1 + 1):
                for col in range(col0, col1 + 1):
                    covered[row * grid.cells_x + col] += 1
        assert covered == [1] * grid.num_cells  # no gaps, no overlaps

    def test_boxes_tile_the_extent_exactly(self, kind, seed, shards, resolution):
        _, _, extent, _, _, layout = build_layout(kind, seed, shards, resolution)
        area = sum(
            (box.max_x - box.min_x) * (box.max_y - box.min_y)
            for box in layout.boxes
        )
        extent_area = (extent.max_x - extent.min_x) * (
            extent.max_y - extent.min_y
        )
        assert area == pytest.approx(extent_area, rel=1e-12)
        assert 1 <= layout.num_shards <= shards

    def test_every_shard_edge_lies_on_a_grid_line(
        self, kind, seed, shards, resolution
    ):
        _, _, extent, grid, _, layout = build_layout(
            kind, seed, shards, resolution
        )
        x_lines = {grid.cell_box(grid.cell_id(col, 0)).min_x
                   for col in range(grid.cells_x)} | {extent.max_x}
        y_lines = {grid.cell_box(grid.cell_id(0, row)).min_y
                   for row in range(grid.cells_y)} | {extent.max_y}
        for box in layout.boxes:
            assert box.min_x in x_lines and box.max_x in x_lines
            assert box.min_y in y_lines and box.max_y in y_lines

    def test_locate_owns_every_point_exactly_once(
        self, kind, seed, shards, resolution
    ):
        _, _, extent, _, _, layout = build_layout(kind, seed, shards, resolution)
        rng = random.Random(seed + 13)
        # Interior samples plus exact shard-edge coordinates (the tie case).
        samples = [
            (rng.uniform(extent.min_x, extent.max_x),
             rng.uniform(extent.min_y, extent.max_y))
            for _ in range(200)
        ]
        samples += [(box.min_x, box.min_y) for box in layout.boxes]
        samples += [(box.max_x, box.max_y) for box in layout.boxes]
        for x, y in samples:
            shard_id = layout.locate(x, y)
            assert 0 <= shard_id < layout.num_shards
            box = layout.boxes[shard_id]
            assert box.min_x <= x <= box.max_x
            assert box.min_y <= y <= box.max_y

    def test_data_counts_account_for_every_object(
        self, kind, seed, shards, resolution
    ):
        data, _, _, _, histogram, layout = build_layout(
            kind, seed, shards, resolution
        )
        counts = layout.data_counts(histogram)
        assert len(counts) == layout.num_shards
        assert sum(counts) == len(data)


# --------------------------------------------------------------------- #
# data partitioning: disjoint, complete, ordered, inside the shard box


@pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                         ids=CASE_IDS)
class TestDataPartitionProperties:
    def test_disjoint_complete_and_ordered(self, kind, seed, shards, resolution):
        data, features = build_dataset(kind, seed)
        plan = partition_datasets(
            data, features, shards, layout="skew", layout_resolution=resolution
        )
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
        assert plan.stats.kind == "skew"
        assert plan.stats.num_data == len(data)


# --------------------------------------------------------------------- #
# feature replication: Lemma 1 at shard granularity, iff MINDIST


@pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                         ids=CASE_IDS)
class TestFeatureReplicationProperties:
    RADIUS = 7.5

    def test_replication_is_exactly_the_mindist_rule(
        self, kind, seed, shards, resolution
    ):
        data, features = build_dataset(kind, seed)
        plan = partition_datasets(
            data, features, shards,
            max_radius=self.RADIUS, layout="skew",
            layout_resolution=resolution,
        )
        for shard in plan.shards:
            expected = [
                feature for feature in features
                if shard.box.min_distance(feature.x, feature.y) <= self.RADIUS
            ]
            got = shard.feature_objects
            assert [f.oid for f in got] == [f.oid for f in expected]

    def test_own_shard_always_receives_the_feature(
        self, kind, seed, shards, resolution
    ):
        _, features, _, _, _, layout = build_layout(
            kind, seed, shards, resolution
        )
        for feature in features:
            within = layout.shards_within(feature.x, feature.y, 0.0)
            assert layout.locate(feature.x, feature.y) in within


# --------------------------------------------------------------------- #
# grid alignment: the definition, and the historical uniform rule


class TestGridAlignmentProperties:
    @pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                             ids=CASE_IDS)
    def test_matches_the_boundary_definition(
        self, kind, seed, shards, resolution
    ):
        _, _, _, grid, _, layout = build_layout(kind, seed, shards, resolution)
        x_bounds = sorted(
            {r[0] for r in layout.regions if r[0] > 0}
            | {r[2] + 1 for r in layout.regions if r[2] + 1 < grid.cells_x}
        )
        y_bounds = sorted(
            {r[1] for r in layout.regions if r[1] > 0}
            | {r[3] + 1 for r in layout.regions if r[3] + 1 < grid.cells_y}
        )
        for grid_size in (resolution // 2, resolution - 1, resolution,
                          resolution + 1, 2 * resolution, 3 * resolution):
            if grid_size < 1:
                continue
            expected = all(
                b * grid_size % grid.cells_x == 0 for b in x_bounds
            ) and all(
                b * grid_size % grid.cells_y == 0 for b in y_bounds
            )
            assert layout.grid_aligned(grid_size) is expected

    @pytest.mark.parametrize("kind,seed,shards,resolution", LAYOUT_CASES,
                             ids=CASE_IDS)
    def test_layout_resolution_multiples_are_always_aligned(
        self, kind, seed, shards, resolution
    ):
        _, _, _, _, _, layout = build_layout(kind, seed, shards, resolution)
        assert layout.grid_aligned(resolution)
        assert layout.grid_aligned(2 * resolution)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5, 6, 8, 9, 12])
    @pytest.mark.parametrize("grid_size", [4, 6, 7, 9, 10, 12, 50])
    def test_uniform_reduces_to_the_historical_rule(self, shards, grid_size):
        data, features = build_dataset("uniform", 4999, num_objects=50)
        extent = dataset_extent(data, features)
        layout = ShardLayout.uniform(extent, shards)
        cols, rows = shard_layout(shards)
        assert layout.grid_aligned(grid_size) is (
            grid_size % cols == 0 and grid_size % rows == 0
        )


# --------------------------------------------------------------------- #
# degenerate inputs: shard-count reduction, never empty-extent shards


class TestDegenerateLayouts:
    def one_cell_dataset(self):
        """Every object inside a single layout-grid cell (the regression)."""
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

    def test_single_cell_histogram_reduces_shard_count(self):
        """Regression: all mass in one grid cell must not emit empty-extent
        shards -- the unsplittable region becomes exactly one shard."""
        data, features = self.one_cell_dataset()
        plan = partition_datasets(
            data, features, 4, layout="skew", layout_resolution=10
        )
        layout = plan.layout
        assert layout is not None and layout.kind == "skew"
        assert 1 <= layout.num_shards <= 4
        for box in layout.boxes:
            assert box.max_x > box.min_x and box.max_y > box.min_y
        seen = [obj.oid for shard in plan.shards for obj in shard.data_objects]
        assert sorted(seen) == sorted(obj.oid for obj in data)

    def test_single_cell_layout_still_serves_exact_answers(self):
        data, features = self.one_cell_dataset()
        spec = {"keywords": ["w"], "k": 10, "radius": 5.0, "algorithm": "pspq"}
        router = ShardRouter(
            data, features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=4, layout="skew"),
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
        plan = partition_datasets(
            data, features, 4, layout="skew", layout_resolution=8
        )
        assert plan.layout is not None
        assert plan.layout.num_shards >= 1
        total = sum(len(shard.data_objects) for shard in plan.shards)
        assert total == len(data)

    def test_collinear_dataset(self):
        data = [DataObject(f"d{i}", float(i), 3.0) for i in range(30)]
        features = [
            FeatureObject(f"f{i}", float(i) + 0.25, 3.0, frozenset({"w"}))
            for i in range(10)
        ]
        plan = partition_datasets(
            data, features, 3, layout="skew", layout_resolution=6
        )
        seen = [obj.oid for shard in plan.shards for obj in shard.data_objects]
        assert sorted(seen) == sorted(obj.oid for obj in data)
        assert len(seen) == len(set(seen))

    def test_empty_dataset_keeps_one_valid_shard(self):
        plan = partition_datasets([], [], 4, layout="skew",
                                  layout_resolution=8)
        assert plan.layout is not None
        assert plan.layout.num_shards == 1
        box = plan.layout.boxes[0]
        assert box.max_x > box.min_x and box.max_y > box.min_y


# --------------------------------------------------------------------- #
# balance: the point of the skew layout on skewed data


class TestSkewBalancesCounts:
    @pytest.mark.parametrize("seed", [4301, 4302, 4303])
    def test_skew_beats_uniform_on_hotspot_data(self, seed):
        data, features = build_dataset("hotspot", seed)
        extent = dataset_extent(data, features)
        # The hotspot box spans several cells at this resolution, so the kd
        # split can actually divide the hot mass (a coarser layout grid
        # would see it as one unsplittable cell).
        histogram = data_cell_histogram(UniformGrid(extent, 50, 50), data)
        uniform = ShardLayout.uniform(extent, 4)
        skew = ShardLayout.skew(extent, 4, histogram, resolution=50)

        def imbalance(layout: ShardLayout) -> float:
            counts = [0] * layout.num_shards
            for obj in data:
                counts[layout.locate(obj.x, obj.y)] += 1
            return max(counts) / (sum(counts) / len(counts))

        assert imbalance(skew) < imbalance(uniform)
        # ~90% of objects sit in one corner box: a uniform 2x2 layout puts
        # nearly all of them in one shard, the skew layout spreads them.
        assert imbalance(uniform) > 2.0
        assert imbalance(skew) < 2.0


# --------------------------------------------------------------------- #
# identity: sharded == unsharded, bit-for-bit, on skew layouts


class TestSkewShardedIdentity:
    CASES = (("clustered", 4201, 4), ("hotspot", 4301, 3))

    @pytest.mark.parametrize("algorithm", [
        "pspq", "espq-len", "espq-sco", "auto",
    ])
    @pytest.mark.parametrize("kind,seed,shards", CASES,
                             ids=[f"{k}-{s}-s{n}" for k, s, n in CASES])
    def test_bit_for_bit_identity(self, kind, seed, shards, algorithm):
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
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(
                engines=1, default_grid_size=GRID, result_cache_capacity=0
            ),
            sharding=ShardingConfig(shards=shards, layout="skew"),
        )
        with router:
            assert router.plan.stats.kind == "skew"
            assert router.plan.grid_aligned(GRID)
            got = [
                [(e["oid"], e["score"]) for e in router.submit(spec)["results"]]
                for spec in specs
            ]
        with SPQEngine(data, features,
                       config=EngineConfig(grid_size=GRID)) as engine:
            for spec, entries in zip(specs, got):
                query = SpatialPreferenceQuery.create(
                    k=spec["k"], radius=spec["radius"],
                    keywords=set(spec["keywords"]),
                )
                result = reference_execute(
                    engine, query, algorithm=spec["algorithm"], grid_size=GRID
                )
                assert entries == [
                    (entry.obj.oid, entry.score) for entry in result
                ], f"{algorithm} diverged on {spec['keywords']}"
