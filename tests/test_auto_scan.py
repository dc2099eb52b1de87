"""``auto`` is the centralized oracle, bit for bit, ties included.

``algorithm="auto"`` runs no paper job: one score-ordered scan applies
eSPQsco's Lemma 3 across the whole grid (``DatasetIndex.scan``).  Its answer
must be exactly the centralized oracle's positively scored prefix -- the
same object ids in the same order with the same float scores, ties at the
k-th score resolved by oid -- on every surface and dataset state:

* an unsharded engine (``execute`` and ``execute_many``);
* a 2-shard ``ShardRouter`` on a grid that splits no shard (aligned) and
  on one that does (non-aligned);
* a real ``repro serve --cluster 2`` fleet;
* live data and feature appends, both kinds of tombstone and a
  delete-then-append replace, in one write batch or two;
* k = 1, k past the number of matching objects, keyword sets that match
  nothing and keyword sets of stop words only.

The datasets sit on a coarse lattice and draw keywords from a tiny
vocabulary, so equal distances and equal scores -- the tie cases a per-cell
bound gets wrong -- are the common case, not the rare one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from typing import List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.centralized import CentralizedSPQ
from repro.core.engine import EngineConfig, SPQEngine
from repro.datagen.io import save_dataset
from repro.exceptions import ResultIntegrityError
from repro.index.dataset_index import DatasetIndex
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import ServiceConfig
from repro.server.protocol import objects_body
from repro.sharding import ShardingConfig, ShardRouter
from repro.text.tokenizer import DEFAULT_STOPWORDS

#: Feature vocabulary; "common" is the everywhere-matching extreme.
VOCABULARY = ("w1", "w2", "w3", "w4", "common")
#: Keyword sets no feature carries: an unknown word, and stop words only.
NO_MATCH = (("zz-none",), ("the", "and"))
#: The lattice is [0, 4] x [0, 4] in steps of 0.5; the two anchors pin the
#: extent to it, so every lattice point is a legal append.
STEP = 0.5
SIDE = 8
ANCHORS = (DataObject("anchor-0", 0.0, 0.0), DataObject("anchor-1", 4.0, 4.0))

Pair = Tuple[str, float]

_points = st.tuples(st.integers(0, SIDE), st.integers(0, SIDE)).map(
    lambda p: (p[0] * STEP, p[1] * STEP)
)
_keywords = st.sets(st.sampled_from(VOCABULARY), min_size=1, max_size=4)


@st.composite
def datasets(draw):
    """Lattice data (oids drawn so tie order is not storage order) and
    features over the tiny vocabulary."""
    points = draw(st.lists(_points, min_size=1, max_size=24))
    names = draw(st.permutations(range(len(points))))
    data = [DataObject(f"d{name:02d}", x, y) for name, (x, y) in zip(names, points)]
    features = [
        FeatureObject(f"f{number:02d}", x, y, keywords=words)
        for number, ((x, y), words) in enumerate(
            draw(st.lists(st.tuples(_points, _keywords), min_size=1, max_size=16))
        )
    ]
    return [*ANCHORS, *data], features


@st.composite
def queries(draw):
    kind = draw(st.sampled_from(("vocabulary", "vocabulary", "vocabulary", "no-match")))
    keywords = (
        draw(st.sets(st.sampled_from(VOCABULARY + ("zz-none",)), min_size=1, max_size=3))
        if kind == "vocabulary" else draw(st.sampled_from(NO_MATCH))
    )
    return SpatialPreferenceQuery.create(
        k=draw(st.sampled_from((1, 2, 3, 5, 100))),
        radius=draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5, 7.0))),
        keywords=keywords,
    )


@st.composite
def writes(draw, data: Sequence[DataObject], features: Sequence[FeatureObject]):
    """Write batches: appends, tombstones of base objects, replaces."""
    batches = []
    for step in range(draw(st.integers(1, 4))):
        batch = {"append_data": [], "append_features": [],
                 "delete_data_oids": [], "delete_feature_oids": []}
        for number, (x, y) in enumerate(draw(st.lists(_points, max_size=3))):
            batch["append_data"].append(DataObject(f"n{step}-{number}", x, y))
        for number, ((x, y), words) in enumerate(
            draw(st.lists(st.tuples(_points, _keywords), max_size=2))
        ):
            batch["append_features"].append(
                FeatureObject(f"g{step}-{number}", x, y, keywords=words)
            )
        if draw(st.booleans()):
            batch["delete_data_oids"].append(draw(st.sampled_from(data)).oid)
        if draw(st.booleans()):
            batch["delete_feature_oids"].append(draw(st.sampled_from(features)).oid)
        batches.append(batch)
    if draw(st.booleans()):
        # A replace: a base object deleted and re-appended under its own
        # oid somewhere else, in this batch or the next.
        victim = draw(st.sampled_from(data))
        x, y = draw(_points)
        moved = DataObject(victim.oid, x, y)
        if draw(st.booleans()):
            batches.append({"delete_data_oids": [victim.oid], "append_data": [moved]})
        else:
            batches += [{"delete_data_oids": [victim.oid]}, {"append_data": [moved]}]
    return batches


def oracle(data, features, query) -> List[Pair]:
    """The centralized oracle's positively scored prefix."""
    result = CentralizedSPQ(data, features).evaluate(query)
    return [(entry.obj.oid, entry.score) for entry in result if entry.score > 0.0]


def entries(result) -> List[Pair]:
    if isinstance(result, dict):
        return [(entry["oid"], entry["score"]) for entry in result["results"]]
    return list(zip(result.object_ids(), result.scores()))


def spec(query, grid) -> dict:
    return {"keywords": sorted(query.keywords), "k": query.k, "radius": query.radius,
            "grid_size": grid, "algorithm": "auto"}


def apply_all(target, batches) -> None:
    for batch in batches:
        target(**batch)


def mirror(data, features, batches):
    """The bulk-swapped state after ``batches``: survivors in storage order,
    appends at the tail."""
    data, features = list(data), list(features)
    for batch in batches:
        gone = set(batch.get("delete_data_oids", ()))
        data = [obj for obj in data if obj.oid not in gone] + batch.get("append_data", [])
        gone = set(batch.get("delete_feature_oids", ()))
        features = [f for f in features if f.oid not in gone] + batch.get(
            "append_features", []
        )
    return data, features


#: Few, slow-ish examples: each builds an engine or a router.
SCAN_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
ROUTER_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestUnsharded:
    @SCAN_SETTINGS
    @given(dataset=datasets(), batch=st.lists(queries(), min_size=1, max_size=4),
           grid=st.integers(1, 9))
    def test_auto_is_the_oracle(self, dataset, batch, grid):
        with SPQEngine(*dataset, EngineConfig(grid_size=grid)) as engine:
            many = engine.execute_many(batch, algorithm="auto")
            for query, batched in zip(batch, many):
                single = engine.execute(query, algorithm="auto")
                assert entries(single) == oracle(*dataset, query), query
                assert entries(batched) == entries(single)

    @SCAN_SETTINGS
    @given(data=st.data(), dataset=datasets(), grid=st.integers(1, 9))
    def test_live_delta_is_a_bulk_swap(self, data, dataset, grid):
        batches = data.draw(writes(*dataset))
        query_batch = data.draw(st.lists(queries(), min_size=1, max_size=3))
        with SPQEngine(*dataset, EngineConfig(grid_size=grid)) as engine:
            apply_all(engine.apply_updates, batches)
            final = mirror(*dataset, batches)
            assert engine.materialize_datasets() == final
            for query in query_batch:
                got = engine.execute(query, algorithm="auto")
                assert entries(got) == oracle(*final, query), (query, batches)


class TestSharded:
    def _check(self, data, dataset, grid):
        batches = data.draw(writes(*dataset)) if data.draw(st.booleans()) else []
        query_batch = data.draw(st.lists(queries(), min_size=1, max_size=3))
        router = ShardRouter(
            *dataset,
            engine_config=EngineConfig(grid_size=grid),
            service_config=ServiceConfig(engines=1, result_cache_capacity=0,
                                         default_grid_size=grid),
            sharding=ShardingConfig(shards=2),
        )
        with router:
            apply_all(router.apply_objects, batches)
            final = mirror(*dataset, batches)
            for query in query_batch:
                got = router.submit(spec(query, grid))
                assert entries(got) == oracle(*final, query), (query, batches)
        return router

    @ROUTER_SETTINGS
    @given(data=st.data(), dataset=datasets(), grid=st.sampled_from((2, 4, 6, 8)))
    def test_aligned_grid(self, data, dataset, grid):
        router = self._check(data, dataset, grid)
        assert router.plan.layout.grid_aligned(grid)

    @ROUTER_SETTINGS
    @given(data=st.data(), dataset=datasets(), grid=st.sampled_from((3, 5, 7)))
    def test_non_aligned_grid(self, data, dataset, grid):
        router = self._check(data, dataset, grid)
        assert not router.plan.layout.grid_aligned(grid)


# --------------------------------------------------------------------- #
# the named cases, on one fixed dataset


def fixed_dataset():
    data = [DataObject(f"p{n:02d}", (n % 7) * STEP, (n // 7) * STEP) for n in range(40)]
    features = [
        FeatureObject(f"q{n:02d}", ((n * 3) % 9) * STEP, ((n * 5) % 9) * STEP,
                      keywords=VOCABULARY[n % 3: n % 3 + 2] + ("common",))
        for n in range(12)
    ]
    return [*ANCHORS, *data], features


NAMED_QUERIES = {
    "k=1": SpatialPreferenceQuery.create(k=1, radius=1.0, keywords={"w1"}),
    "k past the matches": SpatialPreferenceQuery.create(
        k=500, radius=1.0, keywords={"w1", "w2"}),
    "tied boundary": SpatialPreferenceQuery.create(k=3, radius=1.5, keywords={"common"}),
    "zero match": SpatialPreferenceQuery.create(k=5, radius=2.0, keywords={"zz-none"}),
    "stop words only": SpatialPreferenceQuery.create(
        k=5, radius=2.0, keywords=set(NO_MATCH[1])),
}


@pytest.mark.parametrize("name", sorted(NAMED_QUERIES))
def test_named_case(name):
    dataset = fixed_dataset()
    query = NAMED_QUERIES[name]
    want = oracle(*dataset, query)
    with SPQEngine(*dataset, EngineConfig(grid_size=5)) as engine:
        assert entries(engine.execute(query, algorithm="auto")) == want
    if name in ("zero match", "stop words only"):
        assert want == []
        assert set(NO_MATCH[1]) <= DEFAULT_STOPWORDS
    if name == "k past the matches":
        assert 0 < len(want) < query.k


_BANNER = re.compile(r"repro serve: listening on (http://\S+)")


def test_serve_cluster_2(tmp_path):
    """A real ``repro serve --cluster 2`` fleet answers ``auto`` as the
    oracle does, before and after a write batch with a replace."""
    data, features = fixed_dataset()
    dataset_path = tmp_path / "dataset.tsv"
    save_dataset(dataset_path, data, features)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    log_path = tmp_path / "serve.log"
    with open(log_path, "wb") as log:
        front = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--input", str(dataset_path),
             "--port", "0", "--cluster", "2", "--grid-size", "5", "--engines", "1",
             "--result-cache", "0", "--node-log-dir", str(tmp_path / "nodes")],
            stdout=log, stderr=subprocess.STDOUT, env=dict(os.environ, PYTHONPATH=src),
        )

    def post(url, body):
        request = urllib.request.Request(url, data=json.dumps(body).encode())
        with urllib.request.urlopen(request, timeout=20) as reply:
            return json.loads(reply.read())

    try:
        deadline = time.monotonic() + 60
        while not _BANNER.search(log_path.read_text(errors="replace")):
            assert front.poll() is None and time.monotonic() < deadline, (
                log_path.read_text()
            )
            time.sleep(0.05)
        url = _BANNER.search(log_path.read_text()).group(1)
        for query in NAMED_QUERIES.values():
            got = post(f"{url}/query", spec(query, 5))
            assert entries(got) == oracle(data, features, query)
        moved = DataObject("p03", 3.5, 3.5)
        batch = {"delete_data_oids": ["p03", "p10"], "append_data": [moved],
                 "delete_feature_oids": ["q01"],
                 "append_features": [FeatureObject("q99", 3.5, 3.0, ("common", "w1"))]}
        post(f"{url}/objects", objects_body(batch))
        final = mirror(data, features, [batch])
        for query in NAMED_QUERIES.values():
            got = post(f"{url}/query", spec(query, 5))
            assert entries(got) == oracle(*final, query)
    finally:
        front.terminate()
        try:
            front.wait(timeout=30)
        except subprocess.TimeoutExpired:
            front.kill()
            front.wait()


# --------------------------------------------------------------------- #
# the merge still checks what the scan reports


class TestScanIntegrity:
    QUERY = SpatialPreferenceQuery.create(k=3, radius=1.5, keywords={"common"})

    def test_a_leaked_tombstoned_oid_raises(self, monkeypatch):
        """A block whose tombstone filter is bypassed leaks the deleted row;
        the engine's merge refuses it, as it does a job's."""
        with SPQEngine(*fixed_dataset(), EngineConfig(grid_size=5)) as engine:
            victim = engine.execute(self.QUERY, algorithm="auto").object_ids()[0]
            engine.apply_updates(delete_data_oids=[victim])
            assert victim not in engine.execute(self.QUERY, algorithm="auto").object_ids()
            scan = DatasetIndex.scan

            def leaky(index, query, hits, snapshot=None):
                blind = dataclasses.replace(snapshot, deleted_data_oids=frozenset())
                return scan(index, query, hits, blind)

            monkeypatch.setattr(DatasetIndex, "scan", leaky)
            with pytest.raises(ResultIntegrityError, match=f"deleted data object '{victim}'"):
                engine.execute(self.QUERY, algorithm="auto")

    def test_an_unknown_oid_raises(self, monkeypatch):
        scan = DatasetIndex.scan

        def ghostly(index, query, hits, snapshot=None):
            result = scan(index, query, hits, snapshot)
            result.outputs.append((1, "ghost", result.outputs[-1][2]))
            return result

        monkeypatch.setattr(DatasetIndex, "scan", ghostly)
        with SPQEngine(*fixed_dataset(), EngineConfig(grid_size=5)) as engine:
            with pytest.raises(ResultIntegrityError, match="unknown data object 'ghost'"):
                engine.execute(self.QUERY, algorithm="auto")
