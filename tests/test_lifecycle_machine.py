"""The in-process lifecycle state machine (hypothesis ``RuleBasedStateMachine``).

Random interleavings of every step a front door takes -- a query under each
algorithm name, a batch, a data append, a feature append, a delete, a
compaction, two compactions with no read between them (the stale-retiree
path), a full swap -- against an unsharded 2-engine ``QueryService`` and a
2-shard ``ShardRouter``.  A mirror of the whole dataset follows every write,
and every read is checked against ``tests/raw_oracle.py`` over that mirror:
the raw record stream, no index.  pSPQ and eSPQlen must match it exactly;
eSPQsco (and ``auto``, which is eSPQsco) under the tie contract.  A read
right after a compaction is the first read of a folded index, the stale
``rows_within`` memo trap.  Every compaction and swap runs under a
:class:`~invariants.RetiredIndexWatch`, and each run ends with the ledger
reconciled and the process back at its baseline (``tests/invariants.py``).

The cluster steps (kill-node, rejoin, overload burst) are not here yet.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from invariants import (
    ProcessBaseline,
    RetiredIndexWatch,
    assert_counters_reconcile,
)
from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import QueryService, ServiceConfig
from repro.sharding import ShardingConfig, ShardRouter

GRID = 4
WORDS = ("cafe", "bar", "museum", "park", "pier", "zoo")
ALGORITHMS = ("pspq", "espq-len", "espq-sco", "auto")
#: Pins every dataset's extent to (0, 0, 100, 100): appends land inside it.
CORNERS = [DataObject(f"corner{i}", x, y)
           for i, (x, y) in enumerate([(0, 0), (100, 0), (0, 100), (100, 100)])]


def make_dataset(seed: int, data: int = 30, features: int = 40):
    rng = random.Random(seed)
    return (
        CORNERS + [DataObject(f"s{seed}d{i}", rng.uniform(5, 95), rng.uniform(5, 95))
                   for i in range(data)],
        [FeatureObject(f"s{seed}f{i}", rng.uniform(5, 95), rng.uniform(5, 95),
                       rng.sample(WORDS, rng.randint(1, 3)))
         for i in range(features)],
    )


def answers_match(got, want) -> bool:
    """Scores bit for bit; oids wherever the top-k is unique (the entries
    scoring strictly above the rank-k score) -- the repo's tie contract."""
    if [score for _, score in got] != [score for _, score in want]:
        return False
    if not want:
        return True
    above = sum(1 for _, score in want if score > want[-1][1])
    return sorted(got[:above]) == sorted(want[:above])


queries = st.fixed_dictionaries({
    "keywords": st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True),
    "k": st.integers(1, 8),
    "radius": st.sampled_from([4.0, 12.5, 30.0]),
    "algorithm": st.sampled_from(ALGORITHMS),
})
points = st.tuples(st.floats(5, 95), st.floats(5, 95))


class LifecycleMachine(RuleBasedStateMachine):
    SHARDED = False

    def __init__(self) -> None:
        super().__init__()
        self.baseline = ProcessBaseline()
        self.data, self.features = make_dataset(0)
        config = ServiceConfig(engines=2, default_grid_size=GRID, result_cache_capacity=8)
        if self.SHARDED:
            self.front = ShardRouter(
                self.data, self.features, engine_config=EngineConfig(grid_size=GRID),
                service_config=config, sharding=ShardingConfig(shards=2),
            )
        else:
            self.front = QueryService(
                self.data, self.features, engine_config=EngineConfig(grid_size=GRID),
                config=config,
            )
        self.front.start()
        self.serial = 0
        self.read_since_change = False

    def engines(self):
        if self.SHARDED:
            return [e for service in self.front.services for e in service.engines]
        return self.front.engines

    def fresh_oid(self, kind: str) -> str:
        self.serial += 1
        return f"new-{kind}{self.serial}"

    # ------------------------------------------------------------ checks

    def check(self, spec, response) -> None:
        algorithm = "espq-sco" if spec["algorithm"] == "auto" else spec["algorithm"]
        query = SpatialPreferenceQuery.create(
            k=spec["k"], radius=spec["radius"], keywords=set(spec["keywords"])
        )
        with SPQEngine(self.data, self.features,
                       config=EngineConfig(grid_size=GRID)) as mirror:
            want = [(entry.obj.oid, entry.score)
                    for entry in raw_execute(mirror, query, algorithm, GRID)]
        got = [(entry["oid"], entry["score"]) for entry in response["results"]]
        if algorithm == "espq-sco":
            assert answers_match(got, want), (spec, got, want)
        else:
            assert got == want, (spec, got, want)
        self.read_since_change = True

    # ------------------------------------------------------------- reads

    @rule(spec=queries)
    def query(self, spec):
        self.check(spec, self.front.submit(dict(spec, grid_size=GRID)))

    @rule(specs=st.lists(queries, min_size=1, max_size=3))
    def batch(self, specs):
        responses = self.front.submit_many([dict(s, grid_size=GRID) for s in specs])
        for spec, response in zip(specs, responses):
            self.check(spec, response)

    # ------------------------------------------------------------ writes

    @rule(where=st.lists(points, min_size=1, max_size=3))
    def append_data(self, where):
        appended = [DataObject(self.fresh_oid("d"), x, y) for x, y in where]
        self.front.apply_objects(append_data=appended)
        self.data = self.data + appended

    @rule(where=points, words=st.lists(st.sampled_from(WORDS), min_size=1,
                                       max_size=3, unique=True))
    def append_feature(self, where, words):
        feature = FeatureObject(self.fresh_oid("f"), where[0], where[1], words)
        self.front.apply_objects(append_features=[feature])
        self.features = self.features + [feature]

    @rule(pick=st.integers(0, 10_000), of_data=st.booleans())
    def delete(self, pick, of_data):
        pool = self.data[len(CORNERS):] if of_data else self.features
        if not pool:
            return
        oid = pool[pick % len(pool)].oid
        if of_data:
            self.front.apply_objects(delete_data_oids=[oid])
            self.data = [obj for obj in self.data if obj.oid != oid]
        else:
            self.front.apply_objects(delete_feature_oids=[oid])
            self.features = [obj for obj in self.features if obj.oid != oid]

    # ---------------------------------------------------- state changes
    # Each is watched: the indexes it retires must be gone once their
    # successors served the next read, which asks a k no other read asks,
    # so it misses the result cache.

    def successor_read(self, spec):
        self.serial += 1
        self.query(dict(spec, k=8 + self.serial))

    @precondition(lambda self: self.read_since_change)
    @rule(spec=queries)
    def compact(self, spec):
        with RetiredIndexWatch(self.engines):
            self.front.compact()
            self.successor_read(spec)

    @precondition(lambda self: self.read_since_change)
    @rule(spec=queries, where=points)
    def compact_twice(self, spec, where):
        """Compact, write, compact, read: the first compaction's retiree is
        two generations old when the read comes and must be gone, not
        folded."""
        with RetiredIndexWatch(self.engines):
            self.front.compact()
            self.append_data([where])
            self.front.compact()
            self.successor_read(spec)

    @precondition(lambda self: self.read_since_change)
    @rule(seed=st.integers(1, 50), spec=queries)
    def swap(self, seed, spec):
        data, features = make_dataset(seed)
        with RetiredIndexWatch(self.engines):
            self.front.swap_datasets(data, features)
            self.data, self.features = data, features
            self.successor_read(spec)

    @invariant()
    def ledger_reconciles(self):
        assert_counters_reconcile(self.front.stats())

    def teardown(self):
        self.front.shutdown()
        self.baseline.assert_restored()


SETTINGS = settings(
    max_examples=50,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class ShardedLifecycleMachine(LifecycleMachine):
    SHARDED = True


TestUnshardedLifecycle = LifecycleMachine.TestCase
TestUnshardedLifecycle.settings = SETTINGS
TestShardedLifecycle = ShardedLifecycleMachine.TestCase
TestShardedLifecycle.settings = SETTINGS
