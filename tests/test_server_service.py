"""Tests for the query service: identity, batching, caching, stats."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from invariants import standing_invariants
from raw_oracle import raw_execute
from repro.core.engine import EngineConfig, SPQEngine
from repro.exceptions import InvalidQueryError
from repro.index.delta import materialize
from repro.model.objects import FeatureObject
from repro.model.query import SpatialPreferenceQuery
from repro.server import MicroBatcher, QueryService, ServiceConfig, batching
from repro.server.cache import ResultCache

GRID = 10


def make_service(dataset, **service_kwargs) -> QueryService:
    data, features = dataset
    service_kwargs.setdefault("engines", 1)
    service_kwargs.setdefault("default_grid_size", GRID)
    return QueryService(
        data,
        features,
        engine_config=EngineConfig(grid_size=GRID),
        config=ServiceConfig(**service_kwargs),
    )


@pytest.fixture()
def service(small_uniform_dataset):
    with make_service(small_uniform_dataset) as svc:
        yield svc


class TestSubmitIdentity:
    def test_submit_matches_offline_execute(self, service, small_uniform_dataset):
        data, features = small_uniform_dataset
        spec = {"keywords": ["w0001"], "k": 5, "radius": 2.0}
        response = service.submit(spec)
        with SPQEngine(data, features) as engine:
            offline = raw_execute(
                engine,
                SpatialPreferenceQuery.create(k=5, radius=2.0, keywords={"w0001"}),
                algorithm="espq-sco",
                grid_size=GRID,
            )
        assert [(e["oid"], e["score"]) for e in response["results"]] == [
            (e.obj.oid, e.score) for e in offline
        ]
        assert response["cached"] is False
        assert response["algorithm"] == "espq-sco"

    def test_submit_many_returns_input_order(self, service):
        specs = [
            {"keywords": [f"w000{i}"], "k": 3, "radius": 2.0} for i in (1, 2, 3)
        ]
        responses = service.submit_many(specs)
        assert [r["keywords"] for r in responses] == [s["keywords"] for s in specs]

    def test_auto_reports_planned_algorithm(self, service):
        response = service.submit(
            {"keywords": ["w0002"], "k": 3, "radius": 2.0, "algorithm": "auto"}
        )
        assert response["planned_algorithm"] == "global-scan"

    def test_stats_flag_attaches_stats(self, service):
        response = service.submit(
            {"keywords": ["w0002"], "k": 3, "radius": 2.0, "stats": True}
        )
        assert "simulated_seconds" in response["stats"]
        bare = service.submit({"keywords": ["w0002"], "k": 3, "radius": 2.0})
        assert "stats" not in bare

    def test_response_is_json_serializable(self, service):
        response = service.submit(
            {"keywords": ["w0001"], "k": 2, "radius": 2.0, "stats": True}
        )
        json.dumps(response)


class TestResultCache:
    def test_repeat_hits_cache(self, service):
        spec = {"keywords": ["w0003"], "k": 4, "radius": 2.0}
        first = service.submit(spec)
        batches_after_first = service.stats()["batching"]["batches"]
        second = service.submit(spec)
        assert first["cached"] is False
        assert second["cached"] is True
        # The hit never reached an engine: no new micro-batch ran.
        assert service.stats()["batching"]["batches"] == batches_after_first
        assert second["results"] == first["results"]

    def test_cached_hit_can_still_attach_stats(self, service):
        spec = {"keywords": ["w0003"], "k": 4, "radius": 2.0}
        service.submit(spec)
        with_stats = service.submit({**spec, "stats": True})
        assert with_stats["cached"] is True
        assert "simulated_seconds" in with_stats["stats"]

    def test_equivalent_spellings_share_an_entry(self, service):
        first = service.submit(
            {"keywords": ["w0004", "w0005"], "k": 4, "radius": 2.0}
        )
        second = service.submit(
            {"keywords": "w0005,w0004", "k": 4, "radius": 2.0}
        )
        third = service.submit(
            {"keywords": [" w0005", "w0004 "], "k": 4, "radius": 2.0}
        )
        assert first["cached"] is False
        assert second["cached"] is True
        assert third["cached"] is True

    def test_cached_entries_are_isolated_from_caller_mutation(self, service):
        spec = {"keywords": ["w0008"], "k": 3, "radius": 2.0, "stats": True}
        first = service.submit(spec)
        first["stats"]["index"]["candidate_features"] = "clobbered"
        first["results"].clear()
        second = service.submit(spec)
        assert second["cached"] is True
        assert second["results"] != []
        # The clobbered key never reached the cached copy.
        assert second["stats"]["index"]["candidate_features"] != "clobbered"

    def test_dataset_swap_invalidates(self, small_uniform_dataset):
        data, features = small_uniform_dataset
        with make_service(small_uniform_dataset) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            service.submit(spec)
            service.swap_datasets(data[: len(data) // 2], features)
            response = service.submit(spec)
            assert response["cached"] is False

    def test_dataset_swap_rederives_default_radius(self, small_uniform_dataset):
        from repro.model.objects import DataObject, FeatureObject

        with make_service(small_uniform_dataset) as service:
            old_radius = service.submit({"keywords": ["w0001"], "k": 1})["radius"]
            # A much larger extent must re-derive a proportionally larger
            # default radius: 10% of the new grid's cell side.
            service.swap_datasets(
                [DataObject("d1", 0.0, 0.0), DataObject("d2", 10_000.0, 10_000.0)],
                [FeatureObject("f1", 5_000.0, 5_000.0, frozenset({"w0001"}))],
            )
            new_radius = service.submit({"keywords": ["w0001"], "k": 1})["radius"]
            assert new_radius == pytest.approx(10_000.0 / GRID * 0.10)
            assert new_radius > old_radius * 50

    def test_capacity_zero_disables(self, small_uniform_dataset):
        with make_service(
            small_uniform_dataset, result_cache_capacity=0
        ) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            assert service.submit(spec)["cached"] is False
            assert service.submit(spec)["cached"] is False
            assert service.stats()["result_cache"]["hits"] == 0

    def test_cache_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_submit_many_mixes_hits_and_misses(self, service):
        spec = {"keywords": ["w0006"], "k": 3, "radius": 2.0}
        other = {"keywords": ["w0007"], "k": 3, "radius": 2.0}
        service.submit(spec)
        responses = service.submit_many([spec, other, spec])
        assert [r["cached"] for r in responses] == [True, False, True]
        assert responses[0]["keywords"] == ["w0006"]
        assert responses[1]["keywords"] == ["w0007"]


class TestValidation:
    @pytest.mark.parametrize("spec", [
        {"keywords": []},
        {"keywords": "   "},
        {"keywords": ["w0001"], "k": 0},
        {"keywords": ["w0001"], "k": True},
        {"keywords": ["w0001"], "radius": "big"},
        {"keywords": ["w0001"], "radius": float("nan")},
        {"keywords": ["w0001"], "radius": float("inf")},
        {"keywords": ["w0001"], "grid_size": 0},
        {"keywords": ["w0001"], "algorithm": "bogus"},
        {"keywords": ["w0001"], "score_mode": "bogus"},
        {"keywords": ["w0001"], "algorithm": "auto", "score_mode": "influence"},
        {"keywords": ["w0001"], "stats": "yes"},
        {"keywords": ["w0001"], "keyword": ["typo"]},
        "not an object",
    ])
    def test_invalid_requests_rejected(self, service, spec):
        with pytest.raises(InvalidQueryError):
            service.submit(spec)

    def test_invalid_request_does_not_fail_others(self, service):
        with pytest.raises(InvalidQueryError):
            service.submit({"keywords": ["w0001"], "k": -1})
        response = service.submit({"keywords": ["w0001"], "k": 3, "radius": 2.0})
        assert response["results"] is not None

    def test_not_started_rejected(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        with pytest.raises(RuntimeError, match="not started"):
            service.submit({"keywords": ["w0001"]})
        service.shutdown()

    def test_submit_after_shutdown_rejected(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        service.start()
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit({"keywords": ["w0001"]})

    def test_cached_spec_after_shutdown_rejected(self, small_uniform_dataset):
        """Regression: the result cache must not outlive the service."""
        service = make_service(small_uniform_dataset)
        spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
        with service:
            service.submit(spec)
            assert service.submit(spec)["cached"] is True
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(spec)


def record_batches(monkeypatch, hold: int = 0):
    """Patch ``execute_many`` to log ``(thread id, first keyword of each
    item)`` per call; the first ``hold`` calls block until released.

    Returns ``(calls, held, release)``: ``held`` is released once per
    blocked call.
    """
    calls, lock = [], threading.Lock()
    held, release = threading.Semaphore(0), threading.Event()
    real_execute_many = SPQEngine.execute_many

    def recording(engine, queries, *args, **kwargs):
        with lock:
            words = [sorted(item.query.keywords)[0] for item in queries]
            calls.append((threading.get_ident(), words))
            blocking = len(calls) <= hold
        if blocking:
            held.release()
            assert release.wait(timeout=30), "test never released the batch"
        return real_execute_many(engine, queries, *args, **kwargs)

    monkeypatch.setattr(SPQEngine, "execute_many", recording)
    return calls, held, release


def wait_for_queue(service, depth: int) -> None:
    deadline = time.monotonic() + 30
    while service.stats()["batching"]["queue_depth"] < depth:
        assert time.monotonic() < deadline, "requests never queued"
        time.sleep(0.002)


class TestMicroBatching:
    def test_idle_service_runs_the_request_on_the_submitting_thread(
        self, small_uniform_dataset, monkeypatch
    ):
        calls, _, _ = record_batches(monkeypatch)
        with make_service(
            small_uniform_dataset, engines=2, result_cache_capacity=0
        ) as service:
            service.submit({"keywords": ["w0001"], "k": 3, "radius": 2.0})
            service.submit({"keywords": ["w0002"], "k": 3, "radius": 2.0})
            # ``/batch`` always queues, so its items still share a batch.
            service.submit_many(
                [{"keywords": [f"w000{i}"], "k": 3, "radius": 2.0} for i in (3, 4)]
            )
            stats = service.stats()["batching"]
        me = threading.get_ident()
        assert [thread == me for thread, _ in calls] == [True, True, False]
        assert [words for _, words in calls] == [
            ["w0001"], ["w0002"], ["w0003", "w0004"]
        ]
        assert (stats["batches"], stats["batched_requests"]) == (3, 4)

    def test_concurrent_requests_share_batches(
        self, small_uniform_dataset, monkeypatch
    ):
        self.held_engines_queue_requests_that_run_fifo_in_batches(
            small_uniform_dataset, monkeypatch, engines=1
        )

    def test_concurrent_requests_share_batches_over_two_engines(
        self, small_uniform_dataset, monkeypatch
    ):
        self.held_engines_queue_requests_that_run_fifo_in_batches(
            small_uniform_dataset, monkeypatch, engines=2
        )

    @staticmethod
    def held_engines_queue_requests_that_run_fifo_in_batches(
        small_uniform_dataset, monkeypatch, engines
    ):
        """Natural batching: while every engine is held by an inline run,
        more than ``MAX_BATCH`` requests queue up; released, they run in
        submission order, at most ``MAX_BATCH`` to a batch."""
        calls, held, release = record_batches(monkeypatch, hold=engines)
        queued = batching.MAX_BATCH + 2
        words = [f"w00{10 + i}" for i in range(engines + queued)]
        results = []
        with make_service(
            small_uniform_dataset, engines=engines, result_cache_capacity=0
        ) as service:
            threads = [
                threading.Thread(target=lambda w=word: results.append(
                    service.submit({"keywords": [w], "k": 3, "radius": 2.0})
                ))
                for word in words
            ]
            for thread in threads[:engines]:
                thread.start()
                assert held.acquire(timeout=30), "no engine ran inline"
            for depth, thread in enumerate(threads[engines:], start=1):
                thread.start()
                wait_for_queue(service, depth)
            release.set()
            for thread in threads:
                thread.join()
            stats = service.stats()["batching"]
        assert len(results) == len(words)
        inline, dispatched = calls[:engines], calls[engines:]
        me = {thread.ident for thread in threads[:engines]}
        assert {thread for thread, _ in inline} == me
        assert sorted(batch for _, batch in inline) == [[w] for w in words[:engines]]
        # Dispatchers may finish in any order; each took a contiguous run
        # from the front of the queue.
        runs = sorted((batch for _, batch in dispatched), key=lambda b: words.index(b[0]))
        assert all(1 <= len(run) <= batching.MAX_BATCH for run in runs)
        assert [word for run in runs for word in run] == words[engines:]
        assert stats["batched_requests"] == len(words)
        assert stats["max_batch_observed"] == batching.MAX_BATCH
        assert stats["max_batch"] == batching.MAX_BATCH

    def test_execution_error_fails_request_not_service(
        self, service, monkeypatch
    ):
        def boom(self, *args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(SPQEngine, "execute_many", boom)
        with pytest.raises(RuntimeError, match="engine exploded"):
            service.submit({"keywords": ["w0021"], "k": 3, "radius": 2.0})
        monkeypatch.undo()
        response = service.submit({"keywords": ["w0021"], "k": 3, "radius": 2.0})
        assert response["cached"] is False
        stats = service.stats()["requests"]
        assert stats["failed"] == 1
        assert stats["completed"] >= 1


class TestLifecycle:
    def test_shutdown_idempotent_and_engines_reclosable(
        self, small_uniform_dataset
    ):
        service = make_service(small_uniform_dataset, engines=2)
        service.start()
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        service.shutdown()
        service.shutdown()  # restart-path double shutdown
        for engine in service.engines:
            engine.close()  # close-while-pooled: already closed by shutdown
            engine.close()
        assert service.closed

    def test_start_idempotent(self, small_uniform_dataset):
        service = make_service(small_uniform_dataset)
        service.start()
        service.start()
        service.shutdown()

    def test_engine_pool_shares_index_cache(self, small_uniform_dataset):
        with make_service(
            small_uniform_dataset,
            engines=2,
            result_cache_capacity=0,
        ) as service:
            spec = {"keywords": ["w0001"], "k": 3, "radius": 2.0}
            for _ in range(4):
                service.submit(spec)
            cache = service.stats()["index_cache"]
            # One build ever, however many engines served the requests.
            assert cache["misses"] == 1
            assert cache["hits"] >= 3

    def test_rejects_nonpositive_engine_pool(self, small_uniform_dataset):
        with pytest.raises(ValueError, match="engines"):
            make_service(small_uniform_dataset, engines=0)


class TestEnginePool:
    """The batcher's rules, driven by hand: no dispatcher runs until the
    test starts one, so every interleaving below is constructed."""

    @staticmethod
    def batcher(monkeypatch, workers=1, hold=None):
        ran = []

        def execute(engine, batch):
            if hold is not None and not ran:
                assert hold.wait(30)
            ran.append((engine, [p.payload for p in batch]))
            for pending in batch:
                pending.complete(pending.payload)

        dispatch = MicroBatcher._run_dispatcher
        monkeypatch.setattr(MicroBatcher, "_run_dispatcher", lambda self: None)
        batcher = MicroBatcher(execute, workers)
        batcher.start()
        dispatcher = threading.Thread(target=dispatch, args=(batcher,))
        return batcher, ran, dispatcher

    def test_a_request_runs_inline_only_while_nothing_is_queued(self, monkeypatch):
        batcher, ran, dispatcher = self.batcher(monkeypatch)
        assert batcher.submit("a", inline=True).wait(0) == "a"
        queued = batcher.submit("b")  # a /batch item always queues
        late = batcher.submit("c", inline=True)  # must not overtake it
        assert (batcher.queue_depth(), ran) == (2, [(0, ["a"])])
        dispatcher.start()
        assert (queued.wait(30), late.wait(30)) == ("b", "c")
        batcher.stop()
        dispatcher.join(30)
        assert ran == [(0, ["a"]), (0, ["b", "c"])]

    def test_a_dispatcher_takes_work_only_with_an_idle_engine(self, monkeypatch):
        release = threading.Event()
        batcher, ran, dispatcher = self.batcher(monkeypatch, hold=release)
        inline = threading.Thread(target=batcher.submit, args=("a",), kwargs={"inline": True})
        inline.start()
        deadline = time.monotonic() + 30
        while batcher._idle:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        queued = batcher.submit("b")
        dispatcher.start()
        time.sleep(0.05)
        assert (ran, batcher.queue_depth()) == ([], 1)
        release.set()
        assert queued.wait(30) == "b"
        inline.join(30)
        batcher.stop()
        dispatcher.join(30)
        assert ran == [(0, ["a"]), (0, ["b"])]
        with pytest.raises(RuntimeError, match="shut down"):
            batcher.submit("c", inline=True)


class TestInlineRaces:
    SPECS = [{"keywords": [f"w000{i}"], "k": 5, "radius": 2.0} for i in range(1, 9)]

    @pytest.mark.parametrize("engines", [1, 2])
    def test_nothing_is_lost_under_a_racing_swap_and_compaction(
        self, small_uniform_dataset, engines
    ):
        """8 clients x 50 reads, inline or queued as the pool allows, while
        a compaction and a swap race them.  Neither changes the dataset the
        reads see (the delta is staged first, the swap installs what the
        compaction folded), so every answer equals one oracle."""
        data, features = small_uniform_dataset
        appended = [
            FeatureObject(f"race-f{i}", f.x, f.y, ("w0001", "w0002", "w0005"))
            for i, f in enumerate(features[:6])
        ]
        with make_service(
            small_uniform_dataset, engines=engines, result_cache_capacity=0
        ) as service:
            service.apply_objects(
                append_features=appended,
                delete_feature_oids=[features[-1].oid],
                delete_data_oids=[data[0].oid],
            )
            staged = materialize(data, features, service.delta.snapshot())
            with SPQEngine(*staged) as engine:
                oracle = {
                    spec["keywords"][0]: [
                        (e.obj.oid, e.score)
                        for e in raw_execute(
                            engine,
                            SpatialPreferenceQuery.create(
                                k=5, radius=2.0, keywords=set(spec["keywords"])
                            ),
                            grid_size=GRID,
                        )
                    ]
                    for spec in self.SPECS
                }
            answers, failures = [], []

            def client(number):
                for i in range(50):
                    spec = self.SPECS[(number + i) % len(self.SPECS)]
                    try:
                        response = service.submit(spec)
                    except BaseException as exc:  # noqa: BLE001 - asserted below
                        failures.append(exc)
                        continue
                    answers.append((
                        spec["keywords"][0],
                        [(e["oid"], e["score"]) for e in response["results"]],
                    ))

            def churn():
                while len(answers) < 40:
                    time.sleep(0.001)
                assert service.compact()["compacted"]
                service.swap_datasets(*staged)

            threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
            racer = threading.Thread(target=churn)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the pool's check-then-act
            try:
                for thread in [*threads, racer]:
                    thread.start()
                for thread in [*threads, racer]:
                    thread.join(120)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            stats = service.stats()
        assert failures == []
        assert len(answers) == 8 * 50
        assert all(got == oracle[word] for word, got in answers)
        assert stats["requests"]["completed"] == 8 * 50
        assert stats["batching"]["batched_requests"] == 8 * 50
        assert stats["ingest"]["compactions"] == 1
        assert stats["dataset"]["swaps"] == 2

    def test_shutdown_during_an_inline_run_waits_for_it(
        self, small_uniform_dataset, monkeypatch
    ):
        """``shutdown()`` returns only once the run it caught on the
        submitting thread has finished, and closes nothing under it."""
        closed_with_idle = []
        real_close = SPQEngine.close
        monkeypatch.setattr(SPQEngine, "close", lambda engine: (
            closed_with_idle.append(len(service._batcher._idle)), real_close(engine)
        ))
        with standing_invariants():
            calls, held, release = record_batches(monkeypatch, hold=1)
            service = make_service(small_uniform_dataset, engines=1)
            service.start()
            outcome = {}

            submitter = threading.Thread(target=lambda: outcome.update(
                response=service.submit(self.SPECS[0])
            ))
            submitter.start()
            assert held.acquire(timeout=30)
            stopper = threading.Thread(target=service.shutdown)
            stopper.start()
            time.sleep(0.1)
            assert stopper.is_alive(), "shutdown returned under a running batch"
            assert closed_with_idle == []
            release.set()
            stopper.join(30)
            submitter.join(30)
            assert not stopper.is_alive() and not submitter.is_alive()
        assert calls[0][0] == submitter.ident
        assert outcome["response"]["results"]
        # The engine was closed only once it was back in the pool.
        assert closed_with_idle == [1]
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(self.SPECS[1])


class TestServiceStats:
    @staticmethod
    def fail_executor(service, monkeypatch):
        def execute_many(parsed_list):
            raise RuntimeError("executor down")

        monkeypatch.setattr(service, "_execute_many", execute_many)

    def test_failed_batch_counts_every_request(self, service, monkeypatch):
        self.fail_executor(service, monkeypatch)
        specs = [{"keywords": [f"w000{i}"], "k": 2, "radius": 2.0} for i in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="executor down"):
            service.submit_many(specs)
        requests = service.stats()["requests"]
        assert (requests["submitted"], requests["completed"], requests["failed"]) == (3, 0, 3)

    def test_failed_batch_does_not_fail_its_cache_hits(self, service, monkeypatch):
        hit = {"keywords": ["w0001"], "k": 2, "radius": 2.0}
        service.submit(hit)
        self.fail_executor(service, monkeypatch)
        misses = [{"keywords": [f"w000{i}"], "k": 2, "radius": 2.0} for i in (2, 3)]
        with pytest.raises(RuntimeError, match="executor down"):
            service.submit_many([hit, *misses])
        requests = service.stats()["requests"]
        assert (requests["submitted"], requests["completed"], requests["failed"]) == (4, 2, 2)

    def test_stats_shape(self, service):
        service.submit({"keywords": ["w0001"], "k": 2, "radius": 2.0})
        stats = service.stats()
        assert stats["requests"]["submitted"] == 1
        assert stats["requests"]["completed"] == 1
        assert stats["dataset"]["data_objects"] == 500
        assert stats["planner"] == {"mode": "on", "decisions": 0}
        assert stats["batching"]["batches"] == 1
        assert stats["engines"]["count"] == 1
        assert json.dumps(stats)
