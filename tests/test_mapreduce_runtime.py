"""Tests of the MapReduce engine itself, using classic jobs.

The SPQ algorithms rely on specific framework behaviours: composite-key
secondary sort, partitioning on part of the key, value iterators that support
early termination, and counters.  Each behaviour is exercised here with small
purpose-built jobs, independently of the spatial code.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import JobConfigurationError, JobExecutionError
from repro.execution.serial import SerialBackend
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import LocalJobRunner


class WordCountJob(MapReduceJob):
    """The canonical word-count job."""

    name = "wordcount"

    def map(self, record, counters):
        for word in record.split():
            yield word, 1

    def reduce(self, group, values, counters):
        yield group, sum(values)


class SecondarySortJob(MapReduceJob):
    """Groups by the first key component, orders values by the second."""

    name = "secondary-sort"

    def map(self, record, counters):
        group, rank, payload = record
        yield (group, rank), payload

    def partition(self, key, num_reducers):
        return hash(key[0]) % num_reducers

    def group_key(self, key):
        return key[0]

    def reduce(self, group, values, counters):
        yield group, list(values)


class EarlyStopJob(MapReduceJob):
    """Consumes values until it sees a sentinel, then stops reading."""

    name = "early-stop"

    def map(self, record, counters):
        yield (record[0], record[1]), record[1]

    def partition(self, key, num_reducers):
        return 0

    def group_key(self, key):
        return key[0]

    def reduce(self, group, values, counters):
        consumed = []
        for value in values:
            consumed.append(value)
            if value >= 3:
                break
        yield group, consumed


class FailingJob(MapReduceJob):
    name = "failing"

    def map(self, record, counters):
        raise RuntimeError("boom")

    def reduce(self, group, values, counters):
        yield group


class BadPartitionJob(WordCountJob):
    def partition(self, key, num_reducers):
        return num_reducers + 5


class ThreadedReduce(SerialBackend):
    """Reduce tasks on two threads, through the runner's ``backend`` seam."""

    def run_reduce_tasks(self, job, tasks):
        reduce_one = super().run_reduce_tasks
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(lambda task: reduce_one(job, [task])[0], tasks))


class TestRunnerConfiguration:
    def test_rejects_zero_reducers(self):
        with pytest.raises(JobConfigurationError):
            LocalJobRunner(num_reducers=0)

    def test_rejects_zero_split_size(self):
        with pytest.raises(JobConfigurationError):
            LocalJobRunner(num_reducers=1, split_size=0)


class TestWordCount:
    def test_counts_are_correct(self):
        runner = LocalJobRunner(num_reducers=3)
        result = runner.run(WordCountJob(), ["a b a", "b c", "a"])
        assert dict(result.outputs) == {"a": 3, "b": 2, "c": 1}

    def test_counts_identical_for_any_reducer_count(self):
        records = ["x y z", "x x", "z y x"]
        baseline = dict(LocalJobRunner(num_reducers=1).run(WordCountJob(), records).outputs)
        for reducers in (2, 4, 7):
            runner = LocalJobRunner(num_reducers=reducers)
            outputs = dict(runner.run(WordCountJob(), records).outputs)
            assert outputs == baseline

    def test_map_counters(self):
        runner = LocalJobRunner(num_reducers=2)
        result = runner.run(WordCountJob(), ["a b", "c"])
        assert result.counters.get("map", "input_records") == 2
        assert result.counters.get("map", "output_records") == 3
        assert result.total_shuffle_records() == 3
        assert result.total_shuffle_bytes() > 0

    def test_reduce_counters(self):
        runner = LocalJobRunner(num_reducers=2)
        result = runner.run(WordCountJob(), ["a b a"])
        assert result.counters.get("reduce", "input_groups") == 2
        assert result.counters.get("reduce", "input_records") == 3
        assert result.counters.get("reduce", "output_records") == 2

    def test_empty_input(self):
        runner = LocalJobRunner(num_reducers=2)
        result = runner.run(WordCountJob(), [])
        assert result.outputs == []
        assert result.num_map_tasks == 1

    def test_number_of_map_tasks_follows_split_size(self):
        runner = LocalJobRunner(num_reducers=1, split_size=2)
        result = runner.run(WordCountJob(), ["a"] * 7)
        assert result.num_map_tasks == 4

    def test_parallel_reduce_gives_same_result(self):
        records = ["a b c d", "a a b", "d d d d"]
        serial = LocalJobRunner(num_reducers=4).run(WordCountJob(), records)
        parallel = LocalJobRunner(num_reducers=4, backend=ThreadedReduce()).run(
            WordCountJob(), records
        )
        assert parallel.outputs == serial.outputs
        assert parallel.counters.as_dict() == serial.counters.as_dict()


class TestSecondarySort:
    def test_values_arrive_in_sort_order(self):
        records = [("g1", 3, "c"), ("g1", 1, "a"), ("g2", 5, "x"), ("g1", 2, "b")]
        runner = LocalJobRunner(num_reducers=2)
        outputs = dict(runner.run(SecondarySortJob(), records).outputs)
        assert outputs["g1"] == ["a", "b", "c"]
        assert outputs["g2"] == ["x"]

    def test_groups_are_contiguous_per_group_key(self):
        records = [("g", i, i) for i in range(20)] + [("h", i, i) for i in range(20)]
        runner = LocalJobRunner(num_reducers=1)
        result = runner.run(SecondarySortJob(), records)
        assert result.counters.get("reduce", "input_groups") == 2

    def test_stable_tie_break_preserves_emission_order(self):
        # Two records with identical keys: values keep map emission order.
        records = [("g", 1, "first"), ("g", 1, "second")]
        runner = LocalJobRunner(num_reducers=1)
        outputs = dict(runner.run(SecondarySortJob(), records).outputs)
        assert outputs["g"] == ["first", "second"]


class TestEarlyTermination:
    def test_consumed_records_counter_reflects_early_stop(self):
        records = [("g", value) for value in [5, 1, 4, 2, 3, 6, 7]]
        runner = LocalJobRunner(num_reducers=1)
        result = runner.run(EarlyStopJob(), records)
        # Sorted values are 1,2,3,4,5,6,7; the reducer stops at the first
        # value >= 3, i.e. after consuming 3 records out of 7.
        report = result.reduce_reports[0]
        assert report.input_records == 7
        assert report.consumed_records == 3
        assert dict(result.outputs)["g"] == [1, 2, 3]

    def test_work_units_default_to_consumed_records(self):
        records = [("g", value) for value in range(10)]
        runner = LocalJobRunner(num_reducers=1)
        result = runner.run(EarlyStopJob(), records)
        report = result.reduce_reports[0]
        assert report.work_units() == report.consumed_records


class TestErrorHandling:
    def test_map_errors_are_wrapped(self):
        runner = LocalJobRunner(num_reducers=1)
        with pytest.raises(JobExecutionError):
            runner.run(FailingJob(), ["x"])

    def test_out_of_range_partition_rejected(self):
        runner = LocalJobRunner(num_reducers=2)
        with pytest.raises(JobExecutionError):
            runner.run(BadPartitionJob(), ["a"])


class TestReduceReports:
    def test_one_report_per_reducer(self):
        runner = LocalJobRunner(num_reducers=5)
        result = runner.run(WordCountJob(), ["a b c d e f g"])
        assert len(result.reduce_reports) == 5
        assert [r.task_index for r in result.reduce_reports] == [0, 1, 2, 3, 4]

    def test_reports_cover_all_input_records(self):
        runner = LocalJobRunner(num_reducers=3)
        result = runner.run(WordCountJob(), ["a b c a b c"])
        assert sum(r.input_records for r in result.reduce_reports) == 6
