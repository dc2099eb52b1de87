"""Unit tests for the simulated HDFS layer."""

from __future__ import annotations

import pytest

from repro.exceptions import HDFSError
from repro.paper.hdfs import HDFS


class TestConfiguration:
    def test_rejects_zero_datanodes(self):
        with pytest.raises(HDFSError):
            HDFS(num_datanodes=0)

    def test_rejects_zero_block_size(self):
        with pytest.raises(HDFSError):
            HDFS(block_records=0)

    def test_rejects_zero_replication(self):
        with pytest.raises(HDFSError):
            HDFS(replication=0)

    def test_replication_capped_at_datanodes(self):
        hdfs = HDFS(num_datanodes=2, replication=3)
        assert hdfs.replication == 2


class TestFileOperations:
    def test_write_then_read_round_trip(self):
        hdfs = HDFS(num_datanodes=4, block_records=10)
        records = list(range(25))
        hdfs.write("/data/input", records)
        assert list(hdfs.read("/data/input").records()) == records

    def test_blocks_follow_block_size(self):
        hdfs = HDFS(num_datanodes=4, block_records=10)
        hdfs.write("/data/input", list(range(25)))
        assert hdfs.read("/data/input").num_blocks == 3

    def test_empty_file_has_one_block(self):
        hdfs = HDFS(num_datanodes=2)
        hdfs.write("/empty", [])
        assert hdfs.read("/empty").num_blocks == 1
        assert hdfs.read("/empty").num_records == 0

    def test_write_existing_path_rejected(self):
        hdfs = HDFS(num_datanodes=2)
        hdfs.write("/x", [1])
        with pytest.raises(HDFSError):
            hdfs.write("/x", [2])

    def test_read_missing_path_rejected(self):
        with pytest.raises(HDFSError):
            HDFS(num_datanodes=2).read("/missing")

    def test_exists_and_list(self):
        hdfs = HDFS(num_datanodes=2)
        hdfs.write("/b", [1])
        hdfs.write("/a", [2])
        assert hdfs.exists("/a")
        assert not hdfs.exists("/c")
        assert hdfs.list_files() == ["/a", "/b"]

    def test_delete_removes_file_and_replicas(self):
        hdfs = HDFS(num_datanodes=3, block_records=1, replication=2)
        hdfs.write("/f", [1, 2, 3])
        assert sum(hdfs.replica_distribution().values()) == 6
        hdfs.delete("/f")
        assert not hdfs.exists("/f")
        assert sum(hdfs.replica_distribution().values()) == 0

    def test_delete_missing_file_rejected(self):
        with pytest.raises(HDFSError):
            HDFS(num_datanodes=2).delete("/nope")


class TestReplication:
    def test_each_block_has_replication_factor_replicas(self):
        hdfs = HDFS(num_datanodes=5, block_records=2, replication=3)
        hdfs.write("/f", list(range(10)))
        for block in hdfs.read("/f").blocks:
            assert len(block.replicas) == 3
            assert len(set(block.replicas)) == 3

    def test_replicas_spread_across_nodes(self):
        hdfs = HDFS(num_datanodes=4, block_records=1, replication=2)
        hdfs.write("/f", list(range(20)))
        distribution = hdfs.replica_distribution()
        # 20 blocks x 2 replicas over 4 nodes -> perfectly balanced placement
        assert sum(distribution.values()) == 40
        assert max(distribution.values()) - min(distribution.values()) <= 1

    def test_total_blocks_excludes_replicas(self):
        hdfs = HDFS(num_datanodes=4, block_records=5, replication=3)
        hdfs.write("/f", list(range(12)))
        assert hdfs.total_blocks() == 3
