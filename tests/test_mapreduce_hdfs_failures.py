"""Failure-injection tests for the simulated HDFS (datanode loss, re-replication)."""

from __future__ import annotations

import pytest

from repro.exceptions import HDFSError
from repro.paper.hdfs import HDFS


@pytest.fixture()
def loaded_hdfs():
    hdfs = HDFS(num_datanodes=5, block_records=2, replication=3)
    hdfs.write("/f", list(range(20)))  # 10 blocks x 3 replicas
    return hdfs


class TestFailDatanode:
    def test_unknown_node_rejected(self, loaded_hdfs):
        with pytest.raises(HDFSError):
            loaded_hdfs.fail_datanode("d99")

    def test_double_failure_rejected(self, loaded_hdfs):
        loaded_hdfs.fail_datanode("d1")
        with pytest.raises(HDFSError):
            loaded_hdfs.fail_datanode("d1")

    def test_dead_node_removed_from_live_list(self, loaded_hdfs):
        loaded_hdfs.fail_datanode("d2")
        assert loaded_hdfs.live_datanodes() == ["d1", "d3", "d4", "d5"]

    def test_data_still_readable_after_failure(self, loaded_hdfs):
        loaded_hdfs.fail_datanode("d1")
        assert list(loaded_hdfs.read("/f").records()) == list(range(20))

    def test_replication_restored_after_single_failure(self, loaded_hdfs):
        recovered = loaded_hdfs.fail_datanode("d3")
        assert recovered > 0
        assert loaded_hdfs.under_replicated_blocks() == []
        for block in loaded_hdfs.read("/f").blocks:
            assert len(block.replicas) == 3
            assert "d3" not in block.replicas
            assert len(set(block.replicas)) == 3

    def test_under_replication_reported_when_no_target_exists(self):
        hdfs = HDFS(num_datanodes=3, block_records=1, replication=3)
        hdfs.write("/f", [1, 2, 3])
        # Every block already lives on all three nodes; losing one leaves no
        # fresh target, so the blocks stay under-replicated.
        hdfs.fail_datanode("d1")
        assert len(hdfs.under_replicated_blocks()) == 3

    def test_writes_after_failure_avoid_dead_node(self, loaded_hdfs):
        loaded_hdfs.fail_datanode("d4")
        loaded_hdfs.write("/g", list(range(6)))
        for block in loaded_hdfs.read("/g").blocks:
            assert "d4" not in block.replicas

    def test_all_nodes_dead_rejects_new_writes(self):
        hdfs = HDFS(num_datanodes=1, block_records=1, replication=1)
        hdfs.fail_datanode("d1")
        with pytest.raises(HDFSError):
            hdfs.write("/f", [1])

    def test_surviving_load_is_balanced_after_failure(self):
        hdfs = HDFS(num_datanodes=4, block_records=1, replication=2)
        hdfs.write("/f", list(range(40)))
        hdfs.fail_datanode("d1")
        distribution = {
            node_id: count
            for node_id, count in hdfs.replica_distribution().items()
            if node_id != "d1"
        }
        assert hdfs.replica_distribution()["d1"] == 0
        # Re-replication picks the least-loaded live node, so the survivors
        # end up within a few blocks of one another.
        assert max(distribution.values()) - min(distribution.values()) <= 3
