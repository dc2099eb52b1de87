"""A simulated HDFS: files split into blocks, replicated over data nodes.

The paper stores its datasets in HDFS (128 MB blocks, replication factor 3)
and the number of map tasks follows the number of blocks.  This module models
exactly the metadata-level behaviour needed for that: a :class:`NameNode`
tracking files, their blocks and the data nodes holding each replica, and a
simple round-robin-with-capacity placement policy.  Block *contents* are kept
in memory as lists of records, because the goal is to drive the MapReduce
engine and the cost model, not to persist bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.exceptions import HDFSError

#: Default block size, expressed in number of records per block.  The paper's
#: 128 MB blocks are record containers; for the simulation the record count is
#: the meaningful unit because map work is proportional to records.
DEFAULT_BLOCK_RECORDS = 100_000

#: Default replication factor (the paper uses 3).
DEFAULT_REPLICATION = 3


@dataclass
class DataNode:
    """A storage node holding block replicas."""

    node_id: str
    capacity_blocks: int = 1_000_000
    blocks: List[str] = field(default_factory=list)
    alive: bool = True

    @property
    def used_blocks(self) -> int:
        """Number of block replicas currently stored on this node."""
        return len(self.blocks)

    @property
    def has_capacity(self) -> bool:
        """Whether the node can accept another block replica."""
        return self.used_blocks < self.capacity_blocks


@dataclass
class Block:
    """One block of a file: an ordered list of records plus replica locations."""

    block_id: str
    records: List = field(default_factory=list)
    replicas: List[str] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        """Number of records in this block."""
        return len(self.records)


@dataclass
class HDFSFile:
    """A file: an ordered list of blocks."""

    path: str
    blocks: List[Block] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        """Total records across all blocks of the file."""
        return sum(block.num_records for block in self.blocks)

    @property
    def num_blocks(self) -> int:
        """Number of blocks of the file."""
        return len(self.blocks)

    def records(self) -> Iterator:
        """Iterate over all records of the file in order."""
        for block in self.blocks:
            yield from block.records


class HDFS:
    """Simulated HDFS cluster: a NameNode plus a set of DataNodes.

    Args:
        num_datanodes: Number of data nodes.
        block_records: Records per block (stand-in for the 128 MB block size).
        replication: Replication factor; silently capped at the number of
            data nodes, as a real cluster would do.
    """

    def __init__(
        self,
        num_datanodes: int = 16,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        replication: int = DEFAULT_REPLICATION,
    ) -> None:
        if num_datanodes < 1:
            raise HDFSError(f"need at least one datanode, got {num_datanodes}")
        if block_records < 1:
            raise HDFSError(f"block_records must be >= 1, got {block_records}")
        if replication < 1:
            raise HDFSError(f"replication must be >= 1, got {replication}")
        self.block_records = block_records
        self.replication = min(replication, num_datanodes)
        self.datanodes: Dict[str, DataNode] = {
            f"d{i + 1}": DataNode(node_id=f"d{i + 1}") for i in range(num_datanodes)
        }
        self._files: Dict[str, HDFSFile] = {}
        self._next_placement = 0
        self._block_counter = 0

    # ------------------------------------------------------------------ #
    # namenode operations

    def write(self, path: str, records: Iterable) -> HDFSFile:
        """Create a file from an iterable of records ("write-once").

        Raises:
            HDFSError: if the path already exists.
        """
        if path in self._files:
            raise HDFSError(f"file already exists: {path}")
        hdfs_file = HDFSFile(path=path)
        buffer: List = []
        for record in records:
            buffer.append(record)
            if len(buffer) >= self.block_records:
                hdfs_file.blocks.append(self._allocate_block(buffer))
                buffer = []
        if buffer or not hdfs_file.blocks:
            hdfs_file.blocks.append(self._allocate_block(buffer))
        self._files[path] = hdfs_file
        return hdfs_file

    def _allocate_block(self, records: Sequence) -> Block:
        self._block_counter += 1
        block = Block(block_id=f"blk_{self._block_counter:08d}", records=list(records))
        node_ids = sorted(node_id for node_id, node in self.datanodes.items() if node.alive)
        if not node_ids:
            raise HDFSError("no live datanodes available for block placement")
        target_replicas = min(self.replication, len(node_ids))
        for offset in range(target_replicas):
            node_id = node_ids[(self._next_placement + offset) % len(node_ids)]
            block.replicas.append(node_id)
            self.datanodes[node_id].blocks.append(block.block_id)
        self._next_placement = (self._next_placement + 1) % len(node_ids)
        return block

    def read(self, path: str) -> HDFSFile:
        """Open an existing file.

        Raises:
            HDFSError: if the path does not exist.
        """
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None

    def exists(self, path: str) -> bool:
        """True if a file exists at ``path``."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove a file and release its block replicas."""
        hdfs_file = self.read(path)
        block_ids = {block.block_id for block in hdfs_file.blocks}
        for node in self.datanodes.values():
            node.blocks = [b for b in node.blocks if b not in block_ids]
        del self._files[path]

    def list_files(self) -> List[str]:
        """All file paths, sorted."""
        return sorted(self._files)

    # ------------------------------------------------------------------ #
    # failure handling

    def fail_datanode(self, node_id: str) -> int:
        """Mark a datanode as dead and re-replicate the blocks it held.

        Mirrors the NameNode's behaviour on a missed heartbeat: replicas on the
        dead node are dropped from the block map and, for every affected block,
        a new replica is created on a live node that does not already hold one
        (when such a node exists).  Returns the number of blocks that were
        re-replicated.

        Raises:
            HDFSError: if the node does not exist or is already dead.
        """
        node = self.datanodes.get(node_id)
        if node is None:
            raise HDFSError(f"no such datanode: {node_id}")
        if not node.alive:
            raise HDFSError(f"datanode already dead: {node_id}")
        node.alive = False
        lost_blocks = set(node.blocks)
        node.blocks = []

        recovered = 0
        for hdfs_file in self._files.values():
            for block in hdfs_file.blocks:
                if node_id not in block.replicas:
                    continue
                block.replicas = [replica for replica in block.replicas if replica != node_id]
                replacement = self._pick_replication_target(block)
                if replacement is not None:
                    block.replicas.append(replacement)
                    self.datanodes[replacement].blocks.append(block.block_id)
                    recovered += 1
        # Sanity: the dead node must no longer appear in any block map entry.
        assert not lost_blocks or all(
            node_id not in block.replicas
            for f in self._files.values() for block in f.blocks
        )
        return recovered

    def _pick_replication_target(self, block: Block) -> Optional[str]:
        """Least-loaded live node that does not already hold a replica of ``block``."""
        candidates = [
            node for node in self.datanodes.values()
            if node.alive and node.has_capacity and node.node_id not in block.replicas
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda node: (node.used_blocks, node.node_id)).node_id

    def live_datanodes(self) -> List[str]:
        """Ids of the datanodes currently alive, sorted."""
        return sorted(node_id for node_id, node in self.datanodes.items() if node.alive)

    def under_replicated_blocks(self) -> List[str]:
        """Ids of blocks with fewer live replicas than the replication factor."""
        result: List[str] = []
        for hdfs_file in self._files.values():
            for block in hdfs_file.blocks:
                live = [r for r in block.replicas if self.datanodes[r].alive]
                if len(live) < self.replication:
                    result.append(block.block_id)
        return result

    # ------------------------------------------------------------------ #
    # statistics

    def total_blocks(self) -> int:
        """Number of blocks across all files (excluding replicas)."""
        return sum(f.num_blocks for f in self._files.values())

    def replica_distribution(self) -> Dict[str, int]:
        """Blocks (replicas included) stored per data node."""
        return {node_id: node.used_blocks for node_id, node in sorted(self.datanodes.items())}
