"""Simulated compute cluster: heterogeneous nodes with map/reduce task slots.

The paper's experiments run on a 16-node CDH cluster with three hardware
generations (nodes d1-d8: 8 cores, d9-d12: 12 cores, d13-d16: 16 cores).  The
:class:`SimulatedCluster` models that resource pool at the level that matters
for job-time simulation: how many reduce tasks can run concurrently, and how
fast each node executes work units.  Scheduling uses the classic
longest-processing-time (LPT) heuristic over task costs, which approximates
how the YARN scheduler fills free slots with pending reduce tasks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ClusterConfigurationError


@dataclass(frozen=True)
class ClusterNode:
    """One physical machine of the simulated cluster.

    Attributes:
        node_id: Name (``d1`` ... ``d16``).
        cores: Number of concurrently usable task slots.
        speed: Relative execution speed (work units per simulated second,
            before the cost model's global calibration).
    """

    node_id: str
    cores: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ClusterConfigurationError(f"node {self.node_id} must have >= 1 core")
        if self.speed <= 0:
            raise ClusterConfigurationError(f"node {self.node_id} must have positive speed")


def paper_cluster() -> "SimulatedCluster":
    """The 16-node cluster of Section 7.1 (d1-d8, d9-d12, d13-d16)."""
    nodes = (
        [ClusterNode(f"d{i}", cores=8) for i in range(1, 9)]
        + [ClusterNode(f"d{i}", cores=12) for i in range(9, 13)]
        + [ClusterNode(f"d{i}", cores=16) for i in range(13, 17)]
    )
    return SimulatedCluster(nodes)


class SimulatedCluster:
    """A pool of task slots used to schedule map and reduce tasks."""

    def __init__(self, nodes: Sequence[ClusterNode]) -> None:
        if not nodes:
            raise ClusterConfigurationError("cluster needs at least one node")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ClusterConfigurationError("node ids must be unique")
        self.nodes: List[ClusterNode] = list(nodes)
        #: The speed every slot runs at (the paper cluster's case), or None
        #: when nodes differ.
        speeds = set(self.slot_speeds())
        self._uniform_speed = speeds.pop() if len(speeds) == 1 else None

    # ------------------------------------------------------------------ #

    @property
    def total_slots(self) -> int:
        """Total number of concurrent task slots across the cluster."""
        return sum(node.cores for node in self.nodes)

    def slot_speeds(self) -> List[float]:
        """Speed of every individual slot (a node contributes ``cores`` slots)."""
        speeds: List[float] = []
        for node in self.nodes:
            speeds.extend([node.speed] * node.cores)
        return speeds

    # ------------------------------------------------------------------ #
    # scheduling

    def schedule(self, task_costs: Sequence[float]) -> float:
        """Makespan of tasks with the given costs on the cluster's slots.

        Uses the LPT heuristic: tasks are sorted by decreasing cost and each is
        assigned to the slot that will finish it earliest (accounting for slot
        speed); the makespan is the simulated completion time of the last
        task.  When every slot runs at one speed and there are no more tasks
        than slots, each task starts at 0.0 on a slot of its own, so the
        makespan is the largest cost over that speed -- the same float the
        heap walk computes (division by one positive number is monotonic) --
        and no heap is built.  That is the paper cluster's case whenever a
        job runs at most 176 reduce tasks (a grid of at most 13 x 13).

        A cost of zero is allowed (an empty reduce partition); negative costs
        are rejected.
        """
        if any(cost < 0 for cost in task_costs):
            raise ClusterConfigurationError("task costs must be non-negative")
        speed = self._uniform_speed
        if speed is not None and len(task_costs) <= self.total_slots:
            return max(task_costs, default=0.0) / speed
        speeds = self.slot_speeds()
        # heap of (finish_time_of_slot, slot_index)
        slots: List[Tuple[float, int]] = [(0.0, i) for i in range(len(speeds))]
        heapq.heapify(slots)
        makespan = 0.0
        for cost in sorted(task_costs, reverse=True):
            finish, slot_index = heapq.heappop(slots)
            finish += cost / speeds[slot_index]
            makespan = max(makespan, finish)
            heapq.heappush(slots, (finish, slot_index))
        return makespan

    def waves(self, num_tasks: int) -> int:
        """Number of scheduling waves needed for ``num_tasks`` equal tasks."""
        if num_tasks <= 0:
            return 0
        slots = self.total_slots
        return (num_tasks + slots - 1) // slots
