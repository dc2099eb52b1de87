"""Unit tests for the simulated cluster and LPT scheduling."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ClusterConfigurationError
from repro.mapreduce.cluster import ClusterNode, SimulatedCluster, paper_cluster


def heap_makespan(cluster, costs):
    """The LPT heap walk over every slot, for any cost list (the oracle)."""
    speeds = cluster.slot_speeds()
    slots = [(0.0, i) for i in range(len(speeds))]
    heapq.heapify(slots)
    makespan = 0.0
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        finish, slot = heapq.heappop(slots)
        finish += costs[index] / speeds[slot]
        makespan = max(makespan, finish)
        heapq.heappush(slots, (finish, slot))
    return makespan


class TestClusterNode:
    def test_rejects_zero_cores(self):
        with pytest.raises(ClusterConfigurationError):
            ClusterNode("d1", cores=0)

    def test_rejects_non_positive_speed(self):
        with pytest.raises(ClusterConfigurationError):
            ClusterNode("d1", cores=4, speed=0.0)


class TestClusterConstruction:
    def test_rejects_empty_cluster(self):
        with pytest.raises(ClusterConfigurationError):
            SimulatedCluster([])

    def test_rejects_duplicate_node_ids(self):
        with pytest.raises(ClusterConfigurationError):
            SimulatedCluster([ClusterNode("d1", 4), ClusterNode("d1", 4)])

    def test_total_slots(self):
        cluster = SimulatedCluster([ClusterNode("a", 2), ClusterNode("b", 3)])
        assert cluster.total_slots == 5

    def test_paper_cluster_matches_section_7_1(self):
        cluster = paper_cluster()
        assert len(cluster.nodes) == 16
        # 8 nodes x 8 cores + 4 x 12 + 4 x 16 = 64 + 48 + 64
        assert cluster.total_slots == 176

    def test_slot_speeds_one_entry_per_core(self):
        cluster = SimulatedCluster([ClusterNode("a", 2, speed=2.0), ClusterNode("b", 1)])
        assert sorted(cluster.slot_speeds()) == [1.0, 2.0, 2.0]


class TestScheduling:
    def test_single_task(self):
        cluster = SimulatedCluster([ClusterNode("a", 1)])
        assert cluster.schedule([10.0]) == pytest.approx(10.0)

    def test_tasks_fewer_than_slots_run_fully_parallel(self):
        cluster = SimulatedCluster([ClusterNode("a", 4)])
        makespan = cluster.schedule([3.0, 1.0, 2.0])
        assert makespan == pytest.approx(3.0)

    def test_tasks_more_than_slots_form_waves(self):
        cluster = SimulatedCluster([ClusterNode("a", 2)])
        makespan = cluster.schedule([1.0, 1.0, 1.0, 1.0])
        assert makespan == pytest.approx(2.0)

    def test_makespan_bounded_below_by_longest_task(self):
        cluster = SimulatedCluster([ClusterNode("a", 8)])
        makespan = cluster.schedule([5.0] + [0.1] * 20)
        assert makespan >= 5.0

    def test_makespan_bounded_below_by_average_load(self):
        cluster = SimulatedCluster([ClusterNode("a", 2)])
        costs = [1.0] * 10
        makespan = cluster.schedule(costs)
        assert makespan >= sum(costs) / cluster.total_slots

    def test_faster_nodes_reduce_makespan(self):
        slow = SimulatedCluster([ClusterNode("a", 1, speed=1.0)])
        fast = SimulatedCluster([ClusterNode("a", 1, speed=2.0)])
        costs = [4.0, 2.0]
        assert fast.schedule(costs) == pytest.approx(slow.schedule(costs) / 2.0)

    def test_zero_cost_tasks_allowed(self):
        cluster = SimulatedCluster([ClusterNode("a", 1)])
        makespan = cluster.schedule([0.0, 0.0])
        assert makespan == 0.0

    def test_negative_cost_rejected(self):
        cluster = SimulatedCluster([ClusterNode("a", 1)])
        with pytest.raises(ClusterConfigurationError):
            cluster.schedule([-1.0])

    def test_empty_task_list(self):
        cluster = SimulatedCluster([ClusterNode("a", 1)])
        assert cluster.schedule([]) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            max_size=400,
        ),
        speed=st.sampled_from([1.0, 0.7, 3.0]),
        mixed=st.booleans(),
    )
    def test_closed_form_equals_the_heap_walk(self, costs, speed, mixed):
        """Up to 176 tasks on one-speed slots take the closed form; more
        tasks or mixed speeds take the heap.  Both equal the heap walk over
        every slot, bit for bit."""
        nodes = [
            ClusterNode(f"d{i}", cores=cores, speed=speed)
            for i, cores in enumerate([8] * 8 + [12] * 4 + [16] * 4)
        ]
        if mixed:
            nodes[0] = ClusterNode("d0", cores=8, speed=speed * 2.0)
        cluster = SimulatedCluster(nodes)
        assert cluster.total_slots == 176
        assert cluster.schedule(costs) == heap_makespan(cluster, costs)

    def test_paper_cluster_closed_form_on_a_grid_of_reduce_tasks(self):
        cluster = paper_cluster()
        costs = [float(i % 7) for i in range(144)]
        assert cluster.schedule(costs) == heap_makespan(cluster, costs) == 6.0


class TestWaves:
    def test_wave_count(self):
        cluster = SimulatedCluster([ClusterNode("a", 4)])
        assert cluster.waves(0) == 0
        assert cluster.waves(4) == 1
        assert cluster.waves(5) == 2
        assert cluster.waves(8) == 2
