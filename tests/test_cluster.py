"""Tests for the node/topology/contention hardware model."""

import pytest

from repro.cluster.contention import cold_fraction, cpu_burst, pipelined_transfer
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.params import GB, MB, SimulationParams
from repro.simul.engine import SimulationError, Simulator


def make_node(sim, memory_only=True, cores=8, memory=16_384):
    return Node(
        sim,
        index=0,
        cores=cores,
        memory_mb=memory,
        disk_bandwidth=100.0 * MB,
        network_bandwidth=1000.0 * MB,
        page_cache_bytes=1.0 * GB,
        memory_only_fit=memory_only,
    )


class TestNode:
    def test_reserve_and_free(self, sim):
        node = make_node(sim)
        node.reserve(4096, 2)
        assert node.memory_available_mb == 16_384 - 4096
        node.free(4096, 2)
        assert node.memory_available_mb == 16_384

    def test_memory_only_fit_ignores_vcores(self, sim):
        node = make_node(sim, memory_only=True, cores=2)
        assert node.fits(1024, 100)  # vcores oversubscription allowed
        node.reserve(1024, 100)
        assert node.vcores_available < 0  # tracked, not enforced

    def test_dominant_fit_enforces_vcores(self, sim):
        node = make_node(sim, memory_only=False, cores=2)
        assert not node.fits(1024, 3)
        assert node.fits(1024, 2)

    def test_memory_always_enforced(self, sim):
        node = make_node(sim)
        assert not node.fits(999_999, 1)

    def test_reserve_beyond_capacity_raises(self, sim):
        node = make_node(sim)
        with pytest.raises(SimulationError):
            node.reserve(999_999, 1)

    def test_over_free_raises(self, sim):
        node = make_node(sim)
        node.reserve(1024, 1)
        node.free(1024, 1)
        with pytest.raises(SimulationError):
            node.free(1024, 1)

    def test_allocation_tags(self, sim):
        node = make_node(sim)
        node.reserve(1024, 1, tag="opportunistic")
        assert node.allocations["opportunistic"] == 1
        node.free(1024, 1, tag="opportunistic")
        assert node.allocations["opportunistic"] == 0

    def test_invalid_shape_rejected(self, sim):
        with pytest.raises(SimulationError):
            Node(sim, 0, cores=0, memory_mb=1, disk_bandwidth=1, network_bandwidth=1, page_cache_bytes=0)


class TestCluster:
    def test_builds_param_count_nodes(self, sim, small_params):
        cluster = Cluster(sim, small_params)
        assert len(cluster) == small_params.num_nodes
        assert cluster.nodes[0].hostname == "node01"

    def test_node_lookup(self, sim, small_params):
        cluster = Cluster(sim, small_params)
        assert cluster.node("node03").index == 2
        with pytest.raises(SimulationError):
            cluster.node("node99")

    def test_capacity_totals(self, sim, small_params):
        cluster = Cluster(sim, small_params)
        assert cluster.total_memory_mb() == 5 * small_params.memory_per_node_mb

    def test_memory_utilization(self, sim, small_params):
        cluster = Cluster(sim, small_params)
        assert cluster.used_memory_mb() == 0
        cluster.nodes[0].reserve(small_params.memory_per_node_mb, 1)
        assert cluster.used_memory_mb() == small_params.memory_per_node_mb


class TestColdFraction:
    def test_small_read_on_idle_node_is_hot(self, sim):
        node = make_node(sim)
        assert cold_fraction(node, 500 * MB, 1.0 * GB) == 0.0

    def test_large_read_partially_cold(self, sim):
        node = make_node(sim)
        frac = cold_fraction(node, 4 * GB, 1.0 * GB)
        assert frac == pytest.approx(0.75)

    def test_write_pressure_evicts_cache(self, sim):
        node = make_node(sim)
        idle = cold_fraction(node, 500 * MB, 1.0 * GB)
        node.begin_write(500.0 * MB)  # 5x the disk's write capacity
        pressured = cold_fraction(node, 500 * MB, 1.0 * GB, sensitivity=5.0)
        node.end_write(500.0 * MB)
        assert idle == 0.0
        assert pressured > 0.9
        assert cold_fraction(node, 500 * MB, 1.0 * GB) == 0.0  # clean again

    def test_read_pressure_does_not_evict(self, sim):
        """Scan traffic (reads) leaves hot files cached — the Fig 5 vs
        Fig 12 asymmetry."""
        node = make_node(sim)
        node.disk.submit(1e12)  # heavy read stream
        assert cold_fraction(node, 500 * MB, 1.0 * GB) == 0.0

    def test_write_pressure_underflow_detected(self, sim):
        node = make_node(sim)
        with pytest.raises(SimulationError):
            node.end_write(1.0)

    def test_zero_bytes(self, sim):
        assert cold_fraction(make_node(sim), 0.0, 1.0 * GB) == 0.0


class TestTransfers:
    def test_pipelined_transfer_bottleneck(self, sim):
        node = make_node(sim)
        # disk (100 MB/s) is the bottleneck vs nic (1000 MB/s).
        ev = pipelined_transfer(sim, 200 * MB, [node.disk, node.nic])
        sim.run()
        assert ev.processed
        assert sim.now == pytest.approx(2.0, rel=1e-6)

    def test_empty_path_completes_instantly(self, sim):
        ev = pipelined_transfer(sim, 100.0, [])
        assert ev.triggered

    def test_cpu_burst_stretches_under_contention(self, sim):
        node = make_node(sim, cores=2)
        elapsed = {}

        def victim():
            elapsed["t"] = yield from cpu_burst(node, 2.0, cores=1.0)

        # Four competing single-core hogs on a 2-core node.
        for _ in range(4):
            node.cpu.submit(100.0, demand=1.0)
        sim.process(victim())
        sim.run()
        # demand 5 on capacity 2 -> ~2.5x stretch.
        assert elapsed["t"] == pytest.approx(5.0, rel=0.01)
