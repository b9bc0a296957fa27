"""Cluster topology: the set of worker nodes plus lookup helpers.

The paper's testbed is flat 10 GbE (no oversubscription is mentioned),
so the topology is a single switch tier: any pair of nodes communicates
at min(sender NIC share, receiver NIC share).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.cluster.node import Node
from repro.cluster.profiles import HardwareProfile
from repro.params import SimulationParams
from repro.simul.engine import SimulationError, Simulator

__all__ = ["Cluster"]


class Cluster:
    """All worker nodes of the simulated testbed."""

    def __init__(
        self,
        sim: Simulator,
        params: SimulationParams,
        node_profiles: Optional[Sequence[Optional[HardwareProfile]]] = None,
    ):
        """``node_profiles``, when given, overrides the hardware shape
        of individual nodes by index (None entries keep the params
        defaults); extra nodes beyond ``params.num_nodes`` are NOT
        implied — the list is truncated/padded to ``num_nodes``.
        """
        self.sim = sim
        self.params = params
        profiles: List[Optional[HardwareProfile]] = list(node_profiles or [])
        profiles = (profiles + [None] * params.num_nodes)[: params.num_nodes]
        self.nodes: List[Node] = [
            self._make_node(i, profile) for i, profile in enumerate(profiles)
        ]
        self._by_hostname = {n.hostname: n for n in self.nodes}

    def _make_node(self, index: int, profile: Optional[HardwareProfile]) -> Node:
        params = self.params
        return Node(
            self.sim,
            index=index,
            cores=profile.cores if profile else params.cores_per_node,
            memory_mb=profile.memory_mb if profile else params.memory_per_node_mb,
            disk_bandwidth=(
                profile.disk_bandwidth if profile else params.disk_bandwidth
            ),
            network_bandwidth=(
                profile.network_bandwidth if profile else params.network_bandwidth
            ),
            page_cache_bytes=(
                profile.page_cache_bytes if profile else params.page_cache_bytes
            ),
            memory_only_fit=(params.resource_calculator == "memory"),
        )

    def add_node(self, profile: Optional[HardwareProfile] = None) -> Node:
        """Join a new node to the cluster (autoscaling)."""
        node = self._make_node(len(self.nodes), profile)
        self.nodes.append(node)
        self._by_hostname[node.hostname] = node
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, hostname: str) -> Node:
        """Node by hostname; raises for unknown hosts."""
        try:
            return self._by_hostname[hostname]
        except KeyError:
            raise SimulationError(f"unknown host {hostname!r}") from None

    # -- capacity queries --------------------------------------------------
    def total_memory_mb(self) -> int:
        return sum(n.memory_mb for n in self.nodes)

    def used_memory_mb(self) -> int:
        return sum(n.memory_mb - n.memory_available_mb for n in self.nodes)

