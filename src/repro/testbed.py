"""The assembled simulated testbed: one object wiring every substrate.

A :class:`Testbed` builds the whole stack the paper's 26-node cluster
provided — simulation clock, nodes, HDFS, ResourceManager with the
chosen scheduler(s), one NodeManager per node, and the log store that
collects every daemon's log4j output.  Experiments submit applications
to it, run the clock, and hand the rendered logs to SDchecker.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from repro.cluster.profiles import HardwareProfile
from repro.cluster.topology import Cluster
from repro.hdfs.filesystem import Hdfs
from repro.logsys.store import LogStore
from repro.params import SimulationParams
from repro.simul.distributions import RandomSource
from repro.simul.engine import Event, SimulationError, Simulator
from repro.yarn.capacity_scheduler import CapacityScheduler
from repro.yarn.fair_scheduler import FairScheduler
from repro.yarn.node_manager import NodeManager
from repro.yarn.opportunistic_scheduler import OpportunisticScheduler
from repro.yarn.resource_manager import ResourceManager
from repro.yarn.app import YarnApplication

__all__ = ["Testbed"]


class Testbed:
    """The full simulated Spark-on-YARN deployment."""

    def __init__(
        self,
        params: Optional[SimulationParams] = None,
        seed: int = 0,
        distributed_scheduling: bool = False,
        scheduler: str = "capacity",
        node_profiles: Optional[Sequence[Optional[HardwareProfile]]] = None,
    ):
        self.params = params if params is not None else SimulationParams()
        self.sim = Simulator()
        self.rng = RandomSource(seed)
        self.log_store = LogStore()
        self.cluster = Cluster(self.sim, self.params, node_profiles=node_profiles)
        self.hdfs = Hdfs(self.sim, self.cluster, self.params, self.rng)
        if scheduler == "capacity":
            scheduler_factory = CapacityScheduler
        elif scheduler == "fair":
            scheduler_factory = FairScheduler
        else:
            raise SimulationError(f"unknown scheduler {scheduler!r}")
        self.rm = ResourceManager(
            self,
            scheduler_factory=scheduler_factory,
            opportunistic_factory=(
                OpportunisticScheduler if distributed_scheduling else None
            ),
        )
        for node in self.cluster:
            self.rm.register_node_manager(NodeManager(self.rm, node))
        self.applications: List[YarnApplication] = []

    # -- running workloads ---------------------------------------------------
    def submit(self, app: YarnApplication, delay: float = 0.0) -> Event:
        """Submit ``app`` now or after ``delay``; returns FINISHED event."""
        self.applications.append(app)
        if delay <= 0.0:
            return self.rm.submit_application(app)
        finished_proxy = self.sim.event()

        def _later():
            self.rm.submit_application(app).callbacks.append(
                lambda ev: finished_proxy.succeed(ev.value)
            )

        self.sim.call_at(self.sim.now + delay, _later)
        return finished_proxy

    def run_until_all_finished(self, limit: float = 1e7) -> float:
        """Advance the clock until every submitted app is FINISHED.

        Daemon heartbeat loops run forever, so the heap never drains;
        we step until the last application's FINISHED event fires.
        ``limit`` (simulated seconds) guards against deadlocked
        scenarios.  Returns the finish time of the last application.
        """
        apps = self.applications
        if not apps:
            return self.sim.now
        sim = self.sim
        heap = sim._heap  # its head time is what ``sim.peek()`` returns
        # ``head`` indexes the first app whose FINISHED event has not been
        # *processed* (not merely triggered: callbacks on it, such as
        # delayed-submission proxies and user hooks, must have run before
        # we stop stepping).  A processed event stays processed, so the
        # index only moves forward and the completion check costs
        # O(steps + apps) over a whole run.  ``len(apps)`` is re-read so
        # apps submitted mid-run are waited for.
        head = 0
        while True:
            while head < len(apps):
                finished = apps[head].finished
                if finished is None or finished.callbacks is not None:
                    break
                head += 1
            if head == len(apps):
                return sim.now
            if (heap[0][0] if heap else float("inf")) > limit:
                unfinished = [
                    str(a) for a in apps
                    if a.finished is None or not a.finished.triggered
                ]
                raise SimulationError(
                    f"simulated time limit {limit}s exceeded; unfinished: "
                    f"{unfinished[:5]} (+{max(0, len(unfinished) - 5)} more)"
                )
            # Through the attribute on every step, so a wrapped
            # ``sim.step`` (a step counter) sees each one.
            sim.step()

    def run(self, until: float) -> None:
        """Advance the clock to ``until`` regardless of app completion."""
        self.sim.run(until=until)

    # -- cluster membership changes (failure / autoscaling scenarios) --------
    def fail_node(self, hostname: str, reason: str = "node failure") -> int:
        """Abruptly lose a node mid-run.

        The node goes inactive (no further placements), its heartbeats
        stop, and every killable container on it is forcibly torn down
        — applications recover via their ``container_killed`` hooks.
        Returns the number of containers killed.
        """
        node = self.cluster.node(hostname)
        nm = self.rm.nm_for(node)
        nm.deactivate()
        self.rm.logger.info(
            "org.apache.hadoop.yarn.server.resourcemanager.rmnode.RMNodeImpl",
            f"Deactivating Node {hostname}:8041 as it is now LOST",
        )
        return nm.kill_active_containers(reason)

    def decommission_node(self, hostname: str) -> None:
        """Gracefully retire a node: no new placements, running work
        drains naturally (no kills)."""
        node = self.cluster.node(hostname)
        self.rm.nm_for(node).deactivate()
        self.rm.logger.info(
            "org.apache.hadoop.yarn.server.resourcemanager.rmnode.RMNodeImpl",
            f"Deactivating Node {hostname}:8041 as it is now DECOMMISSIONED",
        )

    def add_node(self, profile: Optional[HardwareProfile] = None) -> str:
        """Join a new worker mid-run (autoscaling); returns its hostname."""
        node = self.cluster.add_node(profile)
        self.rm.register_node_manager(NodeManager(self.rm, node))
        self.rm.logger.info(
            "org.apache.hadoop.yarn.server.resourcemanager.ResourceTrackerService",
            f"NodeManager from node {node.hostname}(cmPort: 8041 httpPort: 8042) "
            f"registered with capability: <memory:{node.memory_mb}, "
            f"vCores:{node.cores}>",
        )
        return node.hostname

    # -- log output --------------------------------------------------------------
    def dump_logs(self, directory: str | Path) -> List[Path]:
        """Write all daemon logs as ``.log`` files for offline mining."""
        return self.log_store.dump(directory)
