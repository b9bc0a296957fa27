"""NodeManager: localization, launch queue, container lifecycle.

Each NM owns one :class:`~repro.cluster.node.Node`, heartbeats to the
RM every ``nm_heartbeat_s`` (driving the Capacity Scheduler's batch
allocation), and runs every container through the Hadoop-3 ContainerImpl
states: LOCALIZING -> SCHEDULED -> RUNNING.

Timing semantics (what SDchecker measures off the NM log):

* LOCALIZING .. SCHEDULED — the localization delay (Fig 8): namenode
  lookup + localizer start-up + downloading the payload from HDFS
  through the shared disk/NIC resources.
* SCHEDULED .. RUNNING — the launching delay (Fig 9): launch-script
  setup, optional Docker image load/mount, JVM start-up to the first
  log line.  For opportunistic containers the NM-side queueing wait
  (Fig 7b) also lands in this interval, exactly as in Hadoop 3, where
  SCHEDULED is the queued state.

The ContainerImpl RUNNING transition is logged at the instant the
launched JVM emits its first log line, so the paper's two definitions
of "launched" (messages 7->8 and the instance FIRST_LOG) coincide to
within the 1 ms log precision.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.cluster.contention import cold_fraction
from repro.simul.engine import Event, Interrupt, Process, SimulationError
from repro.simul.resources import FairShareResource
from repro.yarn.app import ContainerContext, YarnApplication
from repro.yarn.records import ContainerGrant, ExecutionType, LaunchSpec
from repro.yarn.state_machine import NMContainerStateMachine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.yarn.resource_manager import ResourceManager

__all__ = ["NodeManager"]


class _ContainerRun:
    """NM-side handle on one in-flight container lifecycle."""

    __slots__ = ("grant", "app", "lifecycle", "instance", "cimpl", "kill_reason")

    def __init__(self, grant: ContainerGrant, app: YarnApplication):
        self.grant = grant
        self.app = app
        #: The _container_lifecycle process (interrupted to kill).
        self.lifecycle: Optional[Process] = None
        #: The launched instance process, once the JVM is up.
        self.instance: Optional[Process] = None
        #: The ContainerImpl state machine, once created.
        self.cimpl: Optional[NMContainerStateMachine] = None
        self.kill_reason: str = ""


class NodeManager:
    """One NodeManager daemon."""

    def __init__(self, rm: "ResourceManager", node: "Node"):
        self.rm = rm
        self.node = node
        self.sim = rm.sim
        self.params = rm.params
        self.logger = rm.services.log_store.logger(
            f"hadoop-nodemanager-{node.hostname}", lambda: self.sim.now
        )
        self._rng = rm.rng.child(f"nm.{node.hostname}")
        #: Paths already localized on this node (YARN's localized
        #: resource cache: a second container of the same app here
        #: skips the download).
        self._localized: set = set()
        #: In-flight downloads by path: concurrent requests for the
        #: same resource wait on the single fetch (YARN's per-resource
        #: localization lock — without it a 3000-map job would download
        #: its job.jar 125 times per node simultaneously).
        self._localizing: dict = {}
        #: Warm JVMs available for reuse, per instance type (the
        #: section V-B JVM-reuse optimization; empty unless enabled).
        self._warm_jvms: dict = {}
        #: Dedicated localization storage class (SSD/RAM; section V-B).
        self.localization_disk = FairShareResource(
            rm.sim,
            rm.params.localization_ssd_bandwidth,
            name=f"{node.hostname}.loc-ssd",
        )
        #: Opportunistic containers waiting for free resources, FIFO.
        self._opportunistic_queue: deque = deque()
        #: Containers currently running or queued here.
        self.active_containers: List[ContainerGrant] = []
        #: In-flight lifecycles by container-ID string (kill targets).
        self._runs: dict = {}
        self._heartbeat_proc = self.sim.process(
            self._heartbeat_loop(), name=f"nm-heartbeat-{node.hostname}"
        )

    # -- load introspection (used by the distributed scheduler's sampling) --
    def queue_length(self) -> int:
        """Opportunistic containers queued (Sparrow-style probe answer)."""
        return len(self._opportunistic_queue)

    # -- heartbeats -------------------------------------------------------------
    def _heartbeat_loop(self) -> Generator[Event, Any, None]:
        try:
            # Random phase so the 25 NMs' node updates interleave.
            yield self.sim.timeout(self._rng.uniform(0.0, self.params.nm_heartbeat_s))
            while True:
                self.rm.node_update(self)
                yield self.sim.timeout(self.params.nm_heartbeat_s)
        except Interrupt:
            return  # node failed or was decommissioned

    def deactivate(self) -> None:
        """Take this node out of service (failure or decommission).

        Marks the node inactive (schedulers and placement queries skip
        it) and stops the heartbeat loop, so no further node updates
        reach the RM from here.
        """
        self.node.active = False
        if self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("node deactivated")

    # -- container lifecycle ------------------------------------------------------
    def start_container(
        self, grant: ContainerGrant, spec: LaunchSpec, app: YarnApplication
    ) -> Process:
        """Begin the LOCALIZING -> SCHEDULED -> RUNNING lifecycle."""
        if grant.node is not self.node:
            raise SimulationError(
                f"{grant} was bound to {grant.node.hostname}, not {self.node.hostname}"
            )
        if not self.node.active:
            raise SimulationError(
                f"cannot start {grant} on inactive node {self.node.hostname}"
            )
        run = _ContainerRun(grant, app)
        self._runs[str(grant.container_id)] = run
        run.lifecycle = self.sim.process(
            self._container_lifecycle(grant, spec, app, run),
            name=f"container-{grant.container_id}",
        )
        return run.lifecycle

    def kill_container(self, grant: ContainerGrant, reason: str) -> None:
        """Force-kill an in-flight container (preemption / node loss)."""
        run = self._runs.get(str(grant.container_id))
        if run is None or run.lifecycle is None or not run.lifecycle.is_alive:
            raise SimulationError(
                f"{self.node.hostname}: no killable container {grant}"
            )
        run.kill_reason = reason
        run.lifecycle.interrupt(reason)

    def kill_active_containers(self, reason: str) -> int:
        """Force-kill every killable container here (node failure).

        AM containers, opportunistic containers, and containers of
        frameworks that do not support kills are spared; returns the
        number of kills issued.
        """
        killed = 0
        for run in list(self._runs.values()):
            grant, app = run.grant, run.app
            if grant.container_id.is_application_master:
                continue
            if grant.execution_type is not ExecutionType.GUARANTEED:
                continue
            if not app.supports_container_kill:
                continue
            if grant.rm_container.state not in ("ACQUIRED", "RUNNING"):
                continue
            self.rm.preempt_container(app, grant, reason)
            killed += 1
        return killed

    def _container_lifecycle(
        self,
        grant: ContainerGrant,
        spec: LaunchSpec,
        app: YarnApplication,
        run: _ContainerRun,
    ) -> Generator[Event, Any, None]:
        try:
            yield from self._lifecycle_body(grant, spec, app, run)
        except Interrupt as exc:
            yield from self._reap_killed(grant, app, run, exc)
        finally:
            self._runs.pop(str(grant.container_id), None)

    def _reap_killed(
        self,
        grant: ContainerGrant,
        app: YarnApplication,
        run: _ContainerRun,
        exc: Interrupt,
    ) -> Generator[Event, Any, None]:
        """Tear down a force-killed container and report the loss.

        Logs the NM-side KILLING acknowledgement (Table I′), hands the
        lost instance back to the application for recovery, waits for
        the instance process to unwind, then releases RM-side resources.
        """
        reason = run.kill_reason or str(exc.cause or "killed")
        cimpl = run.cimpl
        if cimpl is not None and cimpl.state in ("LOCALIZING", "SCHEDULED", "RUNNING"):
            cimpl.handle("KILL_CONTAINER")  # -> KILLING  (Table I′)
            cimpl.handle("CONTAINER_RESOURCES_CLEANEDUP")  # -> DONE
        if grant in self.active_containers:
            self.active_containers.remove(grant)
        instance = run.instance
        app.container_killed(grant, instance, reason)
        if instance is not None and instance.is_alive:
            # The instance unwinds (workers catch their interrupts and
            # return); wait so RM accounting happens after it is gone.
            try:
                yield instance
            except Interrupt:
                pass
        self.rm.container_killed(app, grant)
        self.drain_queued()

    def _lifecycle_body(
        self,
        grant: ContainerGrant,
        spec: LaunchSpec,
        app: YarnApplication,
        run: _ContainerRun,
    ) -> Generator[Event, Any, None]:
        sim = self.sim
        params = self.params
        cid = str(grant.container_id)
        rng = self._rng.child(cid)
        yield sim.timeout(params.nm_start_container_s)
        self.active_containers.append(grant)

        cimpl = NMContainerStateMachine(cid, self.logger)
        run.cimpl = cimpl
        cimpl.handle("INIT_CONTAINER")  # NEW -> LOCALIZING  (Table I msg 6)

        # ---- localization ----------------------------------------------------
        yield sim.timeout(params.localization_setup_s)
        # The ContainerLocalizer is a short-lived JVM: CPU-bound start-up
        # that contends with co-located compute (Fig 13d).
        if params.localizer_jvm_cpu_s > 0:
            yield self.node.cpu.submit(params.localizer_jvm_cpu_s, demand=1.0)
        for file in spec.files:
            if params.nm_localization_cache and file.path in self._localized:
                continue  # resource-cache hit: no download
            inflight = self._localizing.get(file.path)
            if params.nm_localization_cache and inflight is not None:
                yield inflight  # another container is fetching it
                continue
            done = sim.event()
            self._localizing[file.path] = done
            try:
                if params.localization_storage == "dedicated":
                    # Section V-B proposal: a per-node caching service
                    # on a dedicated storage class — no shared disks, no
                    # network, immune to dfsIO interference.
                    yield self.localization_disk.submit(file.size_bytes)
                else:
                    elapsed = yield from self.rm.services.hdfs.read(self.node, file)
                    del elapsed  # timing observable via log transitions
                self._localized.add(file.path)
            finally:
                if self._localizing.get(file.path) is done:
                    del self._localizing[file.path]
                done.succeed(None)
        cimpl.handle("RESOURCE_LOCALIZED")  # LOCALIZING -> SCHEDULED (msg 7)

        # ---- NM-side queueing (opportunistic containers only) -----------------
        if grant.execution_type is ExecutionType.OPPORTUNISTIC:
            yield from self._admit_opportunistic(grant)
        # Guaranteed containers had their resources reserved at RM
        # allocation time; they launch immediately.

        # ---- launch ------------------------------------------------------------
        yield sim.timeout(params.launch_script_setup_s)
        if spec.docker:
            # Image load from the local hub + mount (Fig 9b): heavy-tailed.
            yield sim.timeout(
                rng.bounded_pareto(
                    params.docker_overhead_median_s,
                    params.docker_overhead_alpha,
                    params.docker_overhead_cap_s,
                )
            )
        warm = params.jvm_reuse and self._warm_jvms.get(spec.instance_type, 0) > 0
        if warm:
            # Section V-B JVM reuse: attach to a pooled warm JVM —
            # classes loaded, JIT code hot; only a fractional start cost.
            self._warm_jvms[spec.instance_type] -= 1
            yield sim.timeout(params.jvm_reuse_attach_s)
        jvm = rng.lognormal_median(
            params.jvm_start_median_s[spec.instance_type], params.jvm_start_sigma
        )
        if warm:
            jvm *= 1.0 - params.jvm_reuse_discount
        else:
            # Class/jar reads during JVM start: free when page-cache-hot,
            # disk-bound when write pressure evicted the cache (Fig 12).
            class_cold = params.jvm_class_load_bytes * cold_fraction(
                self.node,
                params.jvm_class_load_bytes,
                params.page_cache_bytes,
                params.page_cache_eviction_sensitivity,
            )
            if class_cold > 0:
                yield self.node.disk.submit(class_cold)
        cpu_part = jvm * params.jvm_start_cpu_fraction
        if cpu_part > 0:
            # Class loading + JIT: contends with everything else on the
            # node's CPU (the Fig 13 launch-path slowdown).
            yield self.node.cpu.submit(cpu_part, demand=1.0)
        if jvm > cpu_part:
            yield sim.timeout(jvm - cpu_part)

        cimpl.handle("CONTAINER_LAUNCHED")  # SCHEDULED -> RUNNING (msg 8)
        if grant.rm_container is not None and grant.rm_container.state == "ACQUIRED":
            grant.rm_container.handle("LAUNCHED")

        # ---- run the instance ------------------------------------------------------
        ctx = ContainerContext(
            services=self.rm.services,
            node=self.node,
            grant=grant,
            logger=self.rm.services.log_store.logger(cid, lambda: sim.now),
            app=app,
            warm_jvm=warm,
        )
        if grant.container_id.is_application_master:
            ctx.am_client = self.rm.make_am_client(app)
        instance = sim.process(spec.run(ctx), name=f"instance-{cid}")
        run.instance = instance
        # The NM thread blocks on the launch script until the container
        # exits (section III-B).
        yield instance

        # ---- completion -----------------------------------------------------------
        if params.jvm_reuse:
            # Return the JVM to the warm pool for the next recurring app.
            self._warm_jvms[spec.instance_type] = (
                self._warm_jvms.get(spec.instance_type, 0) + 1
            )
        cimpl.handle("CONTAINER_EXITED_WITH_SUCCESS")
        cimpl.handle("CONTAINER_RESOURCES_CLEANEDUP")
        self.active_containers.remove(grant)
        if grant.execution_type is ExecutionType.OPPORTUNISTIC:
            self.node.free(grant.spec.memory_mb, grant.spec.vcores, tag="opportunistic")
        self.rm.container_finished(app, grant)
        self.drain_queued()

    # -- opportunistic admission ----------------------------------------------------
    def _admit_opportunistic(self, grant: ContainerGrant) -> Generator[Event, Any, None]:
        """Queue until the node has room, then claim resources.

        This wait is the distributed scheduler's queueing delay: the
        randomly chosen node may be busy, and the container sits in
        SCHEDULED until running work drains (Fig 7b's up-to-53 s tail).
        """
        admitted = self.sim.event()
        self._opportunistic_queue.append((grant, admitted))
        self.drain_queued()
        yield admitted

    def drain_queued(self) -> None:
        """Admit queued opportunistic containers that now fit.

        Called whenever resources free on this node — including
        guaranteed-container completions, which the RM routes here.
        """
        if not self.node.active:
            return  # a dead node never admits queued work
        self._drain_opportunistic_queue()

    def _drain_opportunistic_queue(self) -> None:
        while self._opportunistic_queue:
            grant, admitted = self._opportunistic_queue[0]
            if not self.node.fits(grant.spec.memory_mb, grant.spec.vcores):
                return
            self._opportunistic_queue.popleft()
            self.node.reserve(grant.spec.memory_mb, grant.spec.vcores, tag="opportunistic")
            admitted.succeed(None)
