"""The Spark driver (ApplicationMaster) and its scheduling behaviour.

This is where the paper's *in-application delay* comes from:

* **driver delay** (Table I msgs 9 -> 10): JVM warm-up plus SparkContext
  initialization between the driver's first log line and its
  registration with the RM — mostly CPU-bound, hence the 2.9x slowdown
  under CPU interference (Fig 13c).
* **executor delay** (msgs 13 -> 14): executors sit idle while the
  driver runs user initialization (one RDD + broadcast variable per
  opened file, sequential unless the Scala-Future optimization is on),
  plans the query, builds the DAG, and waits for 80% of executors to
  register before dispatching the first task (Fig 10's timeline).

The driver also reproduces the SPARK-21562 over-request bug: in
opportunistic mode it asks for more containers than it launches, leaving
grants with RM-side log states only (section V-A).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count
from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.simul.engine import Event, SimulationError
from repro.spark.executor import STOP, SparkExecutor
from repro.spark.tasks import StageSpec, Task
from repro.yarn.app import ContainerContext, YarnApplication
from repro.yarn.records import ExecutionType, LaunchSpec, ResourceRequest, ResourceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.workload import SparkWorkload

__all__ = ["SparkApplication"]

_AM_CLS = "org.apache.spark.deploy.yarn.ApplicationMaster"
_ALLOCATOR_CLS = "org.apache.spark.deploy.yarn.YarnAllocator"
_SC_CLS = "org.apache.spark.SparkContext"
_BACKEND_CLS = "org.apache.spark.scheduler.cluster.YarnSchedulerBackend"


class SparkApplication(YarnApplication):
    """One Spark job submitted to YARN (cluster deploy mode)."""

    AM_INSTANCE_TYPE = "spm"

    #: Spark recovers from forced kills: lost tasks re-enter the pending
    #: queue and a replacement container is requested (the preemption /
    #: node-failure scenarios rely on this).
    supports_container_kill = True

    def __init__(
        self,
        name: str,
        workload: "SparkWorkload",
        num_executors: int = 4,
        docker: bool = False,
        opportunistic: bool = False,
        extra_localized_bytes: float = 0.0,
        parallel_rdd_init: bool = False,
        executor_memory_mb: Optional[int] = None,
        executor_vcores: Optional[int] = None,
        task_threads: Optional[int] = None,
        user: str = "ubuntu",
        queue: str = "default",
    ):
        super().__init__(name, user=user, queue=queue)
        if num_executors < 1:
            raise ValueError("num_executors must be >= 1")
        self.workload = workload
        self.num_executors = num_executors
        self.docker = docker
        #: Request OPPORTUNISTIC containers via the distributed scheduler.
        self.opportunistic = opportunistic
        #: Extra "--files" upload localized by every executor (Fig 8).
        self.extra_localized_bytes = float(extra_localized_bytes)
        #: Parallelize RDD/broadcast init with Futures (Fig 11b "opt").
        self.parallel_rdd_init = parallel_rdd_init
        self._executor_memory_mb = executor_memory_mb
        self._executor_vcores = executor_vcores
        self._task_threads = task_threads
        # Runtime state (populated when the driver starts).
        self.registered_executors: List[SparkExecutor] = []
        self.surplus_grants: List = []
        self._extra_file = None
        self._ctx: Optional[ContainerContext] = None
        self._stopped = False
        self._gate: Optional[Event] = None
        self._stage_done: Optional[Event] = None
        self._stage_remaining = 0
        #: Stage tasks not yet offered to any executor (pull model).
        self._pending_tasks: deque = deque()
        self._task_ids = count(0)
        self._executor_ids = count(1)
        self._rng = None
        #: This driver attempt's RPC latency, drawn on first use.
        self._rpc_latency: Optional[float] = None
        #: Containers lost to forced kills (drives the raised launch cap).
        self._relaunches = 0
        #: True while _allocation_loop is pulling grants; replacements
        #: requested then are absorbed by raising its total instead of
        #: racing it for the allocated store.
        self._alloc_active = False
        self._alloc_total = 0
        #: <1.0 when the driver attached to a warm JVM (section V-B).
        self._warm_factor = 1.0
        #: SDchecker-relevant milestones, for white-box assertions in tests.
        self.milestones: dict = {}

    # -- YARN integration -----------------------------------------------------
    def am_heartbeat_intervals(self, params):
        # Fast while allocation is pending, slow when idle (Spark's
        # spark.yarn.scheduler.heartbeat behaviour).
        return (params.spark_am_heartbeat_s, 3.0)

    def prepare_payload(self, services) -> None:
        super().prepare_payload(services)
        if self.extra_localized_bytes > 0:
            # The "--files" upload of Fig 8: when larger than the page
            # cache its localization goes to the source disks.
            self._extra_file = services.hdfs.register_file(
                f"/user/{self.user}/.sparkStaging/{self.name}/extra_files.bin",
                self.extra_localized_bytes,
            )
        self.workload.prepare(services)

    def executor_spec(self, params) -> ResourceSpec:
        return ResourceSpec(
            self._executor_memory_mb or params.executor_memory_mb,
            self._executor_vcores or params.executor_vcores,
        )

    def executor_launch_spec(self, params) -> LaunchSpec:
        files = list(self.payload_files)
        if self._extra_file is not None:
            files.append(self._extra_file)
        return LaunchSpec(
            instance_type="spe", run=self._executor_body, files=files, docker=self.docker
        )

    # -- hooks used by SparkExecutor ---------------------------------------------
    def rpc_latency(self) -> float:
        # The first draw of a fresh ``rpc`` substream: constant for the
        # attempt, so it is drawn once and kept.
        if self._rpc_latency is None:
            p = self._ctx.services.params
            self._rpc_latency = self._rng.child("rpc").lognormal_median(
                p.rpc_latency_median_s, p.rpc_latency_sigma
            )
        return self._rpc_latency

    def task_threads_per_executor(self) -> int:
        params = self._ctx.services.params
        return self._task_threads or self.executor_spec(params).vcores

    def register_executor(
        self, executor: SparkExecutor
    ) -> Generator[Event, Any, bool]:
        """Executor -> driver registration; returns False post-shutdown."""
        params = self._ctx.services.params
        # Handshake processing happens on the driver's CPU, contending
        # with user initialization running there.
        yield self._ctx.node.cpu.submit(params.executor_register_service_s, demand=1.0)
        if self._stopped:
            return False
        self.registered_executors.append(executor)
        self._ctx.logger.info(
            _BACKEND_CLS,
            f"Registered executor NettyRpcEndpointRef(null) "
            f"({executor.ctx.node.hostname}:{36000 + executor.executor_id}) "
            f"with ID {executor.executor_id}",
        )
        # A mid-stage registrant immediately receives pending offers.
        self._offer_tasks(executor, self.task_threads_per_executor())
        need = self._gate_need()
        if len(self.registered_executors) >= need and not self._gate.triggered:
            self.milestones["gate_satisfied"] = self._ctx.sim.now
            self._gate.succeed(None)
        return True

    def task_finished(self, task: Task, executor: SparkExecutor) -> None:
        # Work-conserving offers: a freed slot pulls the next pending
        # task (Spark's resourceOffers-on-StatusUpdate behaviour).
        self._offer_tasks(executor, 1)
        self._stage_remaining -= 1
        if self._stage_remaining == 0 and self._stage_done is not None:
            self._stage_done.succeed(None)

    def container_killed(self, grant, instance, reason: str) -> None:
        """Recover from a forced container kill (preemption / node loss).

        Reclaims the dead executor's tasks into the pending queue,
        re-offers them to the survivors, and asks the RM for a
        replacement container (Spark's allocator requests missing
        executors on its next heartbeat).
        """
        if self._stopped:
            return
        executor = next(
            (e for e in self.registered_executors if e.ctx.grant is grant), None
        )
        if executor is not None:
            # Remove first so task re-offers below never target the dead
            # executor, then reclaim everything it would strand.
            self.registered_executors.remove(executor)
            lost = executor.kill(reason)
            self._ctx.logger.info(
                _BACKEND_CLS,
                f"Lost executor {executor.executor_id} on "
                f"{executor.ctx.node.hostname}: {reason}",
            )
            self._pending_tasks.extend(lost)
            threads = self.task_threads_per_executor()
            survivors = list(self.registered_executors)
            for _ in range(threads):
                for survivor in survivors:
                    self._offer_tasks(survivor, 1)
        elif instance is not None and instance.is_alive:
            # Killed before it registered with the driver (still in
            # executor init): unwind the instance process directly.
            instance.interrupt(reason)
        self._relaunches += 1
        params = self._ctx.services.params
        execution_type = (
            ExecutionType.OPPORTUNISTIC if self.opportunistic else ExecutionType.GUARANTEED
        )
        self._ctx.am_client.request_containers(
            ResourceRequest(self.executor_spec(params), 1, execution_type)
        )
        if self._alloc_active:
            self._alloc_total += 1
        else:
            self._ctx.sim.process(
                self._replacement_loop(self._ctx),
                name=f"replace-{grant.container_id}",
            )

    def task_failed(self, task: Task, executor: SparkExecutor) -> None:
        """A failed attempt: re-offer up to spark.task.maxFailures."""
        params = self._ctx.services.params
        if task.attempts >= params.spark_task_max_attempts:
            raise SimulationError(
                f"{self.app_id}: task {task.task_id} failed "
                f"{task.attempts} times (spark.task.maxFailures)"
            )
        self._pending_tasks.append(task)
        self._offer_tasks(executor, 1)

    def _offer_tasks(self, executor: SparkExecutor, slots: int) -> None:
        for _ in range(slots):
            if not self._pending_tasks:
                return
            executor.inbox.put(self._pending_tasks.popleft())

    def _gate_need(self) -> int:
        ratio = self._ctx.services.params.min_registered_resources_ratio
        return max(1, math.ceil(ratio * self.num_executors))

    # -- the driver process ----------------------------------------------------------
    def run_application_master(
        self, ctx: ContainerContext
    ) -> Generator[Event, Any, None]:
        sim = ctx.sim
        params = ctx.services.params
        self._ctx = ctx
        self._gate = sim.event()
        self._rng = ctx.services.rng.child(f"spark.{self.app_id}")
        self._rpc_latency = None

        # FIRST_LOG — Table I message 9.
        ctx.logger.info(_AM_CLS, f"Preparing Local resources for {self.app_id}")
        self.milestones["driver_first_log"] = sim.now

        # SparkContext + ApplicationMaster initialization (driver delay).
        init = self._rng.lognormal_median(
            params.driver_init_median_s, params.driver_init_sigma
        )
        if ctx.warm_jvm:
            # JVM reuse (section V-B): warm-up already paid by a prior
            # recurring application.  User code also runs on warm JIT
            # code, so a (smaller) discount applies to the init path.
            init *= 1.0 - params.jvm_reuse_discount
            self._warm_factor = 1.0 - 0.6 * params.jvm_reuse_discount
        else:
            self._warm_factor = 1.0
        cpu_part = init * params.driver_init_cpu_fraction
        if cpu_part > 0:
            yield ctx.node.cpu.submit(cpu_part, demand=1.0)
        if init > cpu_part:
            yield sim.timeout(init - cpu_part)

        yield from ctx.am_client.register()
        # REGISTER — Table I message 10.
        ctx.logger.info(
            _AM_CLS,
            f"Registered ApplicationMaster for {self.app_id} "
            f"(appattempt {self.app_id.attempt(1)})",
        )
        self.milestones["driver_registered"] = sim.now

        # START_ALLO — Table I message 11 (the paper's manual addition).
        extra = params.spark_overrequest_bug_extra if self.opportunistic else 0
        total = self.num_executors + extra
        ctx.logger.info(
            _ALLOCATOR_CLS,
            f"SDCHECKER START_ALLO Will request {total} executor "
            f"container(s) for {self.app_id}",
        )
        execution_type = (
            ExecutionType.OPPORTUNISTIC if self.opportunistic else ExecutionType.GUARANTEED
        )
        ctx.am_client.request_containers(
            ResourceRequest(self.executor_spec(params), total, execution_type)
        )
        self._alloc_total = total
        sim.process(self._allocation_loop(ctx), name=f"alloc-loop-{self.app_id}")

        # User main: RDD init, planning, job submission, stages.
        yield from self._user_main(ctx)

        # Teardown: stop executors, return bug containers, unregister.
        self._stopped = True
        threads = self.task_threads_per_executor()
        for executor in self.registered_executors:
            for _ in range(threads):
                executor.inbox.put(STOP)
        for grant in list(self.surplus_grants):
            ctx.am_client.release_container(grant)
        self.surplus_grants.clear()
        ctx.logger.info(_SC_CLS, "Successfully stopped SparkContext")
        yield from ctx.am_client.unregister()

    def _executor_body(self, ectx: ContainerContext):
        executor = SparkExecutor(self, ectx, next(self._executor_ids))
        return executor.run()

    def _allocation_loop(self, ctx: ContainerContext) -> Generator[Event, Any, None]:
        granted = 0
        launched = 0
        self._alloc_active = True
        try:
            # _alloc_total grows when a container is killed mid-allocation
            # (the replacement rides on this same loop).
            while granted < self._alloc_total:
                grant = yield ctx.am_client.allocated.get()
                granted += 1
                if self._stopped:
                    ctx.am_client.release_container(grant)
                    continue
                if launched >= self.num_executors + self._relaunches:
                    # SPARK-21562: over-requested containers are never
                    # launched; they hold RM-side states only until release.
                    self.surplus_grants.append(grant)
                    continue
                launched += 1
                ctx.sim.process(
                    self._start_executor_container(ctx, grant),
                    name=f"launch-{grant.container_id}",
                )
        finally:
            self._alloc_active = False
        # END_ALLO — Table I message 12.
        ctx.logger.info(
            _ALLOCATOR_CLS,
            f"SDCHECKER END_ALLO All requested containers allocated "
            f"for {self.app_id} ({granted} granted)",
        )
        self.milestones["allocation_complete"] = ctx.sim.now

    def _replacement_loop(self, ctx: ContainerContext) -> Generator[Event, Any, None]:
        """Pull one replacement grant after the allocation loop ended."""
        grant = yield ctx.am_client.allocated.get()
        if self._stopped:
            ctx.am_client.release_container(grant)
            return
        yield from self._start_executor_container(ctx, grant)

    def _start_executor_container(
        self, ctx: ContainerContext, grant
    ) -> Generator[Event, Any, None]:
        params = ctx.services.params
        yield ctx.sim.timeout(self.rpc_latency())
        if not grant.node.active:
            # The node died between the grant and the launch RPC:
            # release the RM-side accounting and request a replacement.
            ctx.services.rm.container_killed(self, grant)
            self.container_killed(grant, None, "node lost before launch")
            return
        nm = ctx.services.rm.nm_for(grant.node)
        nm.start_container(grant, self.executor_launch_spec(params), self)

    # -- user code -------------------------------------------------------------------
    def _user_main(self, ctx: ContainerContext) -> Generator[Event, Any, None]:
        sim = ctx.sim
        params = ctx.services.params
        files = self.workload.input_files
        if not files:
            raise SimulationError(f"{self.name}: workload has no input files")

        if self.parallel_rdd_init:
            width = max(1, params.rdd_init_parallelism)
            for base in range(0, len(files), width):
                batch = files[base : base + width]
                procs = [
                    sim.process(
                        self._init_rdd(ctx, file, base + i),
                        name=f"rdd-init-{self.app_id}-{base + i}",
                    )
                    for i, file in enumerate(batch)
                ]
                yield sim.all_of(procs)
        else:
            for i, file in enumerate(files):
                yield from self._init_rdd(ctx, file, i)
        self.milestones["user_init_done"] = sim.now

        if self.workload.is_sql:
            planning = self._warm_factor * self._rng.lognormal_median(
                params.sql_planning_median_s, params.sql_planning_sigma
            )
            yield ctx.node.cpu.submit(planning, demand=1.0)

        submit = self._warm_factor * self._rng.lognormal_median(
            params.job_submit_median_s, params.job_submit_sigma
        )
        cpu_part = submit * params.job_submit_cpu_fraction
        if cpu_part > 0:
            yield ctx.node.cpu.submit(cpu_part, demand=1.0)
        if submit > cpu_part:
            yield sim.timeout(submit - cpu_part)

        # The scheduler backend refuses to launch tasks until 80% of the
        # requested executors have registered (section IV-B) — or until
        # spark.scheduler.maxRegisteredResourcesWaitingTime (30 s)
        # expires, whichever comes first.
        if not self._gate.triggered:
            yield sim.any_of(
                [self._gate, sim.timeout(params.max_registered_wait_s)]
            )
        self.milestones["job_start"] = sim.now

        for stage in self.workload.build_stages(ctx.services, self):
            yield from self._run_stage(ctx, stage)
        self.milestones["job_done"] = sim.now

    def _init_rdd(
        self, ctx: ContainerContext, file, index: int
    ) -> Generator[Event, Any, None]:
        """One opened file: metadata read + broadcast variable creation."""
        sim = ctx.sim
        params = ctx.services.params
        rng = self._rng.child(f"rdd.{index}")
        nbytes = min(params.rdd_metadata_read_bytes, file.size_bytes)
        if nbytes > 0:
            yield from ctx.services.hdfs.read(ctx.node, file, nbytes=nbytes)
        cost = self._warm_factor * rng.lognormal_median(
            params.broadcast_create_median_s, params.broadcast_create_sigma
        )
        cpu_part = cost * params.broadcast_cpu_fraction
        if cpu_part > 0:
            yield ctx.node.cpu.submit(cpu_part, demand=1.0)
        if cost > cpu_part:
            yield sim.timeout(cost - cpu_part)
        ctx.logger.info(
            _SC_CLS, f"Created broadcast {index} from textFile at {file.path}"
        )

    def _run_stage(
        self, ctx: ContainerContext, stage: StageSpec
    ) -> Generator[Event, Any, None]:
        sim = ctx.sim
        params = ctx.services.params
        # Stage submission + shuffle-fetch ramp before tasks can start.
        if params.stage_overhead_s > 0:
            yield sim.timeout(params.stage_overhead_s)
        noise_rng = self._rng.child(f"stage.{stage.name}")
        self._stage_done = sim.event()
        self._stage_remaining = stage.n_tasks
        tasks = [
            Task(
                task_id=next(self._task_ids),
                stage=stage,
                noise=noise_rng.lognormal_median(1.0, 0.25),
            )
            for _ in range(stage.n_tasks)
        ]
        # Initial offers spread round-robin across registered executors
        # up to their slot counts (Spark's spread-out placement); the
        # remainder waits in the pending queue and is pulled as slots
        # free up or new executors register.
        self._pending_tasks.extend(tasks)
        threads = self.task_threads_per_executor()
        executors = list(self.registered_executors)
        for _ in range(threads):
            for executor in executors:
                self._offer_tasks(executor, 1)
        yield self._stage_done
        self._stage_done = None
