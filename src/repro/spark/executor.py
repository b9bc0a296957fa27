"""The Spark executor backend.

Each executor container runs one :class:`SparkExecutor`: it logs its
FIRST_LOG line (Table I message 13) the moment the JVM is up, registers
with the driver, then runs one worker loop per task slot pulling tasks
from the driver's queue.  The first "Got assigned task" line is Table I
message 14 — the end of the total scheduling delay for the application.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, TYPE_CHECKING

from repro.cluster.contention import cold_fraction
from repro.simul.engine import Event, Interrupt, Process
from repro.simul.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.application import SparkApplication
    from repro.yarn.app import ContainerContext

__all__ = ["SparkExecutor", "STOP"]

#: Sentinel the driver enqueues to shut a worker down.
STOP = object()

_BACKEND_CLS = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
_EXECUTOR_CLS = "org.apache.spark.executor.Executor"


class SparkExecutor:
    """One executor instance inside a YARN container."""

    def __init__(self, app: "SparkApplication", ctx: "ContainerContext", executor_id: int):
        self.app = app
        self.ctx = ctx
        self.executor_id = executor_id
        self.tasks_run = 0
        #: Tasks the driver has assigned to this executor (round-robin
        #: dispatch, like Spark's spread-out task placement).
        self.inbox: Store = Store(ctx.sim)
        #: Worker processes, populated at registration (kill targets).
        self._workers: List[Process] = []
        #: Outstanding inbox gets by worker slot — a kill must reclaim
        #: a task already handed to a get() the worker hasn't woken for.
        self._gets: Dict[int, Event] = {}
        #: Tasks mid-execution by worker slot.
        self._running: Dict[int, Any] = {}

    def run(self) -> Generator[Event, Any, None]:
        """Container process body (invoked by the NM at launch)."""
        try:
            yield from self._run_body()
        except Interrupt:
            # Killed before registration completed (the registered path
            # interrupts the workers instead); same farewell either way.
            self.ctx.logger.info(_BACKEND_CLS, "Driver commanded a shutdown")
            return

    def kill(self, reason: str) -> List[Any]:
        """Forcibly stop a registered executor; return the lost tasks.

        Reclaims every task this executor would otherwise strand: queued
        in the inbox, handed to a not-yet-woken inbox get, or
        mid-execution — then interrupts the worker loops (each catches
        its Interrupt and returns, so the executor's shutdown barrier
        still completes normally).
        """
        lost: List[Any] = [t for t in self.inbox._items if t is not STOP]
        self.inbox._items.clear()
        for ev in self._gets.values():
            # A put() may have handed a task straight to this get(); the
            # worker never wakes (we interrupt it below), so take it back.
            if ev.triggered and ev.ok and ev.value is not STOP:
                lost.append(ev.value)
        lost.extend(self._running.values())
        for worker in self._workers:
            if worker.is_alive:
                worker.interrupt(reason)
        return lost

    def _run_body(self) -> Generator[Event, Any, None]:
        ctx = self.ctx
        sim = ctx.sim
        params = ctx.services.params
        # FIRST_LOG — Table I message 13.
        ctx.logger.info(
            _BACKEND_CLS,
            f"Started daemon with process name: "
            f"{20000 + self.executor_id}@{ctx.node.hostname} "
            f"for container {ctx.container_id}",
        )
        # Executor-side initialization after the JVM is up: SparkEnv,
        # BlockManager registration, shuffle/serializer setup.  Partly
        # CPU-bound (class loading + JIT), so it stretches under CPU
        # interference like the rest of the in-application path.
        rng = ctx.services.rng.child(f"executor-init.{ctx.container_id}")
        init = rng.lognormal_median(
            params.executor_init_median_s, params.executor_init_sigma
        )
        if ctx.warm_jvm:
            # JVM reuse (section V-B): SparkEnv classes hot, JIT warm.
            init *= 1.0 - params.jvm_reuse_discount
        cpu_part = init * params.jvm_start_cpu_fraction
        if cpu_part > 0:
            yield ctx.node.cpu.submit(cpu_part, demand=1.0)
        if init > cpu_part:
            yield sim.timeout(init - cpu_part)
        # Lazily-loaded classes/jars: free when page-cache-hot, but a
        # contended disk read under dfsIO pressure (Fig 12c).
        cold = params.executor_init_class_load_bytes * cold_fraction(
            ctx.node,
            params.executor_init_class_load_bytes,
            params.page_cache_bytes,
            params.page_cache_eviction_sensitivity,
        )
        if cold > 0:
            yield ctx.node.disk.submit(cold)
        # Connect back to the driver and register.
        yield sim.timeout(self.app.rpc_latency())
        accepted = yield from self.app.register_executor(self)
        if not accepted:
            # Job already finished (stragglers of a short job): exit.
            ctx.logger.info(_BACKEND_CLS, "Driver commanded a shutdown")
            return
        ctx.logger.info(
            _EXECUTOR_CLS,
            f"Starting executor ID {self.executor_id} on host {ctx.node.hostname}",
        )
        slots = max(1, self.app.task_threads_per_executor())
        self._workers = [
            sim.process(self._worker(w), name=f"worker-{ctx.container_id}-{w}")
            for w in range(slots)
        ]
        yield sim.all_of(self._workers)
        ctx.logger.info(_BACKEND_CLS, "Driver commanded a shutdown")

    def _worker(self, wid: int) -> Generator[Event, Any, None]:
        """One task slot: pull, log, execute (or fail), report."""
        ctx = self.ctx
        sim = ctx.sim
        params = ctx.services.params
        fail_rng = ctx.services.rng.child(f"task-fail.{ctx.container_id}")
        while True:
            get_ev = self.inbox.get()
            self._gets[wid] = get_ev
            try:
                task = yield get_ev
            except Interrupt:
                return  # executor killed while idle
            finally:
                self._gets.pop(wid, None)
            if task is STOP:
                return
            self._running[wid] = task
            try:
                yield sim.timeout(self.app.rpc_latency())
                # "Got assigned task N" — the first one is Table I msg 14.
                ctx.logger.info(_EXECUTOR_CLS, f"Got assigned task {task.task_id}")
                if params.spark_task_failure_prob > 0 and fail_rng.bernoulli(
                    params.spark_task_failure_prob
                ):
                    # Fail partway through: the wasted work still burned
                    # real resources; the driver re-offers the task.
                    yield from task.execute(ctx, completion=fail_rng.uniform(0.1, 0.9))
                    ctx.logger.error(
                        _EXECUTOR_CLS,
                        f"Exception in task {task.task_id} (attempt {task.attempts})",
                    )
                    self.app.task_failed(task, self)
                    continue
                yield from task.execute(ctx)
                self.tasks_run += 1
                self.app.task_finished(task, self)
            except Interrupt:
                # Executor killed mid-task; kill() already reclaimed the
                # task for re-dispatch elsewhere.
                return
            finally:
                self._running.pop(wid, None)
