"""Composable production-scale scenarios over the simulated testbed.

A :class:`Scenario` declares *what a production day looks like* — the
arrival process, the tenant mix, the scheduler and its preemption
policy, the hardware mix, and mid-run cluster events (node failures,
decommissions, autoscale joins) — and :meth:`Scenario.run` compiles it
onto a :class:`~repro.testbed.Testbed`, runs it to completion, and
mines the logs with SDchecker.

Everything is keyed by ``RandomSource`` substreams derived from one
seed: two runs of the same scenario at the same seed emit byte-identical
logs (the golden-snapshot tests pin this).  Every scenario emits the
standard log4j dialect, so the unmodified miner consumes it; forced
kills surface as the Table I′ KILLED / KILLING transitions and land in
the ``preemption_delay`` / ``queue_wait_delay`` components of the
extended decomposition (:mod:`repro.core.decompose`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.profiles import HARDWARE_PROFILES
from repro.core.checker import SDChecker
from repro.core.report import AnalysisReport
from repro.params import GB, SimulationParams
from repro.simul.distributions import RandomSource
from repro.spark.application import SparkApplication
from repro.testbed import Testbed
from repro.workloads.google_trace import google_trace_arrivals
from repro.workloads.scenarios.arrivals import (
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)
from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload
from repro.yarn.preemption import PreemptionMonitor

__all__ = ["ArrivalSpec", "TenantSpec", "ClusterEvent", "Scenario", "ScenarioRun"]


@dataclass(frozen=True)
class ArrivalSpec:
    """Which arrival process drives submissions, and its shape.

    ``kind`` is ``"poisson"`` (needs ``rate_per_s``), ``"mmpp"`` (needs
    ``rates_per_s`` + ``mean_dwell_s``), ``"diurnal"`` (needs
    ``base_rate_per_s`` + ``peak_rate_per_s`` + ``period_s``), or
    ``"trace"`` — the paper's google-trace lognormal burstiness
    (:func:`~repro.workloads.google_trace.google_trace_arrivals`,
    needs ``rate_per_s``).
    """

    kind: str = "poisson"
    rate_per_s: float = 0.25
    rates_per_s: Tuple[float, ...] = (0.05, 1.0)
    mean_dwell_s: float = 30.0
    base_rate_per_s: float = 0.05
    peak_rate_per_s: float = 0.5
    period_s: float = 120.0

    def sample(self, n: int, rng: RandomSource) -> List[float]:
        if self.kind == "poisson":
            return poisson_arrivals(n, self.rate_per_s, rng)
        if self.kind == "mmpp":
            return mmpp_arrivals(n, list(self.rates_per_s), self.mean_dwell_s, rng)
        if self.kind == "diurnal":
            return diurnal_arrivals(
                n, self.base_rate_per_s, self.peak_rate_per_s, self.period_s, rng
            )
        if self.kind == "trace":
            return google_trace_arrivals(n, 1.0 / self.rate_per_s, rng)
        raise ValueError(f"unknown arrival kind {self.kind!r}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a YARN queue, its fair-share weight, and its jobs."""

    name: str
    #: Relative share of submissions routed to this tenant.
    share: float = 1.0
    #: Fair-scheduler weight (only meaningful with scheduler="fair").
    weight: float = 1.0
    #: Executors per job this tenant submits.
    num_executors: int = 4
    #: TPC-H templates this tenant draws from (None = all 22).
    queries: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class ClusterEvent:
    """A mid-run cluster membership change.

    ``kind`` is ``"fail"`` / ``"decommission"`` (``node`` = 0-based
    index of the victim) or ``"add"`` (``profile`` = a name from
    :data:`~repro.cluster.profiles.HARDWARE_PROFILES`, or None for the
    params-default shape).
    """

    at_s: float
    kind: str
    node: int = 0
    profile: Optional[str] = None


@dataclass
class ScenarioRun:
    """A finished scenario: white-box testbed + mined report."""

    testbed: Testbed
    report: AnalysisReport
    makespan: float
    #: Containers the preemption monitor reclaimed (0 without one).
    preemptions: int = 0
    #: Containers lost to node failures.
    failure_kills: int = 0


@dataclass(frozen=True)
class Scenario:
    """A named, fully declarative production-shaped run."""

    name: str
    description: str = ""
    #: Jobs submitted across all tenants.
    n_jobs: int = 8
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    tenants: Tuple[TenantSpec, ...] = (TenantSpec("default"),)
    #: "capacity", "fair", or "opportunistic" (the Hadoop-3 distributed
    #: scheduler: capacity RM + OPPORTUNISTIC container requests — the
    #: calibration engine's scheduler-substitution knob).
    scheduler: str = "capacity"
    #: PreemptionMonitor kwargs; None runs without preemption.
    preemption: Optional[Dict[str, float]] = None
    #: Mid-run membership changes, applied in ``at_s`` order.
    cluster_events: Tuple[ClusterEvent, ...] = ()
    #: Per-node hardware profile names (index-aligned, None entries and
    #: missing tail keep the params default shape).
    node_profiles: Tuple[Optional[str], ...] = ()
    #: TPC-H dataset size shared by every job.
    dataset_bytes: float = 2.0 * GB
    #: SimulationParams field overrides (num_nodes etc.).
    params: Dict[str, object] = field(default_factory=dict)
    default_seed: int = 0
    #: Simulated-time safety limit.
    limit_s: float = 50_000.0

    def variant(self, **overrides) -> "Scenario":
        return replace(self, **overrides)

    # -- compilation -------------------------------------------------------
    def build_params(self) -> SimulationParams:
        overrides = dict(self.params)
        weights = {t.name: t.weight for t in self.tenants if t.weight != 1.0}
        if weights and "queue_weights" not in overrides:
            overrides["queue_weights"] = {t.name: t.weight for t in self.tenants}
        return SimulationParams(**overrides)

    def build(self, seed: Optional[int] = None) -> Tuple[Testbed, Optional[PreemptionMonitor]]:
        """A testbed with every submission and event scheduled."""
        seed = self.default_seed if seed is None else seed
        params = self.build_params()
        profiles = [
            HARDWARE_PROFILES[p] if p is not None else None
            for p in self.node_profiles
        ]
        if self.scheduler not in ("capacity", "fair", "opportunistic"):
            raise ValueError(f"unknown scenario scheduler {self.scheduler!r}")
        distributed = self.scheduler == "opportunistic"
        bed = Testbed(
            params=params,
            seed=seed,
            scheduler="capacity" if distributed else self.scheduler,
            distributed_scheduling=distributed,
            node_profiles=profiles,
        )
        monitor = (
            PreemptionMonitor(bed.rm, **self.preemption)
            if self.preemption is not None
            else None
        )
        self._schedule_cluster_events(bed)
        rng = RandomSource(seed, f"scenario.{self.name}")
        dataset = TPCHDataset(self.dataset_bytes, name=f"{self.name}-ds")
        arrivals = self.arrivals.sample(self.n_jobs, rng.child("arrivals"))
        tenant_rng = rng.child("tenants")
        mix_rng = rng.child("mix")
        for i, offset in enumerate(arrivals):
            tenant = self._pick_tenant(tenant_rng)
            pool = list(tenant.queries) if tenant.queries else list(range(1, 23))
            query = pool[mix_rng.integers(0, len(pool))]
            app = SparkApplication(
                f"{tenant.name}-q{query}-{i:04d}",
                TPCHQueryWorkload(dataset, query=query),
                num_executors=tenant.num_executors,
                user=tenant.name,
                queue=tenant.name,
                opportunistic=distributed,
            )
            bed.submit(app, delay=offset)
        return bed, monitor

    def _pick_tenant(self, rng: RandomSource) -> TenantSpec:
        total = sum(t.share for t in self.tenants)
        point = rng.uniform(0.0, total)
        acc = 0.0
        for tenant in self.tenants:
            acc += tenant.share
            if point < acc:
                return tenant
        return self.tenants[-1]

    def _schedule_cluster_events(self, bed: Testbed) -> None:
        for event in sorted(self.cluster_events, key=lambda e: e.at_s):
            if event.kind == "fail":
                hostname = f"node{event.node + 1:02d}"
                bed.sim.call_at(
                    event.at_s,
                    lambda h=hostname: bed.fail_node(h),
                )
            elif event.kind == "decommission":
                hostname = f"node{event.node + 1:02d}"
                bed.sim.call_at(
                    event.at_s,
                    lambda h=hostname: bed.decommission_node(h),
                )
            elif event.kind == "add":
                profile = (
                    HARDWARE_PROFILES[event.profile]
                    if event.profile is not None
                    else None
                )
                bed.sim.call_at(
                    event.at_s, lambda p=profile: bed.add_node(p)
                )
            else:
                raise ValueError(f"unknown cluster event kind {event.kind!r}")

    # -- execution --------------------------------------------------------
    def run(self, seed: Optional[int] = None) -> ScenarioRun:
        """Build, simulate to completion, and mine the logs in memory.

        The report equals the one mined from the run's dumped logs:
        records carry the millisecond their line renders to.
        """
        bed, monitor = self.build(seed)
        makespan = bed.run_until_all_finished(limit=self.limit_s)
        if monitor is not None:
            monitor.stop()
        report = SDChecker().analyze(bed.log_store)
        failure_kills = sum(
            1
            for app in bed.applications
            for grant in app.grants
            if grant.rm_container is not None
            and grant.rm_container.state == "KILLED"
        )
        preemptions = monitor.preemptions if monitor is not None else 0
        return ScenarioRun(
            testbed=bed,
            report=report,
            makespan=makespan,
            preemptions=preemptions,
            failure_kills=failure_kills - preemptions,
        )
