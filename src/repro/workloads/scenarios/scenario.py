"""Composable production-scale scenarios over the simulated testbed.

A :class:`Scenario` declares *what a production day looks like* — the
arrival process, the tenant mix, the scheduler and its preemption
policy, the hardware mix, and mid-run cluster events (node failures,
decommissions, autoscale joins) — and :meth:`Scenario.run` compiles it
onto a :class:`~repro.testbed.Testbed`, runs it to completion, and
mines the logs with SDchecker.

The paper's own experimental recipe (section IV-A) is a scenario too:
:func:`trace_recipe` sets the fields that fix its bytes, and every
figure, example and ablation runs one, swept over the knob it studies.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.profiles import HARDWARE_PROFILES
from repro.core.checker import SDChecker
from repro.core.report import AnalysisReport
from repro.params import GB, SimulationParams
from repro.simul.distributions import RandomSource
from repro.spark.application import SparkApplication
from repro.testbed import Testbed
from repro.workloads.google_trace import google_trace_arrivals, load_trace_csv
from repro.workloads.scenarios.arrivals import (
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)
from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload
from repro.workloads.wordcount import WordCountWorkload
from repro.yarn.preemption import PreemptionMonitor

__all__ = [
    "ArrivalSpec",
    "TenantSpec",
    "ClusterEvent",
    "Scenario",
    "ScenarioRun",
    "trace_recipe",
]


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
    """One tenant: a YARN queue, its fair-share weight, and its jobs.

    Its jobs are named ``<name>-q<query>-<i>`` (TPC-H) or ``<name>-<i>``
    (wordcount), ``i`` counting every job of the scenario.
    """

    name: str
    #: Relative share of submissions routed to this tenant.
    share: float = 1.0
    #: Fair-scheduler weight (only meaningful with scheduler="fair").
    weight: float = 1.0
    #: Executors per job this tenant submits.
    num_executors: int = 4
    #: TPC-H templates this tenant draws from (None = all 22).
    queries: Optional[Tuple[int, ...]] = None
    #: "tpch" (Spark-SQL) or "wordcount" (plain Spark, Fig 11a).
    workload: str = "tpch"
    #: Launch containers inside Docker (Fig 9b).
    docker: bool = False
    #: Extra "--files" payload localized by every executor (Fig 8).
    extra_localized_bytes: float = 0.0
    #: Multiply the files opened during user init (Fig 11b).
    opened_files_multiplier: int = 1
    #: Parallelize RDD init with Futures (Fig 11b "opt").
    parallel_rdd_init: bool = False
    #: YARN user and queue of the jobs (None = the tenant name).
    user: Optional[str] = None
    queue: Optional[str] = None


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
    #: Submits co-located workloads to the fresh testbed before any job
    #: (Figs 7b, 12, 13).  Its apps are left out of the report.
    interference: Optional[Callable[[Testbed], None]] = None
    #: With interference, the first job arrives this late, so the
    #: interference has reached steady state.
    warmup_s: float = 30.0
    #: (arrival_s, query) rows of a trace file, replayed in place of the
    #: sampled arrivals and query mix; one row per job.
    replay: Tuple[Tuple[float, int], ...] = ()
    #: Root substream name (None = "scenario.<name>").
    rng_root: Optional[str] = None
    #: Draw each job's query from its own "mix.<i>" substream instead
    #: of one shared "mix" stream.
    mix_per_job: bool = False
    #: TPC-H dataset name (None = "<name>-ds").
    dataset_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.replay and len(self.replay) != self.n_jobs:
            raise ValueError(
                f"n_jobs is {self.n_jobs} but the trace replays {len(self.replay)} jobs"
            )

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
        start = 0.0
        if self.interference is not None:
            self.interference(bed)
            start = self.warmup_s
        rng = RandomSource(seed, self.rng_root or f"scenario.{self.name}")
        # Fresh per build: HdfsFile objects are bound to one testbed's
        # nodes and must never leak across runs.
        dataset = TPCHDataset(
            self.dataset_bytes, name=self.dataset_name or f"{self.name}-ds"
        )
        if self.replay:
            arrivals = [arrival for arrival, _ in self.replay]
        else:
            arrivals = self.arrivals.sample(self.n_jobs, rng.child("arrivals"))
        tenant_rng = rng.child("tenants")
        mix_rng = rng.child("mix")
        for i, offset in enumerate(arrivals):
            tenant = self._pick_tenant(tenant_rng)
            if tenant.workload == "tpch":
                if self.replay:
                    query = self.replay[i][1]
                else:
                    pool = tenant.queries or range(1, 23)
                    mix = rng.child(f"mix.{i}") if self.mix_per_job else mix_rng
                    query = pool[mix.integers(0, len(pool))]
                name = f"{tenant.name}-q{query}-{i:04d}"
                workload = TPCHQueryWorkload(
                    dataset,
                    query=query,
                    opened_files_multiplier=tenant.opened_files_multiplier,
                )
            elif tenant.workload == "wordcount":
                name = f"{tenant.name}-{i:04d}"
                workload = WordCountWorkload(self.dataset_bytes, name=f"wc-{i:04d}")
            else:
                raise ValueError(f"unknown workload {tenant.workload!r}")
            app = SparkApplication(
                name,
                workload,
                num_executors=tenant.num_executors,
                docker=tenant.docker,
                opportunistic=distributed,
                extra_localized_bytes=tenant.extra_localized_bytes,
                parallel_rdd_init=tenant.parallel_rdd_init,
                user=tenant.user or tenant.name,
                queue=tenant.queue or tenant.name,
            )
            bed.submit(app, delay=start + offset)
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
        if self.interference is not None:
            # App ids follow submission order and the interference goes
            # first, so the jobs hold the n_jobs highest ids.
            measured = set(sorted(a.app_id for a in report.apps)[-self.n_jobs :])
            report = AnalysisReport(
                apps=[a for a in report.apps if a.app_id in measured],
                bug_findings=[f for f in report.bug_findings if f.app_id in measured],
            )
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


def trace_recipe(
    n_queries: int = 200,
    *,
    seed: int = 0,
    mean_interarrival_s: float = 3.0,
    trace_file: Optional[str] = None,
    workload: str = "tpch",
    num_executors: int = 4,
    docker: bool = False,
    extra_localized_bytes: float = 0.0,
    opened_files_multiplier: int = 1,
    parallel_rdd_init: bool = False,
    **fields: Any,
) -> Scenario:
    """The paper's experimental recipe (section IV-A) as a scenario.

    ``n_queries`` TPC-H (or wordcount) jobs of one tenant arrive on the
    google-trace process at ``mean_interarrival_s``, or at the rows of
    ``trace_file`` (an ``arrival_s,query`` CSV, see
    :func:`~repro.workloads.google_trace.save_trace_csv`).  The other
    keywords set the tenant's per-job knobs, and ``fields`` any other
    :class:`Scenario` field (``dataset_bytes``, ``scheduler``,
    ``params``, ``interference``, ``warmup_s``).

    The values that fix the recipe's bytes are set here and nowhere
    else: the ``trace`` root substream with one ``mix.<i>`` child per
    job, the app names ``tpch-q<q>-<i>`` and ``wordcount-<i>`` in
    SparkApplication's default ``ubuntu`` user and ``default`` queue,
    the dataset name ``tpch1`` (the name a testbed gives its first
    unnamed dataset), and a 200,000 s limit.
    """
    if trace_file is not None:
        arrivals, queries = load_trace_csv(trace_file)
        fields["replay"] = tuple(zip(arrivals, queries))
        n_queries = len(arrivals)
    tenant = TenantSpec(
        workload,
        num_executors=num_executors,
        workload=workload,
        docker=docker,
        extra_localized_bytes=extra_localized_bytes,
        opened_files_multiplier=opened_files_multiplier,
        parallel_rdd_init=parallel_rdd_init,
        user="ubuntu",
        queue="default",
    )
    return Scenario(
        name="paper-trace",
        description="The paper's experimental recipe (section IV-A).",
        n_jobs=n_queries,
        arrivals=ArrivalSpec(kind="trace", rate_per_s=1.0 / mean_interarrival_s),
        tenants=(tenant,),
        default_seed=seed,
        limit_s=200_000.0,
        rng_root="trace",
        mix_per_job=True,
        dataset_name="tpch1",
        **fields,
    )
