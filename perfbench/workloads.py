"""The four workloads: set-up, timed operations, output checks, tracing.

Each workload drives the program only through its public entry points
and times one user-visible operation:

* ``scenario-scale`` -- ``Scenario.run`` on diurnal-burst at 10x its jobs;
* ``logdir-mine``    -- ``SDChecker().analyze(directory)`` at ``--jobs auto``;
* ``live-serve``     -- open-loop queries to a ``LiveSession`` while its
  logs grow;
* ``calibrate-fit``  -- ``calibrate.fit`` with 16 trials at ``jobs="auto"``.

A phase runs operations until their summed time reaches the requested
seconds (live-serve runs its schedule for that long instead), then
checks every output.  With a tracer, :func:`instrument` wraps the
layers' public functions so each call records a span.
"""

from __future__ import annotations

import contextlib
import gc
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchmarks.corpus_large import generate_large_corpus
from repro.calibrate import fit, resolve_fit_jobs, self_target
from repro.calibrate import objective as calibrate_objective
from repro.calibrate import search as calibrate_search
from repro.core import checker as core_checker
from repro.core.checker import SDChecker
from repro.core.parser import resolve_jobs
from repro.live import LiveClient
from repro.live import incremental as live_incremental
from repro.logsys.store import LogStore
from repro.testbed import Testbed
from repro.workloads.scenarios.presets import get_scenario
from repro.workloads.scenarios.scenario import Scenario

from perfbench import checks
from perfbench.openloop import QueryLoad, Schedule, grow_files, run_schedule
from perfbench.spans import Span, Tracer
from perfbench.speed import SpeedProbe
from perfbench.stats import percentile

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Phase", "instrument"]

#: The seed the pinned digests below were taken at.
DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent

clock = time.perf_counter


@dataclass
class Phase:
    """What one measured phase did, and what its checks found."""

    #: Per-operation latency, seconds (for live-serve: per query, from due time).
    ops: List[float]
    #: Units of work completed (apps, lines, queries or trials) ...
    work: float
    #: ... and the seconds they took.
    busy_s: float
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Run metadata: input sizes and resolved worker counts.
    sizes: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer values the benchmark measured outside spans.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Trace run ids of the timed operations.
    run_ids: List[str] = field(default_factory=list)
    #: Host speed readings, one before each operation and one after the
    #: last.  See perfbench.speed.
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    #: An open-loop phase answers at the offered rate, so its throughput
    #: is not scaled; its latencies are, by :attr:`speed_factor`.
    open_loop: bool = False
    #: An open-loop phase's host-speed factor, from the probe slices its
    #: load generator timed while it waited (perfbench.speed).
    speed_factor: float = 1.0

    def factors(self) -> List[float]:
        """Per-operation host-speed factors (perfbench.speed): a batch
        operation's from the readings just before and after it; an
        open-loop phase's one factor for every latency."""
        if self.open_loop:
            return [self.speed_factor] * len(self.ops)
        readings = self.probe.readings
        return [SpeedProbe.scale(readings[i], readings[i + 1]) for i in range(len(self.ops))]

    def scaled_ops(self) -> List[float]:
        """Operation times at nominal host speed."""
        return [op * factor for op, factor in zip(self.ops, self.factors())]

    def work_per_s(self, ops: List[float]) -> float:
        """Throughput given operation times ``ops``: a batch operation's work
        over the median operation time; an open-loop phase's answers over
        its window."""
        if self.open_loop:
            return self.work / self.busy_s
        return self.work / len(ops) / percentile(ops, 50.0)


def _sub_seed(seed: int, index: int) -> int:
    """The i-th input seed of a run: each operation gets fresh inputs."""
    return seed * 1000 + index


def _timed_ops(seconds: float, op: Callable[[int], float], probe: SpeedProbe) -> None:
    """Call ``op(i)`` (which returns its own timed seconds) until the
    summed time reaches ``seconds``; at least two calls.  The host's
    speed is probed between calls."""
    busy = 0.0
    index = 0
    while busy < seconds or index < 2:
        gc.collect()
        probe.measure()
        busy += op(index)
        index += 1
    probe.measure()


@contextlib.contextmanager
def _swap(owner: Any, attr: str, value: Any) -> Iterator[None]:
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Record a span around every call into each layer's public functions."""
    run_until = vars(Testbed)["run_until_all_finished"]

    def run_counted(self: Testbed, *args: Any, **kwargs: Any) -> float:
        steps = 0
        step = self.sim.step

        def counting_step() -> None:
            nonlocal steps
            steps += 1
            step()

        self.sim.step = counting_step
        try:
            return run_until(self, *args, **kwargs)
        finally:
            del self.sim.step
            span = tracer.current()
            if span is not None:
                span.counts.update(
                    events=steps, simulated_s=self.sim.now, log_records=len(self.log_store)
                )

    def dumped(span: Span, paths: List[Path], args: tuple, kwargs: dict) -> None:
        span.counts["bytes"] = sum(path.stat().st_size for path in paths)

    def mined(span: Span, result: tuple, args: tuple, kwargs: dict) -> None:
        events, diagnostics = result
        checker, source = args[0], args[1]
        span.counts.update(
            events=len(events),
            lines=sum(s.lines_total for s in diagnostics.streams.values()),
            dropped=diagnostics.lines_dropped,
            jobs=resolve_jobs(checker.jobs, source),
            bytes=0 if isinstance(source, LogStore) else _dir_bytes(Path(source)),
        )

    def grouped(span: Span, traces: dict, args: tuple, kwargs: dict) -> None:
        span.counts["apps"] = len(traces)

    def decomposed(span: Span, app: Any, args: tuple, kwargs: dict) -> None:
        span.counts["containers"] = len(app.containers)

    def scored(span: Span, trial: Any, args: tuple, kwargs: dict) -> None:
        span.counts["failed"] = int(trial.error is None)

    with contextlib.ExitStack() as stack:
        stack.enter_context(_swap(Testbed, "run_until_all_finished", run_counted))
        for owner, attr, name, on_result in (
            (Scenario, "build", "sim.build", None),
            (Testbed, "run_until_all_finished", "sim.run", None),
            (LogStore, "dump", "logs.dump", dumped),
            (SDChecker, "mine_with_diagnostics", "mine", mined),
            (core_checker, "analyze_events", "analyze", None),
            (live_incremental, "analyze_events", "analyze", None),
            (core_checker, "group_events", "analyze.group", grouped),
            (core_checker, "decompose", "analyze.decompose", decomposed),
            (core_checker, "find_unused_containers", "analyze.bugcheck", None),
            (calibrate_search, "evaluate_candidate", "calibrate.trial", scored),
            (calibrate_objective.TargetDecomposition, "from_report", "calibrate.score", None),
        ):
            stack.enter_context(tracer.patch(owner, attr, name, on_result))
        yield


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _op(tracer: Optional[Tracer], name: str, run_id: str, run_ids: List[str]):
    """A root span for one timed operation, or nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    run_ids.append(run_id)
    return tracer.root(name, run_id)


class Workload:
    name = ""
    #: Printed names of the throughput metric and of one timed
    #: operation, the unit of work, and the unit failures are counted in.
    rate_name = ""
    op_name = ""
    unit = ""
    fail_unit = ""
    #: Traced phases run serially where the e2e path fans out to worker
    #: processes, so every span stays in this process.
    serial_when_traced = False
    #: The percentile of the operation times reported as ``latency_ms``.
    latency_pct = 50.0

    def __init__(self, seed: int, work: Path, seconds: float):
        self.seed = seed
        self.work = work
        #: Length of one measured phase.
        self.seconds = seconds

    def setup(self) -> None:
        """Prepare the inputs; repeatable, so its time is a median."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def prepare_traced(self, tracer: Tracer) -> None:
        """Make the inputs ready for a traced phase (after an untraced one)."""

    def phase(self, tracer: Optional[Tracer] = None, serial: bool = False) -> Phase:
        """Run timed operations for :attr:`seconds`, then check their outputs.

        ``serial`` keeps work that fans out to worker processes in this
        process, so a traced phase sees every span.
        """
        raise NotImplementedError


class ScenarioScale(Workload):
    name = "scenario-scale"
    rate_name, op_name, unit, fail_unit = "apps_per_s", "run", "apps", "apps"
    PRESET = "diurnal-burst"
    SCALE = 10
    #: SHA-256 of the dumped logs of the first run at DEFAULT_SEED.
    PINNED_LOG_DIGEST = "18cf1e13aeac5a9dd7974b1ac83b67c46262ee344d1d49eca2d14e9b8eb831e9"

    def __init__(self, seed: int, work: Path, seconds: float):
        super().__init__(seed, work, seconds)
        base = get_scenario(self.PRESET)
        self.scenario = base.variant(n_jobs=base.n_jobs * self.SCALE)
        #: Report bytes of the untraced runs, by index, to check traced runs against.
        self.reports: Dict[int, bytes] = {}

    def setup(self) -> None:
        self.scenario.build(_sub_seed(self.seed, 0))

    def phase(self, tracer: Optional[Tracer] = None, serial: bool = False) -> Phase:
        n_apps = self.scenario.n_jobs
        result = Phase([], 0.0, 0.0, 0, 0)
        gaps, dump_s, dump_bytes, lines = [], [], [], []

        def op(index: int) -> float:
            seed = _sub_seed(self.seed, index)
            with _op(tracer, "scenario.run", f"{self.name}/{index}", result.run_ids):
                start = clock()
                run = self.scenario.run(seed)
                elapsed = clock() - start
            result.ops.append(elapsed)
            # -- checks, outside the timed call --
            good, app_problems = checks.decomposed_apps(run.report, n_apps)
            logdir = _fresh(self.work / "scenario-logs")
            start = clock()
            paths = run.testbed.dump_logs(logdir)
            dump_s.append(clock() - start)
            dump_bytes.append(sum(path.stat().st_size for path in paths))
            lines.append(len(run.testbed.log_store))
            problems, gap_ms = checks.store_vs_dump(run.report, SDChecker(jobs=1).analyze(logdir))
            gaps.append(gap_ms)
            if index == 0 and self.seed == DEFAULT_SEED:
                problems += checks.pinned(
                    checks.directory_digest(logdir), self.PINNED_LOG_DIGEST, "dumped logs"
                )
            report = checks.report_bytes(run.report)
            if tracer is not None and index in self.reports:
                problems += checks.identical(report, self.reports[index], "traced vs untraced report")
            self.reports.setdefault(index, report)
            shutil.rmtree(logdir)
            # A wrong output fails every app of the run.
            result.attempted += n_apps
            result.failed += n_apps if problems else n_apps - good
            result.problems += app_problems + problems
            return elapsed

        _timed_ops(self.seconds, op, result.probe)
        result.work = float(len(result.ops) * n_apps)
        result.busy_s = sum(result.ops)
        result.sizes.update(
            apps=n_apps,
            runs=len(result.ops),
            log_lines=_median(lines),
            log_bytes=_median(dump_bytes),
            mine_jobs=1,
        )
        result.layer.update(
            {
                "mine.store_dump_gap_ms": max(gaps),
                "logs.dump.s": _median(dump_s),
                "logs.dump.bytes": _median(dump_bytes),
            }
        )
        return result


class LogdirMine(Workload):
    name = "logdir-mine"
    rate_name, op_name, unit, fail_unit = "lines_per_s", "analyze", "lines", "apps"
    TARGET_BYTES = 64 << 20
    #: SHA-256 of the report (with diagnostics) at DEFAULT_SEED.
    PINNED_REPORT_DIGEST = "83a45f64fc3ab4e430b74f8618969b78c999aac4e1ec3fb1c02baab0e4bf94ba"

    def setup(self) -> None:
        self.corpus = _fresh(self.work / "corpus")
        self.bytes, self.lines = generate_large_corpus(self.corpus, self.TARGET_BYTES, seed=self.seed)

    def phase(self, tracer: Optional[Tracer] = None, serial: bool = False) -> Phase:
        checker = SDChecker()
        result = Phase([], 0.0, 0.0, 0, 0)
        reports: List[Any] = []

        def op(index: int) -> float:
            with _op(tracer, "sdchecker.analyze", f"{self.name}/{index}", result.run_ids):
                start = clock()
                report = checker.analyze(self.corpus)
                elapsed = clock() - start
            result.ops.append(elapsed)
            reports.append(report)
            return elapsed

        _timed_ops(self.seconds, op, result.probe)
        # -- checks, outside the timed window --
        serial_report = checks.report_bytes(SDChecker(jobs=1).analyze(self.corpus))
        digest_problems: List[str] = []
        if self.seed == DEFAULT_SEED:
            digest_problems = checks.pinned(
                checks.sha256_hex(serial_report), self.PINNED_REPORT_DIGEST, "serial report"
            )
        for report in reports:
            n_apps = len(report.apps)
            good, app_problems = checks.decomposed_apps(report, n_apps)
            problems = digest_problems + checks.identical(
                checks.report_bytes(report), serial_report, "jobs=auto vs jobs=1 report"
            )
            result.attempted += n_apps
            result.failed += n_apps if problems else n_apps - good
            result.problems += app_problems + problems
        result.work = float(len(result.ops) * self.lines)
        result.busy_s = sum(result.ops)
        result.sizes.update(
            apps=len(reports[0].apps),
            lines=self.lines,
            bytes=self.bytes,
            mine_jobs=resolve_jobs(checker.jobs, self.corpus),
            runs=len(result.ops),
        )
        return result


class LiveServe(Workload):
    name = "live-serve"
    rate_name, op_name, unit, fail_unit = "queries_per_s", "query", "queries", "queries"
    latency_pct = 25.0
    #: Offered load, held below saturation: log lines appended per second
    #: and queries sent per second, on one connection.
    LINES_PER_S = 2_600
    QUERIES_PER_S = 100
    #: Appends per second.
    APPENDS_PER_S = 20
    #: Mean bytes per line of the generated corpus.
    LINE_BYTES = 107
    #: Bound on every wait for the server process.
    PROCESS_TIMEOUT_S = 60.0

    _setups = 0
    _server: Optional[subprocess.Popen] = None

    def prepare_traced(self, tracer: Tracer) -> None:
        self.setup(traced=True)

    def setup(self, traced: bool = False) -> None:
        """Generate the corpus the writer will append; start the server process."""
        self._setups += 1
        root = _fresh(self.work / f"live-{self._setups}")
        self.source = root / "source"
        self.bytes, self.lines = generate_large_corpus(
            self.source, int(self.LINES_PER_S * self.seconds * self.LINE_BYTES), seed=self.seed
        )
        self.logdir = _fresh(root / "logs")
        self.out = root / "server.json"
        command = [sys.executable, "-m", "perfbench.live_server", "--logdir", str(self.logdir),
                   "--out", str(self.out)]
        self._server = subprocess.Popen(
            command + (["--trace"] if traced else []),
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._server.stdout.readline()
        if not ready:
            self.teardown()
            raise RuntimeError("live server process exited before serving")
        address = json.loads(ready)
        self.host, self.port = address["host"], address["port"]

    def teardown(self) -> None:
        """Stop the server process (it writes its results) and wait for it."""
        server, self._server = self._server, None
        if server is None:
            return
        try:
            server.communicate("stop\n", timeout=self.PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()
        if server.returncode != 0:
            raise RuntimeError(f"live server process exited with {server.returncode}")

    def phase(self, tracer: Optional[Tracer] = None, serial: bool = False) -> Phase:
        seconds = self.seconds
        result = Phase([], 0.0, 0.0, 0, 0, open_loop=True)
        rounds = max(1, round(seconds * self.APPENDS_PER_S))
        start = clock() + 0.2
        writes = Schedule(start, 1.0 / self.APPENDS_PER_S, rounds)
        queries = Schedule(start, 1.0 / self.QUERIES_PER_S, max(1, round(seconds * self.QUERIES_PER_S)))
        load = QueryLoad(self.host, self.port, queries, self.seed)
        failure: List[BaseException] = []

        def send() -> None:
            try:
                load.run()
            except (OSError, ValueError) as exc:
                failure.append(exc)

        sender = threading.Thread(target=send, name="perfbench-queries")
        with _op(tracer, "live.window", f"{self.name}/0", result.run_ids) as window:
            sender.start()
            writer_late = run_schedule(writes, grow_files(self.source, self.logdir, rounds))
            sender.join(timeout=seconds + load.timeout + 30.0)
        if sender.is_alive():
            raise RuntimeError("query generator did not finish")
        # -- checks, outside the schedule --
        with LiveClient(self.host, self.port, timeout=self.PROCESS_TIMEOUT_S) as client:
            client.drain()
        self.teardown()
        served = json.loads(self.out.read_text(encoding="utf-8"))
        batch = checks.report_bytes(SDChecker(jobs=1).analyze(self.logdir))
        mismatch = checks.identical(
            served["report"].encode("utf-8"), batch, "drained live vs batch report"
        )
        answered = [q for q in load.results if q.ok and q.done is not None]
        result.ops = [q.latency for q in answered]
        result.speed_factor = SpeedProbe.scale_from_slices(load.slices)
        result.attempted = queries.count
        result.failed = queries.count if mismatch else queries.count - len(answered)
        result.problems += mismatch + [f"query generator: {exc!r}" for exc in failure]
        result.problems += [f"query {q.index} ({q.op}): {q.error}" for q in load.results if not q.ok][:5]
        result.work = float(len(answered))
        result.busy_s = max(q.done for q in answered) - queries.start if answered else float("inf")
        sends_late = [q.late for q in load.results] or [0.0]
        result.sizes.update(
            apps=len(json.loads(batch)["applications"]),
            lines=self.lines,
            bytes=self.bytes,
            queries=queries.count,
            appends=rounds,
            offered_lines_per_s=self.LINES_PER_S,
            offered_queries_per_s=self.QUERIES_PER_S,
            writer_late_max_ms=1000.0 * max(writer_late),
            generator_late_max_ms=1000.0 * max(sends_late),
            probe_slices=len(load.slices),
        )
        result.layer["live.gen.late_ms"] = 1000.0 * max(writer_late + sends_late)
        if tracer is not None:
            tracer.adopt(served["spans"], window)
            result.layer.update(self._live_layers(tracer.of_run(window.run_id), load))
        return result

    @staticmethod
    def _live_layers(spans: List[Span], load: QueryLoad) -> Dict[str, float]:
        polls = [s for s in spans if s.name == "live.poll"]
        poll_s = sum(s.duration for s in polls)
        reports = [s for s in spans if s.name == "live.report"]
        rebuilds = [s for s in reports if s.counts.get("rebuild")]
        served = sorted((s for s in spans if s.name.startswith("live.query.")), key=lambda s: s.start)
        # One connection is answered in order: the i-th query served is the i-th sent.
        answered = [q for q in load.results if q.done is not None]
        waits = [q.latency - span.duration for q, span in zip(answered, served) if q.ok]
        out = {
            "live.poll.calls": len(polls),
            "live.poll.s": poll_s,
            "live.poll.p99_ms": 1000.0 * _pct([s.duration for s in polls], 99.0),
            "live.ingest_lps": sum(s.counts.get("lines", 0) for s in polls) / poll_s if poll_s else 0.0,
            "live.report.calls": len(reports),
            "live.report.rebuilds": len(rebuilds),
            "live.report.hit_ratio": 1.0 - len(rebuilds) / len(reports) if reports else 0.0,
            "live.report.rebuild.s": sum(s.duration for s in rebuilds),
            "live.query.wait_p99_ms": 1000.0 * _pct(waits, 99.0),
            "live.query.p99_ms": 1000.0 * _pct([q.latency for q in answered if q.ok], 99.0),
        }
        for op in ("apps", "decomposition"):
            times = [s.duration for s in served if s.name == f"live.query.{op}"]
            out[f"live.query.{op}.server_ms"] = 1000.0 * _pct(times, 50.0)
        return out


class CalibrateFit(Workload):
    name = "calibrate-fit"
    rate_name, op_name, unit, fail_unit = "trials_per_s", "fit", "trials", "trials"
    serial_when_traced = True
    PRESET = "diurnal-burst"
    #: Baseline + 8 grid points (they cycle through all three schedulers)
    #: + 7 random points = 16 trials per fit.
    GRID_LIMIT = 8
    RANDOM_TRIALS = 7

    def __init__(self, seed: int, work: Path, seconds: float):
        super().__init__(seed, work, seconds)
        self.scenario = get_scenario(self.PRESET)
        #: Fitted-model bytes of the untraced fits, by index, to check traced fits against.
        self.models: Dict[int, str] = {}
        #: Self-fit targets, by replay seed.
        self.targets: Dict[int, Any] = {}

    def _target(self, index: int) -> Any:
        """The self-fit target of the i-th fit: its own replay of the preset.

        Each fit replays the preset at its own seed, so a run averages
        over several scenarios instead of resting on one 8-app replay.
        """
        replay = _sub_seed(self.seed, index)
        if replay not in self.targets:
            self.targets[replay] = self_target(self.scenario, replay)
        return self.targets[replay]

    def setup(self) -> None:
        self.targets.clear()
        self._target(0)

    def phase(self, tracer: Optional[Tracer] = None, serial: bool = False) -> Phase:
        jobs = 1 if serial else "auto"
        result = Phase([], 0.0, 0.0, 0, 0)
        trials = 1 + self.GRID_LIMIT + self.RANDOM_TRIALS

        def op(index: int) -> float:
            target = self._target(index)
            with _op(tracer, "calibrate.fit", f"{self.name}/{index}", result.run_ids):
                start = clock()
                model = fit(
                    self.scenario,
                    target=target,
                    seed=_sub_seed(self.seed, index),
                    grid_limit=self.GRID_LIMIT,
                    random_trials=self.RANDOM_TRIALS,
                    jobs=jobs,
                    replay_seed=_sub_seed(self.seed, index),
                )
                elapsed = clock() - start
            result.ops.append(elapsed)
            done = [trial.to_dict() for trial in model.trials]
            problems = checks.baseline_error_is_zero(done)
            artifact = model.dumps()
            if tracer is not None and index in self.models:
                problems += checks.identical(
                    artifact.encode(), self.models[index].encode(), "traced vs untraced fit"
                )
            self.models.setdefault(index, artifact)
            failed = [t for t in done if t["error"] is None]
            result.attempted += len(done)
            result.failed += len(done) if problems else len(failed)
            result.problems += problems + [f"trial {t['index']}: {t['failure']}" for t in failed]
            result.work += len(done)
            return elapsed

        _timed_ops(self.seconds, op, result.probe)
        result.busy_s = sum(result.ops)
        result.sizes.update(
            trials_per_fit=trials,
            fits=len(result.ops),
            apps_per_trial=self.scenario.n_jobs,
            fit_jobs=resolve_fit_jobs(jobs, trials),
            e2e_fit_jobs=resolve_fit_jobs("auto", trials),
        )
        result.layer["calibrate.workers"] = resolve_fit_jobs("auto", trials)
        return result


WORKLOADS = {cls.name: cls for cls in (ScenarioScale, LogdirMine, LiveServe, CalibrateFit)}


def _median(values: List[float]) -> float:
    return _pct(values, 50.0)


def _pct(values: List[float], pct: float) -> float:
    return percentile(values, pct) if values else 0.0
