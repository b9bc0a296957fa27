"""The SDchecker facade: logs in, analysis report out."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.core.bugcheck import find_unused_containers
from repro.core.decompose import decompose
from repro.core.diagnostics import AppDiagnostics
from repro.core.graph import SchedulingGraph
from repro.core.grouping import ApplicationTrace, group_events
from repro.core.parser import AUTO_JOBS, LogMiner
from repro.core.report import AnalysisReport
from repro.logsys.store import LogStore

__all__ = ["SDChecker", "analyze_events"]


def analyze_events(events, diagnostics=None) -> AnalysisReport:
    """Steps 2-5 over already-mined events: group, decompose, report.

    Shared by the batch :meth:`SDChecker.analyze` facade and the
    incremental :mod:`repro.live` session (which mines as the logs
    grow, then runs exactly this tail) — one code path is what makes a
    drained live report byte-identical to a batch one.
    """
    traces = group_events(events, diagnostics=diagnostics)
    apps = [decompose(trace) for trace in traces.values()]
    if diagnostics is not None:
        for app in apps:
            diagnostics.apps[app.app_id] = AppDiagnostics(
                app_id=app.app_id,
                missing_components=app.missing_components(),
                skew_warnings=app.skew_warnings(),
            )
    findings = find_unused_containers(traces)
    return AnalysisReport(apps=apps, bug_findings=findings, diagnostics=diagnostics)


class SDChecker:
    """Offline scheduling-delay analyzer for YARN + Spark log files.

    Typical use::

        report = SDChecker().analyze("/path/to/logs")   # or a LogStore
        print(report.summary())
        report.sample("total_delay").p95

    The pipeline is the paper's section III: mine (regex extraction) ->
    group (global-ID binding) -> graph (per-app scheduling DAG) ->
    decompose (delay components) -> report (+ bug check).

    ``jobs`` is a worker-process count or ``"auto"`` (the default),
    which resolves per source via :func:`repro.core.parser.resolve_jobs`
    — serial for small corpora, single-CPU machines and in-memory
    stores, a worker pool otherwise.  Parallel mining is byte-identical
    to serial mining (the chunk merge is deterministic), only faster on
    large corpora.
    """

    def __init__(self, jobs: Union[int, str] = AUTO_JOBS) -> None:
        self._miner = LogMiner()
        self.jobs = jobs

    def mine_with_diagnostics(self, source: Union[LogStore, str, Path]):
        """Step 1: raw scheduling events and the tolerance ledger,
        ``(events, MiningDiagnostics)``."""
        return self._miner.mine(source, jobs=self.jobs)

    def group(self, source: Union[LogStore, str, Path]) -> Dict[str, ApplicationTrace]:
        """Steps 1-2: per-application traces."""
        return group_events(self.mine_with_diagnostics(source)[0])

    def graph(self, trace: ApplicationTrace) -> SchedulingGraph:
        """Step 3: the scheduling graph of one application."""
        return SchedulingGraph(trace)

    def analyze(self, source: Union[LogStore, str, Path]) -> AnalysisReport:
        """The full pipeline: a report over every application found.

        The degradation contract: this never raises on corrupted input.
        Unparseable lines are skipped and counted, unbindable events
        are counted as orphans, and every application the logs mention
        is decomposed — components whose endpoint events are gone come
        back explicitly ``None`` and are named in the report's
        :class:`~repro.core.diagnostics.MiningDiagnostics`.
        """
        events, diagnostics = self.mine_with_diagnostics(source)
        return analyze_events(events, diagnostics=diagnostics)
