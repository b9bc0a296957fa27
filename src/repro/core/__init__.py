"""SDchecker — the paper's contribution.

An *offline, non-intrusive* log-mining tool (section III): it consumes
rendered log4j text lines from the cluster scheduler (ResourceManager,
NodeManagers) and the application (Spark driver and executor logs),
extracts the Table I state-transition messages with regular
expressions, binds them to global IDs (application and container IDs),
builds a per-application scheduling graph, and decomposes the total
scheduling delay into the components analyzed in section IV.

SDchecker deliberately knows nothing about the simulator: its only
input is text.  Its one third-party dependency is numpy.
"""

from repro.core.checker import SDChecker
from repro.core.diagnostics import AppDiagnostics, MiningDiagnostics
from repro.core.events import EventKind, SchedulingEvent
from repro.core.graph import SchedulingGraph
from repro.core.decompose import ApplicationDelays, ContainerDelays, decompose
from repro.core.grouping import ApplicationTrace, ContainerTrace, group_events
from repro.core.parser import LogMiner
from repro.core.bugcheck import BugFinding, find_unused_containers
from repro.core.report import AnalysisReport
from repro.core.stats import DelaySample
from repro.core.timeline import render_timeline

__all__ = [
    "AnalysisReport",
    "AppDiagnostics",
    "ApplicationDelays",
    "ApplicationTrace",
    "BugFinding",
    "MiningDiagnostics",
    "ContainerDelays",
    "ContainerTrace",
    "DelaySample",
    "EventKind",
    "LogMiner",
    "SDChecker",
    "SchedulingEvent",
    "SchedulingGraph",
    "decompose",
    "find_unused_containers",
    "group_events",
    "render_timeline",
]

