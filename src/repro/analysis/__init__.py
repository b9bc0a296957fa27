"""sdlint — static contract checking for the SDchecker reproduction.

SDchecker's correctness rests on an implicit contract between two sides
that share no code: the simulator's log emitters (log4j templates in
``repro.logsys`` users, the ``TEMPLATE``/``TRANSITIONS`` tables of
``repro.yarn.state_machine``, the driver/executor messages of
``repro.spark`` and ``repro.mapreduce``) must render lines that the
Table I regexes in ``repro.core.messages`` match *unambiguously*.  A
one-word template drift silently drops a delay component from every
report — end-to-end runs are the only thing that would notice, and only
if someone stares at the numbers.

PRs 2-5 added a second implicit contract: the miner's parallel fast
path and the live asyncio server promise byte-identical, low-latency
answers, which only holds if nothing blocks the event loop and nothing
leaks state across the process boundary.  Every pass reads one
:class:`~repro.analysis.callgraph.ProjectIndex` per run: each module
parsed once, every import (function-local ones included) resolved one
way, and one call graph with reachability, so the concurrency passes
can reason across files.

This package machine-checks both contracts with five static passes:

* **catalog cross-check** (:mod:`repro.analysis.catalog`, rules SD1xx)
  — AST-extract every emission template, synthesize representative
  rendered lines, and verify each delay-relevant emission is matched by
  exactly one Table I classifier (coverage, ambiguity, and global-ID
  round-trip).
* **state-machine analysis** (:mod:`repro.analysis.statemachines`,
  rules SD2xx) — transition-graph checks over the ``TRANSITIONS``
  tables: unreachable states, dead transitions, missing terminal
  states, and transitions invisible to SDchecker.
* **determinism lint** (:mod:`repro.analysis.determinism`, rules
  SD3xx) — AST walk flagging unseeded ``random``/``np.random`` calls
  that bypass :class:`repro.simul.distributions.RandomSource`,
  wall-clock reads, and iteration over unordered sets.
* **async safety** (:mod:`repro.analysis.asyncsafety`, rules SD4xx) —
  blocking calls reachable from ``async def`` bodies (with the call
  chain named), un-awaited coroutines and discarded task handles, and
  unbounded queues / ``queue.join()`` without a timeout.
* **process-boundary safety** (:mod:`repro.analysis.procsafety`, rules
  SD5xx) — executor-submitted functions that transitively mutate
  module globals, ``__slots__`` payloads crossing the worker boundary
  without a pickle contract, and shared ``RandomSource`` streams
  without a ``.child()`` substream split.

The static passes are paired with an opt-in *runtime* sanitizer
(:mod:`repro.analysis.sanitizer`, rules SD6xx, env ``REPRO_SANITIZE=1``)
that times every event-loop callback and spot-checks executor payload
picklability and worker determinism, reporting through the same
:class:`Finding` model.

Run it as ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`)
or :func:`run_all`; known-accepted findings live in the checked-in
``sdlint.baseline``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

import repro
from repro.analysis.findings import Finding, RULES, sort_findings

__all__ = ["Finding", "PASSES", "RULES", "default_root", "run_all", "sort_findings"]

#: The five static passes, by module name; each module's
#: ``analyze(index)`` is its one entry point.
PASSES = ("catalog", "statemachines", "determinism", "asyncsafety", "procsafety")


def default_root() -> Path:
    """The directory containing the installed ``repro`` package."""
    return Path(repro.__file__).resolve().parents[1]


def run_all(
    root: Optional[Path] = None, passes: Sequence[str] = PASSES
) -> List[Finding]:
    """Run ``passes`` over ``root`` (the directory holding ``repro``).

    One :class:`~repro.analysis.callgraph.ProjectIndex` serves the
    whole run: every file is parsed once, and the passes share its call
    graph and its extracted state machines.
    """
    from importlib import import_module

    from repro.analysis.callgraph import ProjectIndex

    index = ProjectIndex.build(Path(root) if root is not None else default_root())
    return sort_findings(
        finding
        for name in passes
        for finding in import_module(f"repro.analysis.{name}").analyze(index)
    )
