"""Opt-in runtime sanitizer (rules SD601-SD603).

The static SD4xx/SD5xx passes prove structural properties; this module
checks the *dynamic* complements the AST cannot see, at the two
concurrency boundaries the repo actually crosses:

* **SD601 loop-stall** — every asyncio callback is timed; one that
  holds the event loop longer than the threshold is reported *with
  attribution* (the callback's defining file and line), turning "the
  server felt sticky" into a named function.
* **SD602 unpicklable-payload** — executor submissions are verified to
  pickle before they are shipped, so a bad payload fails with a finding
  naming the worker function instead of an opaque traceback inside
  ``concurrent.futures``.
* **SD603 nondeterministic-worker** — a deterministically-sampled
  fraction of tasks is submitted a second time and the two results are
  compared as pickle bytes.  A mismatch means the worker function's
  output depends on worker-side state (mutated globals, shared RNG
  position, wall-clock reads) — exactly the divergence that breaks the
  serial/parallel byte-identity guarantee.

Everything is gated on ``REPRO_SANITIZE=1`` and costs nothing when
disabled.  Violations are recorded as the same
:class:`~repro.analysis.findings.Finding` objects the static passes
emit, so they flow through the existing render/``--json`` machinery;
the test suite's autouse fixture fails the run if any accumulate.

This module is the one sanctioned user of ``time.perf_counter`` (it
measures the *host*, deliberately), so it is exempted from SD302.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.analysis.findings import Finding, make_finding

__all__ = [
    "checked_map",
    "enabled",
    "install_loop_monitor",
    "record",
    "report",
    "reset",
    "uninstall_loop_monitor",
]

#: Default ceiling on how long one event-loop callback may run, in
#: seconds.  Generous on purpose: the poll loop mines inline by design
#: (the baselined SD401), so the monitor flags pathology, not the
#: documented trade-off operating normally.
DEFAULT_STALL_SECONDS = 0.5

#: Every Nth executor task is double-submitted for the SD603 check.
#: Index-strided, not random — sampling must itself be deterministic.
DEFAULT_SAMPLE_STRIDE = 8

_findings: List[Finding] = []
_orig_handle_run: Optional[Callable] = None


def enabled() -> bool:
    """True when the process opted in via ``REPRO_SANITIZE=1``."""
    return os.environ.get("REPRO_SANITIZE", "") == "1"


# -- the finding sink ------------------------------------------------------

def record(rule: str, path: str, line: int, message: str) -> Finding:
    """Append one runtime finding to the process-wide sink."""
    finding = make_finding(rule, path, line, message)
    _findings.append(finding)
    return finding


def report() -> List[Finding]:
    """Every finding recorded since the last :func:`reset`."""
    return list(_findings)


def reset() -> None:
    _findings.clear()


def _attribute(obj: Any) -> tuple:
    """Best-effort ``(project path, line, name)`` of a callable."""
    seen = 0
    while seen < 8:
        seen += 1
        if hasattr(obj, "func"):  # functools.partial
            obj = obj.func
            continue
        if hasattr(obj, "__wrapped__"):
            obj = obj.__wrapped__
            continue
        break
    code = getattr(obj, "__code__", None)
    name = getattr(obj, "__qualname__", None) or repr(obj)
    if code is None:
        return "<unknown>", 0, name
    path = Path(code.co_filename).as_posix()
    marker = path.rfind("repro/")
    if marker >= 0:
        path = path[marker:]
    return path, code.co_firstlineno, name


# -- SD601: the slow-callback monitor --------------------------------------

def install_loop_monitor(threshold: float = DEFAULT_STALL_SECONDS) -> None:
    """Patch asyncio's callback runner to time every callback.

    Idempotent; affects every loop in the process (the live server runs
    its loop on a background thread, so per-loop hooks would miss it).
    """
    global _orig_handle_run
    if _orig_handle_run is not None:
        return
    import asyncio.events

    original = asyncio.events.Handle._run
    _orig_handle_run = original

    def _timed_run(self):  # noqa: ANN001 - asyncio internal signature
        start = time.perf_counter()
        try:
            return original(self)
        finally:
            elapsed = time.perf_counter() - start
            if elapsed >= threshold:
                path, line, name = _attribute(self._callback)
                record(
                    "SD601",
                    path,
                    line,
                    f"event-loop callback {name} held the loop for "
                    f"{elapsed * 1000.0:.0f} ms (threshold "
                    f"{threshold * 1000.0:.0f} ms); every connected client "
                    f"stalled behind it",
                )

    asyncio.events.Handle._run = _timed_run


def uninstall_loop_monitor() -> None:
    """Restore the original asyncio callback runner."""
    global _orig_handle_run
    if _orig_handle_run is None:
        return
    import asyncio.events

    asyncio.events.Handle._run = _orig_handle_run
    _orig_handle_run = None


# -- SD602/SD603: the checked executor boundary ----------------------------

def _pickle_or_record(obj: Any, kind: str, path: str, line: int, name: str):
    try:
        return pickle.dumps(obj)
    except Exception as exc:  # pickle raises a zoo of types
        record(
            "SD602",
            path,
            line,
            f"{kind} for worker function {name}() is not picklable "
            f"({type(exc).__name__}: {exc}); it cannot cross the process "
            f"boundary",
        )
        return None


def checked_map(
    pool,
    fn: Callable,
    tasks: Sequence,
    chunksize: int = 1,
    stride: int = DEFAULT_SAMPLE_STRIDE,
) -> Iterable:
    """``pool.map`` with picklability and determinism verification.

    Drop-in for ``pool.map(fn, tasks, chunksize=...)`` on a
    :class:`~concurrent.futures.ProcessPoolExecutor`: results come back
    in submission order, preserving the byte-identity merge contract.
    Every payload is pickled up front (SD602); every ``stride``-th task
    is submitted a second time and both results must serialize to the
    same bytes (SD603).
    """
    tasks = list(tasks)
    path, line, name = _attribute(fn)
    ok = _pickle_or_record(fn, "worker function", path, line, name) is not None
    for task in tasks:
        if _pickle_or_record(task, "submitted payload", path, line, name) is None:
            ok = False
    if not ok:
        # Fail here with the findings recorded, not three frames deep
        # inside concurrent.futures with an opaque traceback.
        raise TypeError(
            f"sanitizer: unpicklable submission for worker {name}(); "
            f"see the recorded SD602 finding(s)"
        )
    results = list(pool.map(fn, tasks, chunksize=chunksize))
    step = max(1, stride)
    for index in range(0, len(tasks), step):
        again = pool.submit(fn, tasks[index]).result()
        first = _pickle_or_record(results[index], "worker result", path, line, name)
        second = _pickle_or_record(again, "worker result", path, line, name)
        if first is not None and second is not None and first != second:
            record(
                "SD603",
                path,
                line,
                f"worker function {name}() returned different results for "
                f"the same task (submission {index}); worker-side state or "
                f"an unseeded source leaked into the output",
            )
    return results
