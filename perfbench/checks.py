"""Output checks.  Each returns a list of problems; empty means it passed.

They run outside the timed window.  A failed check marks the work it
covers as failed, so it shows in the run's ``failed`` count.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.decompose import BREAKDOWN_COMPONENTS
from repro.core.report import AnalysisReport

#: How far the additive breakdown may sit from ``total_delay``.  Five
#: rounded float differences need not sum bit-for-bit to the rounded
#: whole; the golden-snapshot tests pin the identity to this tolerance.
BREAKDOWN_TOLERANCE_S = 1e-9


def report_bytes(report: AnalysisReport) -> bytes:
    """The report with its diagnostics ledger, as canonical JSON bytes."""
    return json.dumps(report.to_dict(include_diagnostics=True), sort_keys=True).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def directory_digest(directory: Path) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def decomposed_apps(report: AnalysisReport, expected_apps: int) -> Tuple[int, List[str]]:
    """How many apps are fully decomposed with a breakdown that adds up.

    Returns that count and one problem per app that is not, plus one
    if the report holds a different number of apps than expected.
    """
    problems: List[str] = []
    if len(report.apps) != expected_apps:
        problems.append(f"{len(report.apps)} apps decomposed, {expected_apps} submitted")
    good = 0
    for app in report.apps:
        if not app.complete():
            problems.append(f"{app.app_id}: incomplete, missing {app.missing_components()}")
            continue
        parts = [getattr(app, component) for component in BREAKDOWN_COMPONENTS]
        if any(part is None for part in parts):
            problems.append(f"{app.app_id}: breakdown has unmeasured components")
        elif abs(sum(parts) - app.total_delay) > BREAKDOWN_TOLERANCE_S:
            problems.append(
                f"{app.app_id}: breakdown sums to {sum(parts)!r}, total_delay {app.total_delay!r}"
            )
        else:
            good += 1
    return min(good, expected_apps), problems


def _shape(value: Any) -> Any:
    """A report field with every float replaced by a marker."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return value


def _float_pairs(a: Any, b: Any) -> Iterable[Tuple[float, float]]:
    if isinstance(a, float) and isinstance(b, float):
        yield a, b
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() & b.keys():
            yield from _float_pairs(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            yield from _float_pairs(x, y)


def store_vs_dump(memory: AnalysisReport, dumped: AnalysisReport) -> Tuple[List[str], float]:
    """Compare an in-memory report with the one mined from its dumped logs.

    Every non-timing field (ids, container sets, which components were
    measured, bug findings) must match.  Timings may differ below the
    log's 1 ms resolution; the largest difference, in ms, is returned.
    """
    a, b = memory.to_dict(), dumped.to_dict()
    problems = []
    if _shape(a) != _shape(b):
        problems.append("in-memory and dumped-log reports differ in a non-timing field")
    gap = max((abs(x - y) for x, y in _float_pairs(a, b)), default=0.0)
    return problems, gap * 1000.0


def identical(a: bytes, b: bytes, what: str) -> List[str]:
    if a == b:
        return []
    return [f"{what}: {len(a)} vs {len(b)} bytes, digests {sha256_hex(a)[:12]} vs {sha256_hex(b)[:12]}"]


def pinned(digest: str, expected: str, what: str) -> List[str]:
    """``digest`` must equal the pinned one."""
    if digest == expected:
        return []
    return [f"{what}: digest {digest[:16]}... does not match the pinned {expected[:16]}..."]


def baseline_error_is_zero(trials: List[Dict[str, Any]]) -> List[str]:
    """The self-fit identity: the baseline trial must score exactly 0."""
    baseline = [t for t in trials if t.get("kind") == "baseline"]
    if len(baseline) != 1:
        return [f"expected one baseline trial, found {len(baseline)}"]
    if baseline[0].get("error") != 0.0:
        return [f"baseline trial error is {baseline[0].get('error')!r}, not exactly 0"]
    return []
