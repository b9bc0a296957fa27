"""Configuration of the checks under ``benchmarks/``.

Every file here is a check; perfbench (``BENCHMARK.json``) does the
timing.  Thirteen files regenerate one of the paper's tables or
figures each: they run the full pipeline (simulate the cluster ->
render logs -> mine with SDchecker -> aggregate) once, assert the
paper's *shape* claims (who wins, rough factors, monotonicity), and
record the rows, both to stdout and to ``benchmarks/results/<name>.txt``
(``make paper-claims``).  The rest re-check the miner, live, calibration
and simulator contracts at scale under loose speed bars, and write no
file.

Scale is controlled by the ``REPRO_SCALE`` environment variable:
``small`` (default; minutes for the whole suite) or ``paper`` (the full
section-IV trace sizes; substantially longer).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_SCALE", "small")
    if value not in ("small", "paper"):
        raise ValueError(f"REPRO_SCALE must be 'small' or 'paper', got {value!r}")
    return value


@pytest.fixture(scope="session")
def seed() -> int:
    return int(os.environ.get("REPRO_SEED", "0"))


@pytest.fixture
def record_rows():
    """Persist and echo a figure's regenerated rows."""

    def _record(name: str, rows):
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(rows)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
