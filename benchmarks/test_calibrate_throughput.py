"""Calibration trial throughput, serial vs parallel.

Times one self-calibration ``fit`` on the diurnal-burst preset at
``jobs=1`` and ``jobs=4`` — each trial is a full simulate → mine →
score cycle — and compares trials/s for both.  perfbench's
``calibrate-fit`` workload records trial throughput.

Bars (all modes, including the ``REPRO_BENCH_SMOKE=1`` CI job):

* the two artifacts must be byte-identical — the parallel-determinism
  contract re-checked at benchmark scale;
* the baseline trial must score exactly 0 (self-fit identity);
* on runners with CPUs to spare and a non-smoke trial count, the
  4-worker fit must actually be faster: trial fan-out is
  embarrassingly parallel, so anything under 1.5x means the pool is
  serializing somewhere.  Smoke runs skip the timing bar — a handful
  of ~0.5 s trials cannot amortize process spawn.
"""

from __future__ import annotations

import os
import time

from repro.calibrate import fit

_PARALLEL_JOBS = 4

#: Search sizes per mode: (grid_limit, random_trials).  Trial count is
#: 1 (baseline) + grid + random.
_SEARCH = {"smoke": (0, 3), "small": (6, 9), "paper": (12, 19)}


def _timed_fit(jobs: int, grid_limit: int, random_trials: int):
    start = time.perf_counter()
    model = fit(
        "diurnal-burst",
        seed=13,
        grid_limit=grid_limit,
        random_trials=random_trials,
        jobs=jobs,
    )
    return model, time.perf_counter() - start


def test_calibrate_throughput(scale):
    mode = "smoke" if os.environ.get("REPRO_BENCH_SMOKE") else scale
    grid_limit, random_trials = _SEARCH[mode]

    serial_model, serial_seconds = _timed_fit(1, grid_limit, random_trials)
    parallel_model, parallel_seconds = _timed_fit(
        _PARALLEL_JOBS, grid_limit, random_trials
    )
    trials = len(serial_model.trials)
    serial_tps = trials / serial_seconds if serial_seconds > 0 else float("inf")
    parallel_tps = (
        trials / parallel_seconds if parallel_seconds > 0 else float("inf")
    )

    # -- contracts re-checked at benchmark scale ------------------------
    assert serial_model.dumps() == parallel_model.dumps(), (
        "fit artifact differs between jobs=1 and jobs=4"
    )
    assert serial_model.trials[0].error == 0.0, (
        f"self-fit baseline scored {serial_model.trials[0].error!r}, not 0"
    )

    cpus = os.cpu_count() or 1
    if cpus >= 2 and mode != "smoke":
        # Spawn overhead amortizes over a real trial count: two cores
        # must not lose to one (5% timer allowance).
        assert parallel_tps >= serial_tps * 0.95, (
            f"parallel fit {parallel_tps:.2f} trials/s slower than "
            f"serial {serial_tps:.2f} trials/s on {cpus} CPUs"
        )
    if cpus >= 4 and mode != "smoke":
        assert parallel_tps >= serial_tps * 1.5, (
            f"parallel fit {parallel_tps:.2f} trials/s is not 1.5x "
            f"serial {serial_tps:.2f} trials/s on {cpus} CPUs"
        )
