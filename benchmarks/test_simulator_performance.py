"""Performance bars of the library itself.

Not a paper figure: these keep the simulator and the miner honest as
code evolves (the optimization guide's "no optimization without
measuring").  Thresholds are deliberately loose — they catch accidental
quadratic blowups, not jitter.
"""

import gc
import statistics
import time
from typing import List, Tuple

from repro.core.checker import SDChecker
from repro.simul.engine import Simulator
from repro.simul.resources import FairShareResource
from repro.workloads.scenarios.presets import get_scenario
from repro.workloads.scenarios.scenario import Scenario, trace_recipe

from benchmarks.test_miner_throughput import _time


def test_event_loop_throughput():
    """Raw DES kernel: ping-pong timeouts."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(50_000):
                yield sim.timeout(0.001)

        sim.process(ticker())
        sim.run()
        return sim.now

    result, seconds = _time(run)
    assert result > 0
    # 50k events should take well under 5 seconds on any machine.
    assert seconds < 5.0


def test_fair_share_churn():
    """Processor-sharing bookkeeping under heavy membership churn."""

    def run():
        sim = Simulator()
        res = FairShareResource(sim, 1000.0)

        def spawner():
            for i in range(2_000):
                res.submit(float(10 + (i % 50)))
                yield sim.timeout(0.01)

        sim.process(spawner())
        sim.run()
        return res.active_jobs

    remaining, seconds = _time(run)
    assert remaining == 0
    assert seconds < 20.0


def test_trace_simulation_rate():
    """End-to-end: queries simulated per wall-clock second."""
    result, wall = _time(lambda: trace_recipe(50, seed=99).run())
    rate = len(result.report) / wall
    # The 200-query figures must stay interactive: >= 2 queries/s.
    assert rate > 2.0


def test_miner_throughput():
    """SDchecker parse rate over a realistic log collection."""
    bed = trace_recipe(40, seed=98).run().testbed
    lines = sum(len(bed.log_store.records(d)) for d in bed.log_store.daemons)

    report, wall = _time(SDChecker().analyze, bed.log_store)
    assert len(report) == 40
    rate = lines / wall
    assert rate > 5_000  # lines/second


def _timed_run(scenario: Scenario) -> Tuple[int, float]:
    """Steps and CPU seconds of one ``run_until_all_finished``.

    The testbed is built outside the timed window, and steps are
    counted by wrapping ``sim.step``, which the run loop calls once per
    step.
    """
    bed, _monitor = scenario.build()
    steps = 0
    step = bed.sim.step

    def counting_step() -> None:
        nonlocal steps
        steps += 1
        step()

    bed.sim.step = counting_step
    gc.collect()
    start = time.process_time()
    bed.run_until_all_finished(limit=scenario.limit_s)
    return steps, time.process_time() - start


def _steps_per_second(scenario: Scenario, runs: int = 1) -> float:
    """Steps per CPU second over ``runs`` consecutive runs."""
    timed = [_timed_run(scenario) for _ in range(runs)]
    return sum(steps for steps, _ in timed) / sum(cpu_s for _, cpu_s in timed)


def test_steps_per_second_flat_in_apps():
    """Per-step cost must not grow with the number of applications.

    Steps grow linearly with apps, so any per-step work proportional to
    the app count (such as rescanning every app for completion) shows
    up as falling steps/s at scale.  diurnal-burst runs at its own 8
    apps and at 30x that; both are timed in this process, so the host's
    speed cancels out of the ratio.

    Each trial divides the 8-app rate, the median of six samples taken
    three before and three after one 240-app run, by that run's rate,
    so a drift in host speed cannot favour either side.  A shared vCPU
    flips between speeds about 40% apart every 0.1-1 s: one 8-app run
    (~0.15 s) sees one speed while a 240-app run (~5 s) averages many,
    so each 8-app sample pools four consecutive runs.  The speed also
    drifts over tens of seconds, which spread single-trial ratios from
    0.73 to 1.31 on a 2-vCPU host, so the bar is on the median of three
    trials that share their neighbouring samples.
    """
    small = get_scenario("diurnal-burst")
    large = small.variant(n_jobs=small.n_jobs * 30)

    def small_samples() -> List[float]:
        return [_steps_per_second(small, runs=4) for _ in range(3)]

    blocks = [small_samples()]
    large_rates = []
    for _ in range(3):
        large_rates.append(_steps_per_second(large))
        blocks.append(small_samples())
    ratios = [
        statistics.median(before + after) / large_rate
        for before, after, large_rate in zip(blocks, blocks[1:], large_rates)
    ]
    ratio = statistics.median(ratios)
    print(
        f"\nsteps/s at {large.n_jobs} apps: "
        + ", ".join(f"{rate:,.0f}" for rate in large_rates)
        + f"; {small.n_jobs}-app/{large.n_jobs}-app ratios: "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f"; median {ratio:.2f}"
    )
    assert ratio <= 1.3
