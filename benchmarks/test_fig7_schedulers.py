"""Figure 7: centralized vs distributed scheduler comparison.

Shape claims: the distributed scheduler allocates an order of magnitude
faster (paper ~80x median; p95 108 ms vs 3709 ms); under high load its
random placement queues tasks at NMs for tens of seconds (paper: up to
53 s vs ~100 ms centralized); acquisition delay is capped at the 1 s
MapReduce heartbeat at every load level.
"""

from repro.experiments.fig7 import run_fig7


def test_fig7_scheduler_comparison(scale, seed, record_rows):
    result = run_fig7(scale, seed)
    record_rows("fig7", result.rows())

    # (a) distributed wins by at least an order of magnitude.
    ce, de = result.allocation["ce"], result.allocation["de"]
    assert ce.p50 / de.p50 > 10.0
    assert de.p95 < 0.3  # paper: 108 ms
    assert ce.p95 > 1.0  # paper: 3709 ms

    # (b) distributed queues behind busy nodes; centralized doesn't.
    qce, qde = result.queueing["ce"], result.queueing["de"]
    assert qde.max() > 20.0  # paper: up to ~53 s
    assert qce.p50 < 1.0  # paper: ~100 ms

    # (c) acquisition capped by the 1 s AM heartbeat at every load.
    for load, sample in result.acquisition.items():
        assert sample.max() <= 1.05, f"load {load}: cap violated"
        assert sample.std() > 0.05, f"load {load}: variance collapsed"
