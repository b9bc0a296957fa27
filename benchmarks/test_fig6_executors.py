"""Figure 6: scheduling delay vs number of executors per job.

Shape claims: more executors -> larger total delay (the 80%-gate waits
on a wider allocation fan-out) and a larger, more variable Cl-Cf spread
between the first and last container launch.
"""

from repro.experiments.fig6 import FIG6_EXECUTORS, run_fig6


def test_fig6_executor_sweep(scale, seed, record_rows):
    result = run_fig6(scale, seed)
    record_rows("fig6", result.rows())

    spreads = [result.series[n]["cl_cf"].p50 for n in FIG6_EXECUTORS]
    assert spreads == sorted(spreads), "Cl-Cf median must grow with executors"
    assert spreads[-1] > 1.5 * spreads[0]

    # Total delay does not shrink with more executors; the 16-executor
    # tail exceeds the 4-executor tail.
    assert result.total_p95(16) >= result.total_p95(4)

    # Variance grows with the fan-out.
    assert (
        result.series[16]["cl_cf"].std() > result.series[4]["cl_cf"].std()
    )
