"""Figure 11: in-application delay — workloads and code optimization.

Shape claims: driver delay is workload-independent (~3 s for both
wordcount and Spark-SQL); the executor delay is markedly longer for
Spark-SQL (eight opened tables vs one file; paper: p95 9.5 s vs 6.0 s);
more opened files lengthen it further; Future-parallelized RDD init
cuts seconds off the tail (paper: ~2 s).
"""

from repro.experiments.fig11 import FIG11B_VARIANTS, run_fig11


def test_fig11_in_application_delay(scale, seed, record_rows):
    result = run_fig11(scale, seed)
    record_rows("fig11", result.rows())

    wc = result.by_workload["wordcount"]
    sql = result.by_workload["sql"]

    # (a) driver delays nearly identical; ~3 s scale.
    assert abs(wc["driver"].p50 - sql["driver"].p50) < 0.8
    assert 1.5 < sql["driver"].p50 < 4.5

    # (a) Spark-SQL pays a longer executor delay than wordcount.
    assert sql["executor"].p95 > wc["executor"].p95

    # (b) more opened files -> monotonically longer executor delay.
    medians = [result.by_variant[f"x{k}"].p50 for k in (1, 2, 3, 4)]
    assert medians == sorted(medians)
    assert medians[-1] > medians[0] * 1.5

    # (b) the Future optimization shortens the delay (paper: ~2 s off
    # the tail); the median gain is the robust signal at small scale.
    assert result.opt_tail_reduction() > 0.0
    assert (
        result.by_variant["x1"].p50 - result.by_variant["opt"].p50 > 1.0
    )
