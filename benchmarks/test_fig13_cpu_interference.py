"""Figure 13: CPU interference (Kmeans apps).

Shape claims at 16 Kmeans apps (paper): total p95 ~1.6x; the
*in-application* path takes the damage — driver delay up to 2.9x and
executor delay up to 2.4x (CPU-bound JVM warm-up) — while localization
slows only mildly (~1.4x median: namenode lookup + localizer JVM are
its only CPU-bound parts).
"""

from repro.experiments.fig13 import FIG13_KMEANS_COUNTS, run_fig13


def test_fig13_cpu_interference(scale, seed, record_rows):
    result = run_fig13(scale, seed)
    record_rows("fig13", result.rows())

    strongest = max(FIG13_KMEANS_COUNTS)

    # Total delay degrades noticeably but moderately (paper: x1.6).
    assert result.slowdown(strongest, "total", 95) > 1.2

    # Driver and executor delays hit hard (paper: x2.9 / x2.4 tails).
    assert result.slowdown(strongest, "driver", 95) > 1.5
    assert result.slowdown(strongest, "executor", 95) > 1.3

    # The in-application path suffers more than the out-application
    # path — the paper's headline contrast with IO interference.
    assert result.slowdown(strongest, "in", 95) > result.slowdown(
        strongest, "out", 95
    )

    # Localization only mildly affected (paper: x1.4 median).
    loc = result.slowdown(strongest, "localization", 50)
    assert loc < result.slowdown(strongest, "driver", 95)
