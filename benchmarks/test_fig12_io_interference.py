"""Figure 12: IO interference (dfsIO writers).

Shape claims at the strongest interference (paper, 100 maps): total
p95 ~3.9x; localization hit hardest (median ~9.4x, heavy tail);
executor delay 2.5-3.5x at the tail; AM delay severely degraded
(paper: up to 8x, via driver localization); intensity is monotone in
the writer count.
"""

from repro.experiments.fig12 import FIG12_MAP_COUNTS, run_fig12


def test_fig12_io_interference(scale, seed, record_rows):
    result = run_fig12(scale, seed)
    record_rows("fig12", result.rows())

    strongest = max(FIG12_MAP_COUNTS)

    # Total delay degrades substantially (paper: x3.9 at p95).
    assert result.slowdown(strongest, "total", 95) > 1.8

    # Localization is the hardest-hit component (paper: x9.4 median).
    assert result.slowdown(strongest, "localization", 50) > 3.0

    # Executor delay suffers at the tail (paper: x2.5-3.5).
    assert result.slowdown(strongest, "executor", 95) > 1.4

    # AM delay degraded via driver localization (paper: up to x8).
    assert result.slowdown(strongest, "am", 95) > 1.8

    # Monotone in interference intensity (median localization).
    meds = [result.series[m]["localization"].p50 for m in sorted(result.series)]
    assert meds == sorted(meds)
