"""Figure 8: localization delay vs localized file size.

Shape claims: the default ~500 MB package localizes sub-second (paper:
~500 ms); 8 GB of extra "--files" takes tens of seconds (paper: ~23 s);
the total delay deteriorates accordingly; sub-second *driver*
localizations persist at every size (the paper's bimodality).
"""

from repro.experiments.fig8 import run_fig8


def test_fig8_localization_sweep(scale, seed, record_rows):
    result = run_fig8(scale, seed)
    record_rows("fig8", result.rows())

    labels = list(result.series)
    # Executor localization grows monotonically with the payload.
    medians = [result.series[label]["localization"].p50 for label in labels]
    assert medians == sorted(medians)

    # Default package: sub-second driver localization (paper ~500 ms).
    assert result.series["default"]["driver_localization"].p50 < 1.0

    # 8 GB: tens of seconds for executors (paper ~23 s)...
    assert result.series["+8GB"]["localization"].p50 > 10.0
    # ...while drivers still localize in about a second (bimodality).
    assert result.series["+8GB"]["driver_localization"].p50 < 1.5

    # Total scheduling delay severely deteriorated by large payloads.
    assert (
        result.series["+8GB"]["total"].p95
        > 1.8 * result.series["default"]["total"].p95
    )
