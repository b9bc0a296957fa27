"""Figure 5: scheduling delay vs input data size.

Shape claims: absolute total delay *grows* with input size (the paper's
200 GB p95 is ~4x the 20 MB p95, from IO self-interference), while the
*normalized* delay shrinks (tiny 20 MB jobs spend most of their runtime
on scheduling).
"""

from repro.experiments.fig5 import run_fig5


def test_fig5_input_size_sweep(scale, seed, record_rows):
    result = run_fig5(scale, seed)
    record_rows("fig5", result.rows())

    labels = list(result.series)
    smallest, largest = labels[0], labels[-1]

    # Absolute delay grows with input size.
    assert result.ratio_p95_largest_vs_smallest() > 1.5

    # Normalized delay shrinks: tiny jobs are scheduling-dominated.
    norm_small = result.series[smallest]["normalized"]
    norm_large = result.series[largest]["normalized"]
    assert norm_small.mean() > 0.5  # paper: >65% for 20 MB
    assert norm_large.mean() < norm_small.mean() / 2

    # Both in and out deteriorate at huge inputs; `in` at least as hard
    # (paper: in x5.7 vs out x1.5).
    in_ratio = result.series[largest]["in"].p95 / result.series[smallest]["in"].p95
    out_ratio = result.series[largest]["out"].p95 / result.series[smallest]["out"].p95
    assert in_ratio > 1.2 and out_ratio > 1.0
