"""Figure 9: launching delay by instance type and container type.

Shape claims: Spark drivers/executors launch in under a second at the
median (paper ~700 ms) with MapReduce instances a bit slower; Docker
adds a few hundred milliseconds at the median and more at the tail
(paper: +350 ms median, +658 ms p95, long tail).
"""

from repro.experiments.fig9 import INSTANCE_TYPES, run_fig9


def test_fig9_launching_delays(scale, seed, record_rows):
    result = run_fig9(scale, seed)
    record_rows("fig9", result.rows())

    by_type = result.by_instance_type
    # All five instance types observed.
    for code in INSTANCE_TYPES:
        assert code in by_type and by_type[code], f"no {code} samples"

    # Spark launches are sub-second-ish at the median; MR a bit longer.
    assert 0.3 < by_type["spe"].p50 < 1.5
    assert by_type["mrm"].p50 > by_type["spe"].p50

    # Docker overhead: positive at the median, larger at the tail.
    med_overhead = result.docker_overhead_median()
    p95_overhead = result.docker_overhead_p95()
    assert 0.1 < med_overhead < 1.5  # paper: 350 ms
    assert p95_overhead > med_overhead  # long-tail effect
