"""Table II: container allocation throughput vs cluster load.

Shape claims: throughput scales (roughly monotonically) with offered
load — the Capacity Scheduler's batch allocation is not the bottleneck
(paper: 272 -> 2831 containers/s from 10% to 100% load).
"""

from repro.experiments.table2 import run_table2


def test_table2_allocation_throughput(scale, seed, record_rows):
    result = run_table2(scale, seed)
    record_rows("table2", result.rows())

    throughput = result.throughput
    loads = sorted(throughput)
    assert result.is_monotonic(), f"throughput not scaling: {throughput}"
    # An order of magnitude between the lightest and heaviest load
    # (paper: 272 vs 2831).
    assert throughput[loads[-1]] > 2.5 * throughput[loads[0]]
    # Hundreds-to-thousands per second at high load.
    assert throughput[loads[-1]] > 500.0
