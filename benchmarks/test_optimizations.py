"""Section V-B: the paper's proposed optimizations, quantified.

Each Table III mitigation must improve its target component, and the
advertised trade-offs must be visible (faster heartbeats cost RPC
volume; JVM reuse requires recurring apps but cuts in-application
delay).
"""

from repro.experiments.optimizations import run_optimization_study


def test_proposed_optimizations(scale, seed, record_rows):
    result = run_optimization_study(scale, seed)
    record_rows("optimizations", result.rows())

    # JVM reuse cuts driver and executor delay (Table III rows 5-6).
    default = result.jvm_reuse["default"]
    reused = result.jvm_reuse["jvm_reuse"]
    assert reused["driver"].p50 < 0.8 * default["driver"].p50
    assert reused["executor"].p50 < default["executor"].p50
    assert reused["total"].p95 < default["total"].p95

    # Dedicated localization storage neutralizes dfsIO interference
    # (Table III row 3): order-of-magnitude improvement under load.
    shared = result.localization["shared"]
    dedicated = result.localization["dedicated"]
    assert dedicated.p50 < 0.5 * shared.p50
    assert dedicated.p95 < shared.p95

    # Heartbeat trade-off (Table III row 2): faster beats -> lower
    # acquisition delay but more RPC traffic.
    intervals = sorted(result.heartbeat)
    acq = [result.heartbeat[i]["acquisition_p95"] for i in intervals]
    rpc = [result.heartbeat[i]["rpcs_per_second"] for i in intervals]
    assert acq == sorted(acq), "acquisition p95 must grow with the interval"
    assert rpc == sorted(rpc, reverse=True), "RPC volume must shrink with the interval"
    # The cap tracks the interval itself.
    assert acq[0] < intervals[0] * 1.2
    assert acq[-1] < intervals[-1] * 1.2
