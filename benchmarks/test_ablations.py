"""Ablations: remove one mechanism, watch the paper result break.

These benches document *why* the simulator reproduces the paper —
each headline effect is carried by an explicit mechanism, not by tuned
noise.
"""

from repro.experiments.ablations import run_ablation_study


def test_mechanism_ablations(scale, seed, record_rows):
    result = run_ablation_study(scale, seed)
    record_rows("ablations", result.rows())

    # Fig 12's localization collapse is carried by write-pressure cache
    # eviction: without it, dfsIO costs bandwidth sharing only.
    assert result.eviction["with_eviction"] > 2.5
    assert (
        result.eviction["no_eviction"] < 0.55 * result.eviction["with_eviction"]
    )

    # The executor delay of wide fleets is carried by the 80% gate.
    assert (
        result.gate["gate_off"].p50 < result.gate["gate_80"].p50
    )

    # The NM localized-resource cache prevents the localization storm.
    assert (
        result.localization_cache["cache_off"]
        > 1.5 * result.localization_cache["cache_on"]
    )
