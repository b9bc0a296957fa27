"""Table III: per-component contribution to the total scheduling delay.

Shape claims: on the critical path, the in-application components
(driver + executor delay) dominate; allocation, acquisition,
localization and launching are each minor (paper: executor 41%, AM 35%,
acquisition/localization/launching < 1% each, allocation ~2%).
"""

from repro.experiments.table3 import run_table3


def test_table3_component_contributions(scale, seed, record_rows):
    result = run_table3(scale, seed)
    record_rows("table3", result.rows())

    crit = result.critical_path
    mean = result.mean_shares

    # Driver + executor dominate the critical path (paper: 41% executor
    # alone; in-application > 70% of total).
    assert crit["driver"] + crit["executor"] > 0.5

    # Executor delay is the single largest component.
    assert crit["executor"] == max(crit.values())

    # Acquisition contributes almost nothing on the critical path.
    assert crit["acqui"] < 0.10

    # AM delay is a large share of the total (paper ~35%).
    assert 0.2 < mean["am"] < 0.55

    # Every share is a valid fraction.
    for shares in (crit, mean):
        for key, value in shares.items():
            assert 0.0 <= value <= 1.0, (key, value)
