"""Production-scale scenario packs.

Declarative, seeded scenarios composing arrival processes, tenant
mixes, schedulers, preemption, hardware profiles, and mid-run cluster
events into single runs the unmodified miner consumes.  See
:mod:`repro.workloads.scenarios.presets` for the named packs, and
:func:`trace_recipe` for the paper's own section IV-A recipe.
"""

from repro.workloads.scenarios.arrivals import (
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)
from repro.workloads.scenarios.presets import (
    SCENARIO_PRESETS,
    get_scenario,
    list_scenarios,
)
from repro.workloads.scenarios.scenario import (
    ArrivalSpec,
    ClusterEvent,
    Scenario,
    ScenarioRun,
    TenantSpec,
    trace_recipe,
)

__all__ = [
    "ArrivalSpec",
    "ClusterEvent",
    "Scenario",
    "ScenarioRun",
    "TenantSpec",
    "SCENARIO_PRESETS",
    "get_scenario",
    "list_scenarios",
    "poisson_arrivals",
    "mmpp_arrivals",
    "diurnal_arrivals",
    "trace_recipe",
]
