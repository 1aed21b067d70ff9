"""Experiment harness: the scenario builder and the per-table harnesses.

Fig 1 and the faults sweep are campaign specs (``examples/campaigns``,
run and reported by :mod:`repro.campaign`), not functions here.
"""

from repro.experiments.scenario import (
    Scenario,
    ScenarioConfig,
    ScenarioResult,
    build_scenario,
    run_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "build_scenario",
    "run_scenario",
]
