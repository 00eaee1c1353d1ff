"""Grid security metrics (after Vukovic et al., cited as [10] in the paper).

Per-bus and per-measurement indicators an operator can rank hardening
work by, all derived from the formal models:

* **attack cost** of a state — the fewest measurement injections that
  corrupt it (:func:`repro.core.mincost.state_attack_costs`);
* **exposure** of a measurement — in how many states' cheapest
  attacks it participates (one witness per state, as its search
  returns it);
* **criticality** of a bus — how much the minimum attack cost across
  the grid rises when the bus is secured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.mincost import minimum_attack_cost, state_searches
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationSession


@dataclass(frozen=True)
class SecurityMetricsReport:
    """The computed metric tables.

    ``state_costs``         — bus -> cheapest attack size (None: immune)
    ``measurement_exposure``— measurement -> count of state witnesses using it
    ``weakest_states``      — buses with the smallest attack cost
    ``grid_attack_cost``    — the cheapest attack against *any* state

    Exposure counts the one witness each state's search returns, not
    every minimal attack: a state with several cheapest attacks
    contributes only the measurements of the one its search found.
    """

    state_costs: Dict[int, Optional[int]]
    measurement_exposure: Dict[int, int]
    weakest_states: List[int]
    grid_attack_cost: Optional[int]


def security_metrics(spec: AttackSpec) -> SecurityMetricsReport:
    """Compute the full metrics report for a grid configuration.

    One cheapest-attack search per state
    (:func:`repro.core.mincost.state_searches`) gives both the state's
    cost and the witness its exposure counts come from: exposure counts
    that one witness per state, not every minimal attack.  One
    :class:`VerificationSession` carries every search — a single grid
    encoding for the whole report.
    """
    searches = state_searches(spec)
    costs = {bus: result.cost for bus, result in searches.items()}
    exposure: Dict[int, int] = {}
    for result in searches.values():
        if result.attack is not None:
            for meas in result.attack.altered_measurements:
                exposure[meas] = exposure.get(meas, 0) + 1
    finite = {bus: c for bus, c in costs.items() if c is not None}
    if finite:
        cheapest = min(finite.values())
        weakest = sorted(bus for bus, c in finite.items() if c == cheapest)
        grid_cost = min(finite.values())
    else:
        weakest = []
        grid_cost = None
    return SecurityMetricsReport(
        state_costs=costs,
        measurement_exposure=exposure,
        weakest_states=weakest,
        grid_attack_cost=grid_cost,
    )


def bus_criticality(
    spec: AttackSpec,
    buses: Optional[List[int]] = None,
) -> Dict[int, Optional[int]]:
    """How much securing one bus raises the grid's minimum attack cost.

    Returns bus -> the new grid attack cost with that single bus
    secured (None meaning all attacks blocked).  Bigger is better; the
    ranking approximates the first pick of the synthesis loop.

    The per-bus protection is expressed as a securing *assumption* on
    one ``symbolic_security`` session instead of re-encoding a modified
    measurement plan per bus: one encoding answers the whole ranking.
    """
    targets = buses if buses is not None else list(spec.grid.buses)
    base_spec = spec.with_goal(AttackGoal.any())
    session = VerificationSession(base_spec, symbolic_security=True)
    return {
        bus: minimum_attack_cost(
            base_spec, session=session, secured_buses=[bus]
        ).cost
        for bus in targets
    }
