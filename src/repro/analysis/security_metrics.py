"""Grid security metrics (after Vukovic et al., cited as [10] in the paper).

Per-bus and per-measurement indicators an operator can rank hardening
work by, all derived from the formal models:

* **attack cost** of a state — the fewest measurement injections that
  corrupt it (:func:`repro.core.mincost.state_attack_costs`);
* **exposure** of a measurement — in how many minimal single-state
  attacks it participates;
* **criticality** of a bus — how much the minimum attack cost across
  the grid rises when the bus is secured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.mincost import minimum_attack_cost, state_searches
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationSession

if TYPE_CHECKING:
    from repro.runtime import RuntimeOptions


@dataclass(frozen=True)
class SecurityMetricsReport:
    """The computed metric tables.

    ``state_costs``         — bus -> cheapest attack size (None: immune)
    ``measurement_exposure``— measurement -> count of minimal attacks using it
    ``weakest_states``      — buses with the smallest attack cost
    ``grid_attack_cost``    — the cheapest attack against *any* state
    """

    state_costs: Dict[int, Optional[int]]
    measurement_exposure: Dict[int, int]
    weakest_states: List[int]
    grid_attack_cost: Optional[int]


def security_metrics(
    spec: AttackSpec,
    runtime: "Optional[RuntimeOptions]" = None,
) -> SecurityMetricsReport:
    """Compute the full metrics report for a grid configuration.

    One cheapest-attack search per state
    (:func:`repro.core.mincost.state_searches`) gives both the state's
    cost and the witness its exposure counts come from.  By default one
    :class:`VerificationSession` carries every search — a single grid
    encoding for the whole report.  ``runtime`` instead routes every
    probe through the parallel runtime
    (:func:`repro.runtime.verify_one`).
    """
    searches = state_searches(spec, runtime=runtime)
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
    runtime: "Optional[RuntimeOptions]" = None,
) -> Dict[int, Optional[int]]:
    """How much securing one bus raises the grid's minimum attack cost.

    Returns bus -> the new grid attack cost with that single bus
    secured (None meaning all attacks blocked).  Bigger is better; the
    ranking approximates the first pick of the synthesis loop.

    On the default path the per-bus protection is expressed as a
    securing *assumption* on one ``symbolic_security`` session instead
    of re-encoding a modified measurement plan per bus: one encoding
    answers the whole ranking.
    """
    targets = buses if buses is not None else list(spec.grid.buses)
    base_goal = AttackGoal.any()
    out: Dict[int, Optional[int]] = {}
    if runtime is None:
        base_spec = spec.with_goal(base_goal)
        session = VerificationSession(base_spec, symbolic_security=True)
        for bus in targets:
            result = minimum_attack_cost(
                base_spec, session=session, secured_buses=[bus]
            )
            out[bus] = result.cost
        return out
    for bus in targets:
        secured = spec.with_secured_buses([bus]).with_goal(base_goal)
        result = minimum_attack_cost(secured, runtime=runtime)
        out[bus] = result.cost
    return out
