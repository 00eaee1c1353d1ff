"""Attack impact on the operator's view of the system.

The paper notes (Section II-B) that the state-estimation solution feeds
power-flow and load estimates used for security assessment, corrective
control and real-time pricing.  This module quantifies how much a given
UFDI attack distorts those downstream quantities at an operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackSpec
from repro.estimation.measurement import build_h, build_measurements
from repro.estimation.wls import wls_estimate
from repro.grid.dcflow import DcFlowResult


@dataclass(frozen=True)
class AttackImpact:
    """Distortion induced by an attack at an operating point.

    ``state_shift``       — per-bus estimated angle change (radians)
    ``flow_shift``        — per-line estimated flow change (per unit)
    ``load_shift``        — per-bus estimated consumption change
    ``max_flow_shift``    — worst line-flow distortion (what could mask
                            an overload or fake one)
    ``total_load_shift``  — total absolute load distortion
    """

    state_shift: Dict[int, float]
    flow_shift: Dict[int, float]
    load_shift: Dict[int, float]

    @property
    def max_flow_shift(self) -> float:
        return max((abs(v) for v in self.flow_shift.values()), default=0.0)

    @property
    def total_load_shift(self) -> float:
        return sum(abs(v) for v in self.load_shift.values())


def attack_impact(
    spec: AttackSpec,
    attack: AttackVector,
    flow: DcFlowResult,
    noise_std: float = 0.0,
) -> AttackImpact:
    """Replay ``attack`` at the operating point and diff the estimates.

    Runs the WLS estimator on the clean and attacked measurement vectors
    (both under the pre-attack topology mapping — the detector's view)
    and reports the resulting shifts in states, line flows and loads.
    """
    grid = spec.grid
    plan = spec.plan
    ref = spec.reference_bus
    z = build_measurements(plan, flow, noise_std=noise_std)
    h = build_h(grid, ref, taken=plan.taken_in_order())
    clean = wls_estimate(h, z)
    attacked = wls_estimate(h, attack.apply_to(z, plan))
    columns = [j for j in grid.buses if j != ref]
    shift = attacked.x_hat - clean.x_hat
    theta_shift = {bus: float(d) for bus, d in zip(columns, shift)}
    theta_shift[ref] = 0.0
    flow_shift: Dict[int, float] = {}
    for line in grid.lines:
        flow_shift[line.index] = float(line.admittance) * (
            theta_shift[line.from_bus] - theta_shift[line.to_bus]
        )
    load_shift: Dict[int, float] = {}
    for j in grid.buses:
        total = 0.0
        for line in grid.lines_at(j):
            sign = 1.0 if line.to_bus == j else -1.0
            total += sign * flow_shift[line.index]
        load_shift[j] = total
    return AttackImpact(theta_shift, flow_shift, load_shift)
