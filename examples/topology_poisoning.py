#!/usr/bin/env python3
"""Topology poisoning: why coordination matters (paper Section III-E).

Demonstrates, at a numerical operating point on the IEEE 14-bus system:

1. an *uncoordinated* topology error (the topology processor mapping a
   line out while the telemetry still reflects reality) trips the
   residual-based topology-error detector;
2. a *coordinated* exclusion attack — false breaker status plus matching
   measurement injections — keeps the residual clean while silently
   corrupting the operator's picture of the grid;
3. the formal model discovering the same coordinated attack from the
   constraint system alone, and its impact on estimated loads.

Run:  python examples/topology_poisoning.py
"""

import numpy as np

from repro import load_case
from repro.analysis.impact import attack_impact
from repro.attacks.topology_attack import coordinated_topology_attack
from repro.core.casestudy import attack_objective_2
from repro.core.report import format_verification
from repro.core.verification import verify_attack
from repro.estimation import MeasurementPlan, build_measurements
from repro.estimation.topoerror import check_topology
from repro.grid.dcflow import nominal_injections, solve_dc_flow
from repro.grid.topology import BreakerStatus, TopologyProcessor

NOISE_STD = 0.004
EXCLUDED_LINE = 13  # bus 6 - bus 13; non-core in the paper's Table II


def main() -> None:
    grid = load_case("ieee14")
    plan = MeasurementPlan(grid)
    # an operating point that loads the 6-13 corridor, so the excluded
    # line carries significant flow and an uncoordinated error is glaring
    injections = np.zeros(grid.num_buses)
    injections[0] = 1.2   # generation at bus 1
    injections[5] = 0.8   # generation at bus 6
    injections[12] = -1.0  # load at bus 13
    injections[13] = -0.6  # load at bus 14
    injections[8] = -0.4   # load at bus 9
    flow = solve_dc_flow(grid, injections)
    z = build_measurements(plan, flow, noise_std=NOISE_STD, seed=11)
    weights = [1.0 / NOISE_STD**2] * len(z)

    processor = TopologyProcessor(
        grid,
        [
            BreakerStatus(line.index, closed=True, fixed=line.index not in (5, 13))
            for line in grid.lines
        ],
    )

    true_topo = processor.true_topology()
    honest = check_topology(plan, true_topo, z, weights)
    print(
        f"true topology:        objective {honest.estimate.objective:9.1f}  "
        f"suspected: {honest.topology_suspected}"
    )

    # --- 1. uncoordinated topology error is detected --------------------
    poisoned = processor.apply_poisoning(exclusions=[EXCLUDED_LINE])
    uncoordinated = check_topology(plan, poisoned, z, weights)
    print(
        f"uncoordinated error:  objective {uncoordinated.estimate.objective:9.1f}  "
        f"suspected: {uncoordinated.topology_suspected}"
    )

    # --- 2. coordinated exclusion attack evades -------------------------
    attack = coordinated_topology_attack(
        plan, flow, poisoned, state_deltas={12: 0.05}
    )
    z_attacked = attack.apply_to(z, plan)
    coordinated = check_topology(plan, poisoned, z_attacked, weights)
    print(
        f"coordinated attack:   objective {coordinated.estimate.objective:9.1f}  "
        f"suspected: {coordinated.topology_suspected}  "
        f"({len(attack.altered_measurements)} measurements altered)"
    )

    # --- 3. the formal model finds the same attack class ----------------
    print("\nformal model, objective-2 configuration with topology attacks:")
    spec = attack_objective_2(secure_measurement_46=True, allow_topology_attack=True)
    result = verify_attack(spec)
    print(format_verification(result, spec))

    if result.attack_exists:
        impact = attack_impact(spec, result.attack.scaled(0.05), flow)
        worst_bus = max(impact.load_shift, key=lambda j: abs(impact.load_shift[j]))
        print(
            f"\nimpact at the operating point (attack scaled to 0.05 rad): "
            f"worst load distortion {impact.load_shift[worst_bus]:+.4f} pu at "
            f"bus {worst_bus}, worst flow distortion {impact.max_flow_shift:.4f} pu"
        )


if __name__ == "__main__":
    main()
