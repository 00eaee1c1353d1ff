#!/usr/bin/env python3
"""How far does the DC assumption carry? AC validation of DC attacks.

The paper's framework (like the UFDI literature) works in the DC
approximation.  This example measures that scope empirically on the
IEEE 14-bus system: a DC-perfect stealthy attack is replayed against a
full AC state estimator (Newton power flow + Gauss-Newton WLS over
P/Q/V telemetry), sweeping the attack magnitude to find where the AC
chi-square detector starts seeing it.

Run:  python examples/ac_validation.py
"""

import numpy as np
from scipy import stats

from repro import load_case
from repro.attacks.liu import perfect_knowledge_attack
from repro.estimation import MeasurementPlan
from repro.estimation.ac import AcSystem, dc_attack_residual_inflation
from repro.grid.dcflow import nominal_injections


def main() -> None:
    grid = load_case("ieee14")
    system = AcSystem(grid, r_over_x=0.1)
    plan = MeasurementPlan(grid)

    injections = nominal_injections(grid, magnitude=0.5)
    flow = system.solve_power_flow(injections, 0.2 * injections)
    print(
        f"AC operating point: {flow.iterations} Newton iterations, "
        f"V in [{flow.v.min():.4f}, {flow.v.max():.4f}]"
    )

    num_measurements = 2 * len(plan.taken) + grid.num_buses
    dof = num_measurements - (2 * grid.num_buses - 1)
    threshold = stats.chi2.ppf(0.99, dof)
    print(f"AC estimator: {num_measurements} measurements, "
          f"chi-square threshold {threshold:.1f}\n")

    print(f"{'attack on state 10':>20} {'AC objective':>14} {'detected':>10}")
    for magnitude in (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3):
        if magnitude == 0.0:
            attack = perfect_knowledge_attack(plan, {10: 1.0}).scaled(0.0)
        else:
            attack = perfect_knowledge_attack(plan, {10: magnitude})
        __, objective = dc_attack_residual_inflation(system, plan, flow, attack)
        detected = objective > threshold
        print(f"{magnitude:>17.2f} rad {objective:>14.1f} {str(detected):>10}")

    print(
        "\nA DC-perfect attack stays under the AC detector only while the"
        "\ninjected state shift is small — the linearization error grows"
        "\nquadratically with magnitude. This quantifies the scope of the"
        "\npaper's DC model: realistic low-magnitude stealth transfers,"
        "\nlarge manipulations require AC-aware attack construction."
    )


if __name__ == "__main__":
    main()
