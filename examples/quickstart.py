#!/usr/bin/env python3
"""Quickstart: state estimation, a stealthy attack, and formal verification.

Walks the paper's whole pipeline on the IEEE 14-bus system:

1. solve a DC operating point and estimate states from noisy telemetry;
2. show the chi-square bad-data detector catching a *naive* injection;
3. show the classical ``a = H c`` stealthy attack (Liu et al.) evading it;
4. ask the formal verification model whether a *resource-constrained*
   attacker can do the same, and replay its answer on the estimator.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AttackGoal, AttackSpec, ResourceLimits, load_case, verify_attack
from repro.attacks.liu import perfect_knowledge_attack
from repro.core.report import format_verification
from repro.estimation import MeasurementPlan, build_h, build_measurements
from repro.estimation.baddata import chi_square_test
from repro.estimation.wls import wls_estimate
from repro.grid.dcflow import nominal_injections, solve_dc_flow

NOISE_STD = 0.005


def main() -> None:
    grid = load_case("ieee14")
    print(f"loaded {grid!r}, average degree {grid.average_degree():.2f}")

    # --- 1. operating point and WLS estimation -------------------------
    injections = nominal_injections(grid)
    flow = solve_dc_flow(grid, injections)
    plan = MeasurementPlan(grid)  # all 2l+b measurements taken
    z = build_measurements(plan, flow, noise_std=NOISE_STD, seed=1)
    h = build_h(grid, reference_bus=1, taken=plan.taken_in_order())
    weights = [1.0 / NOISE_STD**2] * len(z)
    estimate = wls_estimate(h, z, weights)
    test = chi_square_test(estimate)
    print(
        f"\nclean estimation: objective {estimate.objective:.1f} "
        f"(threshold {test.threshold:.1f}) -> bad data: {test.bad_data_detected}"
    )

    # --- 2. a naive injection is caught ---------------------------------
    z_naive = z.copy()
    z_naive[7] += 0.8  # clumsy bump on one flow measurement
    naive = wls_estimate(h, z_naive, weights)
    print(
        f"naive +0.8 injection: objective {naive.objective:.1f} "
        f"-> bad data: {chi_square_test(naive).bad_data_detected}"
    )

    # --- 3. the classical stealthy attack -------------------------------
    attack = perfect_knowledge_attack(plan, {10: 0.05})
    z_stealthy = attack.apply_to(z, plan)
    stealthy = wls_estimate(h, z_stealthy, weights)
    print(
        f"stealthy a=Hc attack ({len(attack.altered_measurements)} measurements): "
        f"objective {stealthy.objective:.1f} "
        f"-> bad data: {chi_square_test(stealthy).bad_data_detected}"
    )

    # --- 4. formal verification under constraints -----------------------
    spec = AttackSpec.default(
        grid,
        goal=AttackGoal.states(10),
        limits=ResourceLimits(max_measurements=10, max_buses=4),
    )
    result = verify_attack(spec)
    print("\ncan a 10-measurement / 4-substation attacker corrupt state 10?")
    print(format_verification(result, spec))

    if result.attack_exists:
        z_formal = result.attack.apply_to(z, plan)
        formal = wls_estimate(h, z_formal, weights)
        shift = formal.x_hat - estimate.x_hat
        print(
            f"\nreplayed on the estimator: objective {formal.objective:.1f} "
            f"(unchanged: {abs(formal.objective - estimate.objective) < 1e-6}), "
            f"state 10 shifted by {shift[8]:+.4f}"
        )


if __name__ == "__main__":
    main()
