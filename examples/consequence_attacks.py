#!/usr/bin/env python3
"""Consequence-driven attacks: what UFDI lets an adversary actually do.

The paper motivates UFDI attacks through their effect on security
assessment and corrective control (Section I). This example stages the
two canonical consequences on the IEEE 14-bus system:

1. **overload masking** — line 7 (4-5, the grid's heaviest corridor)
   is pushed beyond a hypothetical rating; a stealthy injection makes
   the operator's estimate sit comfortably inside the rating while the
   conductor actually cooks;
2. **fake congestion** — the same line, healthy, is made to *look*
   overloaded, inviting needless redispatch;
3. the **defense check** — after securing the synthesized architecture,
   both manipulations become impossible.

Run:  python examples/consequence_attacks.py
"""

import numpy as np

from repro import AttackGoal, AttackSpec, SynthesisSettings, load_case
from repro.attacks.overload import fake_congestion_attack, overload_masking_attack
from repro.core.synthesis import synthesize_architecture
from repro.estimation import MeasurementPlan, build_h, build_measurements
from repro.estimation.baddata import chi_square_test
from repro.estimation.wls import wls_estimate
from repro.grid.dcflow import nominal_injections, solve_dc_flow

NOISE = 0.005
LINE = 7  # 4-5, admittance 23.75: the heaviest corridor


def estimated_flow(plan, z, weights, line_index, reference_bus=1):
    grid = plan.grid
    h = build_h(grid, reference_bus, taken=plan.taken_in_order())
    est = wls_estimate(h, z, weights)
    line = grid.line(line_index)
    columns = [j for j in grid.buses if j != reference_bus]
    theta = dict(zip(columns, est.x_hat))
    theta[reference_bus] = 0.0
    flow_value = line.admittance * (theta[line.from_bus] - theta[line.to_bus])
    return flow_value, est


def main() -> None:
    grid = load_case("ieee14")
    plan = MeasurementPlan(grid)
    flow = solve_dc_flow(grid, nominal_injections(grid))
    z = build_measurements(plan, flow, noise_std=NOISE, seed=21)
    weights = np.full(len(z), 1 / NOISE**2)

    true_flow = flow.flow(LINE)
    line = grid.line(LINE)
    print(f"line {LINE} ({line.from_bus}-{line.to_bus}): true flow {true_flow:+.3f} pu")

    # --- 1. overload masking -------------------------------------------
    rating = abs(true_flow) * 0.8  # pretend the line is 25% over its limit
    print(f"\n[masking] thermal rating {rating:.3f} pu -> line is OVERLOADED")
    attack = overload_masking_attack(plan, flow, LINE, rating)
    masked_flow, est = estimated_flow(plan, attack.apply_to(z, plan), weights, LINE)
    alarm = chi_square_test(est).bad_data_detected
    print(
        f"  after attack ({len(attack.altered_measurements)} injections): "
        f"operator sees {masked_flow:+.3f} pu (inside rating: "
        f"{abs(masked_flow) < rating}), bad-data alarm: {alarm}"
    )

    # --- 2. fake congestion --------------------------------------------
    rating = abs(true_flow) * 1.5  # healthy line
    print(f"\n[faking] thermal rating {rating:.3f} pu -> line is healthy")
    attack = fake_congestion_attack(plan, flow, LINE, rating)
    faked_flow, est = estimated_flow(plan, attack.apply_to(z, plan), weights, LINE)
    alarm = chi_square_test(est).bad_data_detected
    print(
        f"  after attack ({len(attack.altered_measurements)} injections): "
        f"operator sees {faked_flow:+.3f} pu (beyond rating: "
        f"{abs(faked_flow) > rating}), bad-data alarm: {alarm}"
    )

    # --- 3. the synthesized defense closes both doors --------------------
    spec = AttackSpec.default(grid, goal=AttackGoal.any())
    defense = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=4))
    print(f"\n[defense] synthesized architecture: secure buses {defense.architecture}")
    secured_plan = plan.with_secured_buses(defense.architecture)
    for label, builder in (
        ("masking", lambda: overload_masking_attack(
            secured_plan, flow, LINE, abs(true_flow) * 0.8)),
        ("faking", lambda: fake_congestion_attack(
            secured_plan, flow, LINE, abs(true_flow) * 1.5)),
    ):
        blocked = builder() is None
        print(f"  {label} attack under the architecture: "
              f"{'blocked' if blocked else 'still possible'}")


if __name__ == "__main__":
    main()
