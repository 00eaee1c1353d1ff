"""Integration: every formally derived attack must evade the real estimator.

This is the end-to-end soundness check of the whole reproduction: attack
vectors produced by the constraint model (Section III) are replayed
against the numerical WLS estimator + chi-square detector (Section II)
at a concrete operating point, and must leave the residual unchanged
while shifting exactly the states they claim to shift.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import verify_attack
from repro.estimation.baddata import chi_square_test, identify_bad_data
from repro.estimation.measurement import MeasurementPlan, build_h, build_measurements
from repro.estimation.wls import wls_estimate
from repro.grid.cases import ieee14, ieee30
from repro.grid.dcflow import nominal_injections, solve_dc_flow
from repro.milp.backend import verify_milp

NOISE = 0.008


def replay(spec, attack, scale=1.0, seed=0):
    """Apply an attack at an operating point; return (clean, attacked, shift)."""
    grid, plan = spec.grid, spec.plan
    flow = solve_dc_flow(grid, nominal_injections(grid), spec.reference_bus)
    z = build_measurements(plan, flow, noise_std=NOISE, seed=seed)
    h = build_h(grid, spec.reference_bus, taken=plan.taken_in_order())
    w = np.full(len(z), 1 / NOISE**2)
    clean = wls_estimate(h, z, w)
    attacked = wls_estimate(h, attack.scaled(scale).apply_to(z, plan), w)
    return clean, attacked, attacked.x_hat - clean.x_hat


class TestSingleTargetReplay:
    @pytest.mark.parametrize("target", [2, 5, 8, 10, 14])
    def test_residual_unchanged_and_state_shifted(self, target):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(target))
        result = verify_attack(spec)
        assert result.attack_exists
        clean, attacked, shift = replay(spec, result.attack, scale=0.05)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)
        assert not chi_square_test(attacked).bad_data_detected
        columns = [j for j in range(1, 15) if j != 1]
        col = columns.index(target)
        expected = result.attack.state_deltas[target] * 0.05
        assert shift[col] == pytest.approx(expected, abs=1e-7)

    def test_lnr_identification_stays_silent(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(10))
        result = verify_attack(spec)
        grid, plan = spec.grid, spec.plan
        flow = solve_dc_flow(grid, nominal_injections(grid))
        z = build_measurements(plan, flow, noise_std=NOISE, seed=0)
        h = build_h(grid, 1, plan.taken_in_order())
        w = np.full(len(z), 1 / NOISE**2)
        removed, __ = identify_bad_data(
            h, result.attack.scaled(0.05).apply_to(z, plan), w
        )
        assert removed == []


class TestConstrainedReplay:
    def test_resource_limited_attack_replays(self):
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(10),
            limits=ResourceLimits(max_measurements=9, max_buses=4),
        )
        result = verify_attack(spec)
        assert result.attack_exists
        clean, attacked, __ = replay(spec, result.attack, scale=0.03)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)

    def test_partial_measurement_plan_replay(self):
        grid = ieee14()
        taken = set(range(1, 55)) - {5, 10, 14, 19, 22, 27, 30, 35, 43, 52}
        plan = MeasurementPlan(grid, taken=taken)
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(12))
        result = verify_attack(spec)
        clean, attacked, __ = replay(spec, result.attack, scale=0.05)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)

    def test_milp_attack_replays(self):
        spec = AttackSpec.default(
            ieee30(), goal=AttackGoal.states(15),
            limits=ResourceLimits(max_measurements=20),
        )
        result = verify_milp(spec)
        assert result.attack_exists
        clean, attacked, __ = replay(spec, result.attack, scale=0.05)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-4)


class TestCaseStudyReplay:
    def test_objective1_replay(self):
        from repro.core.casestudy import attack_objective_1

        spec = attack_objective_1(16, 7, True)
        result = verify_attack(spec)
        clean, attacked, shift = replay(spec, result.attack, scale=0.02)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)
        # states 9 and 10 moved by different amounts
        columns = [j for j in range(1, 15) if j != 1]
        d9, d10 = shift[columns.index(9)], shift[columns.index(10)]
        assert abs(d9 - d10) > 1e-6

    def test_objective2_replay_touches_only_state_12(self):
        from repro.core.casestudy import attack_objective_2

        spec = attack_objective_2()
        result = verify_attack(spec)
        clean, attacked, shift = replay(spec, result.attack, scale=0.05)
        assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)
        columns = [j for j in range(1, 15) if j != 1]
        for bus, delta in zip(columns, shift):
            if bus == 12:
                assert abs(delta) > 1e-6
            else:
                assert abs(delta) < 1e-8


@settings(max_examples=12, deadline=None)
@given(
    st.integers(2, 14),
    st.integers(0, 1000),
)
def test_hypothesis_random_targets_replay(target, seed):
    """Property: any satisfiable single-target formal attack replays
    cleanly against the estimator at any noisy operating point."""
    spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(target))
    result = verify_attack(spec)
    assert result.attack_exists
    clean, attacked, __ = replay(spec, result.attack, scale=0.04, seed=seed)
    assert attacked.objective == pytest.approx(clean.objective, abs=1e-5)
    # stealthiness means the attack does not change the detector's
    # verdict; an unlucky noise draw may trip chi-square even with no
    # attack (e.g. seed=699), and that false positive is not the
    # attack's doing
    assert (
        chi_square_test(attacked).bad_data_detected
        == chi_square_test(clean).bad_data_detected
    )
