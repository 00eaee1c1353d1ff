"""Whole-pipeline tests on degenerate and unusual grid shapes."""

import numpy as np
import pytest

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.core.verification import verify_attack
from repro.estimation.measurement import MeasurementPlan, build_h, build_measurements
from repro.estimation.wls import wls_estimate
from repro.grid.dcflow import solve_dc_flow
from repro.grid.model import Grid, Line
from repro.milp.backend import verify_milp


def two_bus():
    return Grid(2, [Line(1, 1, 2, 4.0)])


def parallel_lines():
    """Two buses joined by two parallel lines of different admittance."""
    return Grid(2, [Line(1, 1, 2, 4.0), Line(2, 1, 2, 1.0)])


def ring(n=4):
    lines = [Line(i, i, i % n + 1, 2.0) for i in range(1, n + 1)]
    return Grid(n, lines)


class TestTwoBus:
    def test_estimation(self):
        grid = two_bus()
        plan = MeasurementPlan(grid)
        flow = solve_dc_flow(grid, [0.5, -0.5])
        z = build_measurements(plan, flow)
        h = build_h(grid, 1, plan.taken_in_order())
        est = wls_estimate(h, z)
        assert est.residual_norm < 1e-12

    def test_attack_footprint(self):
        grid = two_bus()
        spec = AttackSpec.default(grid, goal=AttackGoal.states(2))
        result = verify_attack(spec)
        assert result.attack_exists
        # m = 2l+b = 4: fwd 1, bwd 2, injections 3 and 4 — all must move
        assert result.attack.altered_measurements == [1, 2, 3, 4]

    def test_synthesis(self):
        grid = two_bus()
        spec = AttackSpec.default(grid, goal=AttackGoal.any())
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=1))
        assert result.architecture is not None
        check = verify_attack(spec.with_secured_buses(result.architecture))
        assert not check.attack_exists


class TestParallelLines:
    def test_flow_splits_by_admittance(self):
        grid = parallel_lines()
        flow = solve_dc_flow(grid, [1.0, -1.0])
        assert flow.flow(1) == pytest.approx(0.8)
        assert flow.flow(2) == pytest.approx(0.2)

    def test_attack_must_touch_both_lines(self):
        grid = parallel_lines()
        spec = AttackSpec.default(grid, goal=AttackGoal.states(2))
        result = verify_attack(spec)
        assert result.attack_exists
        altered = set(result.attack.altered_measurements)
        # both parallel lines' flows change with the angle difference
        assert {1, 2, 3, 4} <= altered

    def test_deltas_proportional_to_admittances(self):
        grid = parallel_lines()
        spec = AttackSpec.default(grid, goal=AttackGoal.states(2))
        attack = verify_attack(spec).attack
        d1 = attack.measurement_deltas[1]
        d2 = attack.measurement_deltas[2]
        assert d1 / d2 == pytest.approx(4.0)

    def test_securing_one_line_blocks(self):
        grid = parallel_lines()
        plan = MeasurementPlan(grid, secured={2})
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(2))
        assert not verify_attack(spec).attack_exists


class TestRing:
    def test_estimation_observable(self):
        grid = ring(5)
        plan = MeasurementPlan(grid)
        from repro.estimation.observability import analyze_observability

        assert analyze_observability(plan).observable

    def test_single_state_attack_touches_both_neighbors(self):
        grid = ring(4)
        spec = AttackSpec.default(grid, goal=AttackGoal.states(3, exclusive=True))
        result = verify_attack(spec)
        assert result.attack_exists
        # bus 3's two incident lines (2 and 3) both carry flow changes
        altered = set(result.attack.altered_measurements)
        assert {2, 3} <= altered  # forward flows of lines 2-3 and 3-4

    def test_cut_needs_two_lines(self):
        # islanding any bus of a ring requires cutting two lines, so a
        # zero-measurement attack is impossible even with nothing taken
        # on one line
        grid = ring(4)
        plan = MeasurementPlan(grid)
        spec = AttackSpec(
            grid=grid,
            plan=plan,
            goal=AttackGoal.states(3),
            limits=ResourceLimits(max_measurements=3),
        )
        assert not verify_attack(spec).attack_exists

    def test_ring_backends_agree(self):
        grid = ring(5)
        spec = AttackSpec.default(
            grid,
            goal=AttackGoal.states(3),
            limits=ResourceLimits(max_measurements=8),
        )
        smt = verify_attack(spec)
        milp = verify_milp(spec)
        assert smt.outcome == milp.outcome


class TestStarGrid:
    def test_hub_attack_is_expensive(self):
        # star: bus 1 center, leaves 2..6; attacking the hub state is
        # impossible (it is the reference); attacking a leaf needs only
        # its own line, but attacking ALL leaves together re-centers
        # everything
        grid = Grid(6, [Line(i, 1, i + 1, 2.0) for i in range(1, 6)])
        spec = AttackSpec.default(
            grid, goal=AttackGoal.states(2, 3, 4, 5, 6)
        )
        result = verify_attack(spec)
        assert result.attack_exists
        from repro.core.mincost import minimum_attack_cost

        # each leaf needs its line's 2 flow meas + leaf injection
        # (5*3 = 15); the naive count adds the shared hub injection,
        # but the optimizer picks leaf deltas that *cancel* at the hub
        # (e.g. four at +1, one at -4), sparing that 16th measurement
        cost = minimum_attack_cost(spec)
        assert cost.cost == 15
        hub_injection = 2 * 5 + 1  # measurement 11
        assert hub_injection not in cost.attack.altered_measurements
