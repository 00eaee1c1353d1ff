"""Tests for the attack specification model."""

import pytest

from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.estimation.measurement import MeasurementPlan
from repro.grid.cases import ieee14
from repro.grid.dcflow import nominal_injections, solve_dc_flow


class TestLineAttributes:
    def test_defaults(self):
        a = LineAttributes()
        assert a.knows_admittance and a.in_true_topology
        assert not a.fixed and not a.status_secured

    def test_can_exclude_rules(self):
        assert LineAttributes().can_exclude()
        assert not LineAttributes(fixed=True).can_exclude()
        assert not LineAttributes(status_secured=True).can_exclude()
        assert not LineAttributes(in_true_topology=False).can_exclude()

    def test_can_include_rules(self):
        assert LineAttributes(in_true_topology=False).can_include()
        assert not LineAttributes().can_include()
        assert not LineAttributes(
            in_true_topology=False, status_secured=True
        ).can_include()


class TestAttackGoal:
    def test_states_builder(self):
        goal = AttackGoal.states(9, 10)
        assert goal.target_states == frozenset({9, 10})
        assert not goal.exclusive

    def test_exclusive(self):
        assert AttackGoal.states(12, exclusive=True).exclusive

    def test_with_distinct(self):
        goal = AttackGoal.states(9, 10).with_distinct((9, 10))
        assert goal.distinct_pairs == ((9, 10),)

    def test_any(self):
        assert AttackGoal.any().any_state


class TestSpecValidation:
    def test_default_builder(self):
        spec = AttackSpec.default(ieee14())
        assert spec.plan.taken == set(range(1, 55))
        assert spec.reference_bus == 1

    def test_reference_out_of_range(self):
        with pytest.raises(ValueError, match="reference bus"):
            AttackSpec.default(ieee14(), reference_bus=15)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            AttackSpec.default(ieee14(), goal=AttackGoal.states(99))

    def test_reference_cannot_be_target(self):
        with pytest.raises(ValueError, match="reference"):
            AttackSpec.default(ieee14(), goal=AttackGoal.states(1))

    @pytest.mark.parametrize("name", ["max_measurements", "max_buses"])
    @pytest.mark.parametrize("limit", [-1, True, 2.0, "3"])
    def test_limits_must_be_nonnegative_ints(self, name, limit):
        with pytest.raises(ValueError, match=f"{name} must be None or an integer >= 0"):
            ResourceLimits(**{name: limit})

    @pytest.mark.parametrize("limit", [None, 0, 7])
    def test_limits_accept_none_and_nonnegative_ints(self, limit):
        limits = ResourceLimits(max_measurements=limit, max_buses=limit)
        assert limits.max_measurements == limits.max_buses == limit

    def test_unknown_line_attr(self):
        with pytest.raises(ValueError, match="unknown line"):
            AttackSpec.default(ieee14(), line_attrs={99: LineAttributes()})

    def test_mismatched_plan_grid(self):
        from repro.grid.cases import ieee30

        with pytest.raises(ValueError, match="match"):
            AttackSpec(grid=ieee14(), plan=MeasurementPlan(ieee30()))

    def test_structurally_equal_grid_accepted(self):
        spec = AttackSpec(grid=ieee14(), plan=MeasurementPlan(ieee14()))
        assert spec.grid.num_buses == 14


class TestAccessors:
    def test_attrs_default(self):
        spec = AttackSpec.default(ieee14())
        assert spec.attrs(3).knows_admittance

    def test_unknown_admittance_lines(self):
        spec = AttackSpec.default(
            ieee14(),
            line_attrs={3: LineAttributes(knows_admittance=False)},
        )
        assert spec.unknown_admittance_lines() == [3]

    def test_topology_attackable_needs_flag(self):
        spec = AttackSpec.default(ieee14())
        assert spec.topology_attackable_lines() == []

    def test_topology_attackable_lines(self):
        attrs = {i: LineAttributes(fixed=i not in (5, 13)) for i in range(1, 21)}
        spec = AttackSpec.default(
            ieee14(), line_attrs=attrs, allow_topology_attack=True
        )
        assert spec.topology_attackable_lines() == [5, 13]


class TestWithers:
    def test_with_secured_buses(self):
        spec = AttackSpec.default(ieee14()).with_secured_buses([6])
        assert {11, 12, 13, 30, 46} <= spec.plan.secured

    def test_with_secured_measurements(self):
        spec = AttackSpec.default(ieee14()).with_secured_measurements([7])
        assert spec.plan.secured == {7}

    def test_with_goal_and_limits(self):
        spec = AttackSpec.default(ieee14())
        spec2 = spec.with_goal(AttackGoal.states(5)).with_limits(
            ResourceLimits(max_measurements=3)
        )
        assert spec2.goal.target_states == frozenset({5})
        assert spec2.limits.max_measurements == 3
        assert spec.goal.target_states == frozenset()  # original untouched

    def test_with_operating_point(self):
        grid = ieee14()
        flow = solve_dc_flow(grid, nominal_injections(grid))
        spec = AttackSpec.default(grid).with_operating_point(flow)
        assert spec.base_flows[1] == pytest.approx(flow.flow(1))
        assert spec.base_angles[5] == pytest.approx(flow.angle(5))
