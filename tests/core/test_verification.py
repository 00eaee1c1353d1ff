"""Tests for the UFDI verification model.

Checks both the constraint semantics (each attack attribute behaves per
its paper equation) and the consistency of extracted attack vectors.
"""

import pytest

from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.core.verification import (
    UfdiEncoder,
    VerificationOutcome,
    verify_attack,
)
from repro.estimation.measurement import MeasurementPlan
from repro.grid.cases import ieee14
from repro.grid.model import Grid, Line


def path_grid(n=4, admittance=2.0):
    """1 - 2 - ... - n, a path: every attack footprint is obvious."""
    lines = [Line(i, i, i + 1, admittance) for i in range(1, n)]
    return Grid(n, lines)


class TestBasicFeasibility:
    def test_unconstrained_single_state_attack(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(10))
        result = verify_attack(spec)
        assert result.attack_exists
        assert 10 in result.attack.attacked_states

    def test_no_goal_is_trivially_sat(self):
        spec = AttackSpec.default(ieee14())
        result = verify_attack(spec)
        assert result.attack_exists  # the empty attack satisfies it

    def test_any_state_goal(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = verify_attack(spec)
        assert result.attack_exists
        assert result.attack.attacked_states


class TestMeasurementCoupling:
    """Eqs. 15-16: cz <-> taken and delta != 0."""

    def test_path_grid_footprint(self):
        # attacking the far end of a 4-bus path must alter the last
        # line's flows and the adjacent injections
        grid = path_grid(4)
        spec = AttackSpec.default(grid, goal=AttackGoal.states(4, exclusive=True))
        result = verify_attack(spec)
        assert result.attack_exists
        # line 3 (3-4): fwd 3, bwd 6; injections at 3 and 4: 9+3=... m numbering:
        # l=3: fwd 1..3, bwd 4..6, bus 7..10
        assert result.attack.altered_measurements == [3, 6, 9, 10]

    def test_untaken_measurements_need_no_alteration(self):
        grid = path_grid(4)
        plan = MeasurementPlan(grid, taken={1, 2, 4, 5, 7, 8, 9, 10})  # line 3 flows untaken
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(4, exclusive=True))
        result = verify_attack(spec)
        assert result.attack_exists
        assert result.attack.altered_measurements == [9, 10]

    def test_secured_measurement_blocks(self):
        grid = path_grid(4)
        plan = MeasurementPlan(grid, secured={3})
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(4, exclusive=True))
        assert not verify_attack(spec).attack_exists

    def test_inaccessible_measurement_blocks(self):
        grid = path_grid(4)
        plan = MeasurementPlan(grid, inaccessible={3})
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(4, exclusive=True))
        assert not verify_attack(spec).attack_exists

    def test_secured_but_untaken_is_irrelevant(self):
        grid = path_grid(4)
        plan = MeasurementPlan(
            grid, taken={1, 2, 4, 5, 7, 8, 9, 10}, secured={3}
        )
        spec = AttackSpec(grid=grid, plan=plan, goal=AttackGoal.states(4, exclusive=True))
        assert verify_attack(spec).attack_exists


class TestKnowledge:
    """Eqs. 17-18."""

    def test_unknown_admittance_blocks_local_attack(self):
        grid = path_grid(4)
        spec = AttackSpec.default(
            grid,
            goal=AttackGoal.states(4, exclusive=True),
            line_attrs={3: LineAttributes(knows_admittance=False)},
        )
        assert not verify_attack(spec).attack_exists

    def test_unknown_admittance_elsewhere_is_harmless(self):
        grid = path_grid(4)
        spec = AttackSpec.default(
            grid,
            goal=AttackGoal.states(4, exclusive=True),
            line_attrs={1: LineAttributes(knows_admittance=False)},
        )
        assert verify_attack(spec).attack_exists

    def test_unknown_admittance_with_untaken_flows_is_harmless(self):
        # paper semantics: knowledge only gates *measurement alteration*;
        # if the unknown line's flow measurements aren't taken, the
        # attack goes through
        grid = path_grid(4)
        plan = MeasurementPlan(grid, taken={1, 2, 4, 5, 7, 8, 9, 10})
        spec = AttackSpec(
            grid=grid,
            plan=plan,
            goal=AttackGoal.states(4, exclusive=True),
            line_attrs={3: LineAttributes(knows_admittance=False)},
        )
        assert verify_attack(spec).attack_exists

    def test_strict_knowledge_mode_blocks_even_untaken(self):
        grid = path_grid(4)
        plan = MeasurementPlan(grid, taken={1, 2, 4, 5, 7, 8, 9, 10})
        spec = AttackSpec(
            grid=grid,
            plan=plan,
            goal=AttackGoal.states(4, exclusive=True),
            line_attrs={3: LineAttributes(knows_admittance=False)},
            strict_knowledge=True,
        )
        assert not verify_attack(spec).attack_exists


class TestResourceLimits:
    """Eqs. 22-24."""

    def test_measurement_budget_boundary(self):
        grid = path_grid(4)
        goal = AttackGoal.states(4, exclusive=True)
        sat = AttackSpec.default(
            grid, goal=goal, limits=ResourceLimits(max_measurements=4)
        )
        unsat = AttackSpec.default(
            grid, goal=goal, limits=ResourceLimits(max_measurements=3)
        )
        assert verify_attack(sat).attack_exists
        assert not verify_attack(unsat).attack_exists

    def test_bus_budget_boundary(self):
        grid = path_grid(4)
        goal = AttackGoal.states(4, exclusive=True)
        # footprint buses: 3 (fwd of line 3 + injection) and 4
        sat = AttackSpec.default(grid, goal=goal, limits=ResourceLimits(max_buses=2))
        unsat = AttackSpec.default(grid, goal=goal, limits=ResourceLimits(max_buses=1))
        assert verify_attack(sat).attack_exists
        assert not verify_attack(unsat).attack_exists

    def test_reported_attack_respects_limits(self):
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(10),
            limits=ResourceLimits(max_measurements=9, max_buses=4),
        )
        result = verify_attack(spec)
        assert result.attack_exists
        assert len(result.attack.altered_measurements) <= 9
        assert len(result.attack.compromised_buses(spec.plan)) <= 4


class TestGoals:
    """Eqs. 25-26."""

    def test_exclusive_goal_restricts_states(self):
        spec = AttackSpec.default(
            ieee14(), goal=AttackGoal.states(12, exclusive=True)
        )
        result = verify_attack(spec)
        assert result.attack.attacked_states == [12]

    def test_distinct_pair(self):
        spec = AttackSpec.default(
            ieee14(), goal=AttackGoal.states(9, 10).with_distinct((9, 10))
        )
        result = verify_attack(spec)
        assert result.attack_exists
        d9 = result.attack.state_deltas.get(9, 0.0)
        d10 = result.attack.state_deltas.get(10, 0.0)
        assert abs(d9 - d10) > 1e-9

    def test_impossible_exclusive_goal(self):
        # the paper's structural fact (Section III-I): under the
        # Table II/III configuration, states 9 and 10 cannot be
        # attacked alone — other states necessarily move too
        from repro.core.casestudy import paper_line_attrs, paper_plan

        from repro.grid.cases import ieee14 as grid_builder

        grid = grid_builder()
        spec = AttackSpec(
            grid=grid,
            plan=paper_plan(grid),
            line_attrs=paper_line_attrs(),
            goal=AttackGoal.states(9, 10, exclusive=True),
        )
        assert not verify_attack(spec).attack_exists


class TestExtractionConsistency:
    def test_deltas_balance_at_buses(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(10))
        result = verify_attack(spec)
        attack = result.attack
        grid, plan = spec.grid, spec.plan
        # bus measurement delta equals incoming minus outgoing flow deltas
        for j in grid.buses:
            total = 0.0
            for line in grid.lines_at(j):
                fwd = attack.measurement_deltas.get(line.index, 0.0)
                sign = 1.0 if line.to_bus == j else -1.0
                total += sign * fwd
            bus_delta = attack.measurement_deltas.get(plan.bus_index(j), 0.0)
            assert bus_delta == pytest.approx(total, abs=1e-9)

    def test_backward_is_negated_forward(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(10))
        attack = verify_attack(spec).attack
        for i in range(1, 21):
            fwd = attack.measurement_deltas.get(i, 0.0)
            bwd = attack.measurement_deltas.get(20 + i, 0.0)
            assert fwd == pytest.approx(-bwd, abs=1e-9)

    def test_statistics_populated(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(10))
        result = verify_attack(spec)
        assert result.statistics["sat_variables"] > 0
        assert result.runtime_seconds > 0

    def test_unknown_backend_rejected(self):
        spec = AttackSpec.default(ieee14())
        with pytest.raises(TypeError, match="backend"):
            verify_attack(spec, backend="smt")

    def test_max_conflicts_unknown(self):
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(9, 10).with_distinct((9, 10)),
            limits=ResourceLimits(max_measurements=15, max_buses=6),
        )
        result = verify_attack(spec, max_conflicts=1)
        assert result.outcome in (
            VerificationOutcome.UNKNOWN,
            VerificationOutcome.SECURE,
        )


class TestEncoderReuse:
    def test_symbolic_security_assumptions(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(12, exclusive=True))
        encoder = UfdiEncoder(spec, symbolic_security=True)
        from repro.smt import Result

        assert encoder.check() is Result.SAT
        attack = encoder.extract_attack()
        buses = attack.compromised_buses(spec.plan)
        # securing every compromised bus kills this vector; iterating
        # reaches UNSAT or a different vector — check one step
        outcome = encoder.check(secured_buses=buses)
        if outcome is Result.SAT:
            new_attack = encoder.extract_attack()
            assert set(new_attack.compromised_buses(spec.plan)) != set(buses)
        # the solver state stays reusable
        assert encoder.check() is Result.SAT
