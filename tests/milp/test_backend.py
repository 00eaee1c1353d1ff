"""Tests for the HiGHS MILP mirror backend."""

import pytest

from repro.core.casestudy import attack_objective_1, attack_objective_2
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import UfdiEncoder
from repro.grid.cases import ieee14
from repro.milp.backend import solve_encoder_milp, verify_milp


class TestAgreementWithSmt:
    @pytest.mark.parametrize(
        "make_spec,expect_sat",
        [
            (lambda: attack_objective_1(16, 7, True), True),
            (lambda: attack_objective_1(15, 7, True), False),
            (lambda: attack_objective_1(16, 6, True), False),
            (lambda: attack_objective_1(15, 6, False), True),
            (lambda: attack_objective_2(), True),
            (lambda: attack_objective_2(True), False),
            (lambda: attack_objective_2(True, True), True),
        ],
        ids=[
            "obj1-16-7", "obj1-15-7", "obj1-16-6", "obj1-equal",
            "obj2", "obj2-46sec", "obj2-topo",
        ],
    )
    def test_casestudy_agreement(self, make_spec, expect_sat):
        spec = make_spec()
        milp = verify_milp(spec)
        assert milp.attack_exists is expect_sat

    def test_extracted_attack_is_exact(self):
        # the refinement loop re-derives real values from the exact
        # simplex, so the flow-balance identities hold to rounding
        # wherever all the involved measurements are taken
        spec = attack_objective_2()
        result = verify_milp(spec)
        attack = result.attack
        plan = spec.plan

        def line_total(line):
            fwd = plan.forward_index(line.index)
            bwd = plan.backward_index(line.index)
            if plan.is_taken(fwd):
                return attack.measurement_deltas.get(fwd, 0.0)
            if plan.is_taken(bwd):
                return -attack.measurement_deltas.get(bwd, 0.0)
            return None  # unobserved: delta unknown

        for j in spec.grid.buses:
            meas = plan.bus_index(j)
            if not plan.is_taken(meas):
                continue
            totals = [
                (1.0 if line.to_bus == j else -1.0, line_total(line))
                for line in spec.grid.lines_at(j)
            ]
            if any(t is None for __, t in totals):
                continue
            expected = sum(sign * t for sign, t in totals)
            bus_delta = attack.measurement_deltas.get(meas, 0.0)
            assert bus_delta == pytest.approx(expected, abs=1e-9)


class TestSymbolicSecurity:
    def test_secured_buses_assumption(self):
        spec = AttackSpec.default(
            ieee14(), goal=AttackGoal.states(12, exclusive=True)
        )
        encoder = UfdiEncoder(spec, symbolic_security=True)
        free = solve_encoder_milp(encoder)
        assert free.outcome.value == "sat"
        # securing the counterexample's buses blocks that vector
        buses = free.attack.compromised_buses(spec.plan)
        blocked = solve_encoder_milp(encoder, secured_buses=buses)
        if blocked.outcome.value == "sat":
            assert set(
                blocked.attack.compromised_buses(spec.plan)
            ) != set(buses)


class TestStatistics:
    def test_statistics_reported(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(5))
        result = verify_milp(spec)
        stats = result.statistics
        assert stats["milp_binaries"] > 0
        assert stats["milp_continuous"] > 0
        assert stats["milp_constraints"] > 0

    def test_refinements_counter(self):
        spec = attack_objective_2(True, True)
        result = verify_milp(spec)
        assert result.statistics["milp_refinements"] >= 0
