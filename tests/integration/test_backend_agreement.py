"""Integration: the three decision procedures agree on randomized specs.

The bundled SMT engine (exact DPLL(T)), the HiGHS MILP mirror with exact
refinement, and — on the boolean side of small instances — the
from-scratch branch-and-bound must return the same SAT/UNSAT verdicts.
Agreement across independently implemented deciders is the strongest
correctness evidence the reproduction has.
"""

import random

import pytest

from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.core.verification import VerificationOutcome, verify_attack
from repro.estimation.measurement import MeasurementPlan
from repro.grid.cases import ieee14
from repro.grid.synthetic import generate_grid
from repro.milp.backend import verify_milp


def random_spec(seed):
    rng = random.Random(seed)
    num_buses = rng.randint(5, 12)
    num_lines = rng.randint(num_buses - 1, min(16, num_buses + 5))
    grid = generate_grid(num_buses, num_lines, seed=seed)
    num_potential = 2 * grid.num_lines + grid.num_buses
    taken = {
        m
        for m in range(1, num_potential + 1)
        if rng.random() < 0.85
    }
    # keep observability likely: always take bus injections
    taken |= {2 * grid.num_lines + j for j in grid.buses}
    secured = {m for m in taken if rng.random() < 0.1}
    inaccessible = {m for m in range(1, num_potential + 1) if rng.random() < 0.05}
    plan = MeasurementPlan(grid, taken=taken, secured=secured, inaccessible=inaccessible)
    attrs = {}
    for line in grid.lines:
        attrs[line.index] = LineAttributes(
            knows_admittance=rng.random() > 0.15,
            fixed=rng.random() > 0.3,
        )
    target = rng.randint(2, grid.num_buses)
    goal = AttackGoal.states(target, exclusive=rng.random() < 0.3)
    limits = ResourceLimits(
        max_measurements=rng.choice([None, rng.randint(3, 12)]),
        max_buses=rng.choice([None, rng.randint(2, 6)]),
    )
    return AttackSpec(
        grid=grid,
        plan=plan,
        line_attrs=attrs,
        goal=goal,
        limits=limits,
        allow_topology_attack=rng.random() < 0.5,
    )


class TestRandomizedAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_smt_milp_agree(self, seed):
        spec = random_spec(seed)
        smt = verify_attack(spec)
        milp = verify_milp(spec)
        assert smt.outcome == milp.outcome, f"seed {seed}"
        if smt.outcome is VerificationOutcome.ATTACK_EXISTS:
            # both vectors satisfy the same spec-level constraints
            for result in (smt, milp):
                attack = result.attack
                if spec.limits.max_measurements is not None:
                    assert (
                        len(attack.altered_measurements)
                        <= spec.limits.max_measurements
                    )
                if spec.limits.max_buses is not None:
                    assert (
                        len(attack.compromised_buses(spec.plan))
                        <= spec.limits.max_buses
                    )
                for meas in attack.altered_measurements:
                    assert spec.plan.is_taken(meas)
                    assert spec.plan.is_accessible(meas)
                    assert not spec.plan.is_secured(meas)


class TestCaseStudyAgreement:
    def test_ieee14_with_topology_attack(self):
        attrs = {i: LineAttributes(fixed=i not in (5, 13)) for i in range(1, 21)}
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(12, exclusive=True),
            line_attrs=attrs,
            allow_topology_attack=True,
        )
        smt = verify_attack(spec)
        milp = verify_milp(spec)
        assert smt.outcome == milp.outcome
