"""Integration: synthesized architectures hold up against everything.

A security architecture from Algorithm 1 must block not just the formal
attack model but also the independent *algebraic* attack construction
and numerical replay attempts — and conversely, dropping any bus from a
minimal architecture must reopen some attack.
"""

import pytest

from repro.attacks.liu import restricted_access_attack
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.synthesis import (
    SynthesisSettings,
    enumerate_architectures,
    synthesize_architecture,
    synthesize_measurement_architecture,
)
from repro.core.verification import verify_attack
from repro.defense.baselines import protection_blocks_all_attacks
from repro.estimation.measurement import MeasurementPlan
from repro.grid.cases import ieee14


@pytest.fixture(scope="module")
def worst_case_spec():
    return AttackSpec.default(ieee14(), goal=AttackGoal.any())


@pytest.fixture(scope="module")
def minimal_architecture(worst_case_spec):
    for budget in range(1, 14):
        result = synthesize_architecture(
            worst_case_spec, SynthesisSettings(max_secured_buses=budget)
        )
        if result.architecture is not None:
            return result.architecture
    raise AssertionError("no architecture found at any budget")


class TestArchitectureSoundness:
    def test_blocks_formal_attacks(self, worst_case_spec, minimal_architecture):
        secured = worst_case_spec.with_secured_buses(minimal_architecture)
        assert not verify_attack(secured).attack_exists

    def test_blocks_algebraic_attacks(self, worst_case_spec, minimal_architecture):
        plan = worst_case_spec.plan.with_secured_buses(minimal_architecture)
        assert restricted_access_attack(plan) is None

    def test_matches_rank_condition(self, worst_case_spec, minimal_architecture):
        # under the worst-case model, blocking all attacks is exactly
        # the Bobba full-rank condition on the protected rows
        plan = worst_case_spec.plan.with_secured_buses(minimal_architecture)
        protected = sorted(m for m in plan.taken if plan.is_secured(m))
        assert protection_blocks_all_attacks(plan, protected)

    def test_minimality(self, worst_case_spec, minimal_architecture):
        # dropping any single bus reopens some attack
        for removed in minimal_architecture:
            weakened = [b for b in minimal_architecture if b != removed]
            secured = worst_case_spec.with_secured_buses(weakened)
            assert verify_attack(secured).attack_exists


class TestScopedArchitectures:
    def test_weak_attacker_needs_fewer_buses(self):
        strong = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        weak = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.any(),
            limits=ResourceLimits(max_measurements=6, max_buses=3),
        )

        def minimum(spec):
            for budget in range(0, 14):
                result = synthesize_architecture(
                    spec, SynthesisSettings(max_secured_buses=budget)
                )
                if result.architecture is not None:
                    return len(result.architecture)
            return None

        assert minimum(weak) <= minimum(strong)

    def test_architecture_scoped_to_target(self):
        # protecting only state 12 needs far less than protecting all
        spec = AttackSpec.default(
            ieee14(), goal=AttackGoal.states(12, exclusive=True)
        )
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=2))
        assert result.architecture is not None
        assert len(result.architecture) <= 2


class TestMeasurementVsBusArchitectures:
    def test_measurement_architecture_matches_basic_set_size(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_measurement_architecture(spec, max_secured_measurements=13)
        assert result.architecture is not None
        # the information-theoretic minimum is n = 13 protected meters
        assert len(result.architecture) == 13
        # the protected rows satisfy the Bobba full-rank condition
        assert protection_blocks_all_attacks(spec.plan, result.architecture)

    def test_measurement_architecture_infeasibility_small_grid(self):
        # the below-minimum infeasibility proof is a hitting-set
        # enumeration; exercise it where the space is small (a path
        # grid needs n-1 = 3 protected meters)
        from repro.grid.model import Grid, Line

        grid = Grid(4, [Line(i, i, i + 1, 2.0) for i in range(1, 4)])
        spec = AttackSpec.default(grid, goal=AttackGoal.any())
        ok = synthesize_measurement_architecture(spec, max_secured_measurements=3)
        assert ok.architecture is not None
        below = synthesize_measurement_architecture(spec, max_secured_measurements=2)
        assert below.architecture is None

    @pytest.mark.parametrize(
        "state, budget, limit",
        [(None, 5, 3)] + [(state, 4, 5) for state in range(2, 15)],
    )
    def test_enumerated_architectures_all_minimal(self, state, budget, limit):
        goal = AttackGoal.any() if state is None else AttackGoal.states(state)
        spec = AttackSpec.default(ieee14(), goal=goal)
        architectures = enumerate_architectures(
            spec, SynthesisSettings(max_secured_buses=budget), limit=limit
        )
        for arch in architectures:
            for removed in arch:
                weakened = [b for b in arch if b != removed]
                check = verify_attack(spec.with_secured_buses(weakened))
                assert check.attack_exists
