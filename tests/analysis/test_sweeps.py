"""Tests for the shared sweep configurations."""

import pytest

from repro.analysis.sweeps import default_targets, measurement_subset, spec_for_case
from repro.core.verification import verify_attack
from repro.estimation.measurement import MeasurementPlan
from repro.estimation.observability import analyze_observability
from repro.grid.cases import ieee14, ieee30, load_case


class TestDefaultTargets:
    def test_count_and_range(self):
        grid = ieee30()
        targets = default_targets(grid, 3)
        assert len(targets) == 3
        assert all(2 <= t <= 30 for t in targets)

    def test_deterministic(self):
        grid = ieee14()
        assert default_targets(grid) == default_targets(grid)

    def test_no_duplicates(self):
        for name in ("ieee14", "ieee30", "ieee57"):
            targets = default_targets(load_case(name), 3)
            assert len(set(targets)) == 3


class TestMeasurementSubset:
    def test_fraction_respected(self):
        grid = ieee30()
        taken = measurement_subset(grid, 0.7)
        assert len(taken) == pytest.approx(0.7 * 112, abs=1)

    def test_always_observable(self):
        grid = ieee30()
        for fraction in (0.5, 0.6, 0.8, 1.0):
            taken = measurement_subset(grid, fraction, seed=3)
            plan = MeasurementPlan(grid, taken=set(taken))
            assert analyze_observability(plan).observable

    def test_deterministic_per_seed(self):
        grid = ieee14()
        assert measurement_subset(grid, 0.6, seed=1) == measurement_subset(
            grid, 0.6, seed=1
        )

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            measurement_subset(ieee14(), 0.0)
        with pytest.raises(ValueError):
            measurement_subset(ieee14(), 1.5)

    def test_includes_all_injections(self):
        grid = ieee14()
        taken = measurement_subset(grid, 0.5)
        assert set(range(41, 55)) <= taken


class TestSpecForCase:
    def test_defaults(self):
        spec = spec_for_case("ieee14")
        assert spec.grid.num_buses == 14
        assert spec.goal.target_states  # a default target was chosen

    def test_explicit_target(self):
        spec = spec_for_case("ieee14", target_bus=9)
        assert spec.goal.target_states == frozenset({9})

    def test_any_state(self):
        spec = spec_for_case("ieee14", any_state=True)
        assert spec.goal.any_state

    def test_limits_passed_through(self):
        spec = spec_for_case("ieee14", max_measurements=7, max_buses=3)
        assert spec.limits.max_measurements == 7
        assert spec.limits.max_buses == 3

    def test_sweep_instances_are_verifiable(self):
        spec = spec_for_case("ieee14", measurement_fraction=0.7)
        assert verify_attack(spec).attack_exists


class TestBudgetSweep:
    def test_matches_cold_solves_with_one_encode(self, grid_encodes):
        from repro.analysis.sweeps import budget_sweep
        from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        budgets = [None, 1, 2, 3, 4, 6]
        rows = budget_sweep(spec, budgets)
        assert grid_encodes() == 1
        assert [b for b, _ in rows] == budgets
        for budget, result in rows:
            cold = verify_attack(
                spec.with_limits(ResourceLimits(max_measurements=budget))
            )
            assert result.outcome == cold.outcome

    def test_bus_dimension_and_shared_session(self, grid_encodes):
        from repro.analysis.sweeps import budget_sweep
        from repro.core.spec import AttackGoal, AttackSpec
        from repro.core.verification import VerificationSession

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        budget_sweep(spec, [1, 2, 3], dimension="buses", session=session)
        budget_sweep(spec, [None, 4], session=session)
        assert grid_encodes() == 1
        assert session.probes == 5

    def test_invalid_dimension(self):
        from repro.analysis.sweeps import budget_sweep
        from repro.core.spec import AttackGoal, AttackSpec

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        with pytest.raises(ValueError, match="dimension"):
            budget_sweep(spec, [1], dimension="watts")


class TestVerificationSweepSessions:
    def test_serial_sweep_encodes_each_case_once(self, grid_encodes):
        from repro.analysis.sweeps import verification_sweep

        rows = verification_sweep(["ieee14"], targets_per_case=3)
        assert len(rows) == 3
        assert grid_encodes() == 1
        # all three targets were probed on the same session
        assert rows[-1][2].statistics["session_probes"] == 3
