"""Tests for the security-architecture synthesis loop (Algorithm 1)."""

import pytest

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.synthesis import (
    SynthesisSettings,
    enumerate_architectures,
    synthesize_architecture,
    synthesize_measurement_architecture,
)
from repro.core.verification import verify_attack
from repro.estimation.measurement import MeasurementPlan
from repro.grid.cases import ieee14
from repro.grid.model import Grid, Line


def path_spec(n=4):
    grid = Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])
    return AttackSpec.default(grid, goal=AttackGoal.any())


class TestSettingsValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SynthesisSettings(max_secured_buses=-1)

    def test_unknown_blocking_rejected(self):
        with pytest.raises(ValueError, match="blocking"):
            SynthesisSettings(max_secured_buses=1, blocking="magic")


class TestBasicSynthesis:
    def test_path_grid_architecture(self):
        spec = path_spec(4)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=3))
        assert result.architecture is not None
        check = verify_attack(spec.with_secured_buses(result.architecture))
        assert not check.attack_exists

    def test_budget_zero_fails_when_attacks_exist(self):
        spec = path_spec(4)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=0))
        assert result.architecture is None

    def test_trivially_secure_model_yields_empty_architecture(self):
        # an attacker with a 0-measurement budget can do nothing
        grid = ieee14()
        spec = AttackSpec.default(
            grid,
            goal=AttackGoal.any(),
            limits=ResourceLimits(max_measurements=0),
        )
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=3))
        assert result.architecture == []

    def test_iterations_counted(self):
        spec = path_spec(4)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=3))
        assert result.iterations >= 1
        assert result.runtime_seconds > 0

    def test_counterexamples_collected(self):
        spec = path_spec(4)
        result = synthesize_architecture(
            spec,
            SynthesisSettings(max_secured_buses=3),
            collect_counterexamples=True,
        )
        assert len(result.counterexamples) == result.iterations - 1


class TestBlockingModes:
    @pytest.mark.parametrize("blocking", ["counterexample", "subset", "exact"])
    def test_all_modes_agree_on_feasibility(self, blocking):
        spec = path_spec(4)
        result = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=3, blocking=blocking)
        )
        assert result.architecture is not None
        check = verify_attack(spec.with_secured_buses(result.architecture))
        assert not check.attack_exists

    @pytest.mark.parametrize("blocking", ["counterexample", "subset"])
    def test_infeasibility_detected(self, blocking):
        spec = path_spec(4)
        result = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=0, blocking=blocking)
        )
        assert result.architecture is None

    def test_counterexample_mode_converges_fast(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        fast = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=5, blocking="counterexample")
        )
        assert fast.architecture is not None
        assert fast.iterations < 100


class TestConstraints:
    def test_excluded_buses_respected(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        settings = SynthesisSettings(
            max_secured_buses=6, excluded_buses=frozenset({2, 6})
        )
        result = synthesize_architecture(spec, settings)
        assert result.architecture is not None
        assert not set(result.architecture) & {2, 6}

    def test_unknown_excluded_bus_rejected(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        settings = SynthesisSettings(max_secured_buses=3, excluded_buses=frozenset({99}))
        with pytest.raises(ValueError, match=r"excluded buses \[99\]"):
            synthesize_architecture(spec, settings)

    @pytest.mark.parametrize("limit", [0, -1, "10", 2.5, True])
    def test_max_iterations_must_be_a_positive_int(self, limit):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            SynthesisSettings(max_secured_buses=3, max_iterations=limit)

    def test_budget_respected(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=5))
        assert len(result.architecture) <= 5

    def test_neighbor_pruning_excludes_adjacent_pairs(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=6, neighbor_pruning=True)
        )
        arch = result.architecture
        assert arch is not None
        neighbors = {
            (line.from_bus, line.to_bus) for line in spec.grid.lines
        }
        for a in arch:
            for b in arch:
                assert (a, b) not in neighbors

    def test_pruning_off_still_works(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=6, neighbor_pruning=False)
        )
        assert result.architecture is not None


class TestEnumeration:
    def test_enumerated_architectures_all_work(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        architectures = enumerate_architectures(
            spec, SynthesisSettings(max_secured_buses=5), limit=3
        )
        assert architectures
        for arch in architectures:
            check = verify_attack(spec.with_secured_buses(arch))
            assert not check.attack_exists

    @pytest.mark.parametrize(
        "state, budget, limit",
        [(None, 5, 4)] + [(state, 4, 5) for state in range(2, 15)],
    )
    def test_enumeration_is_an_antichain(self, state, budget, limit):
        goal = AttackGoal.any() if state is None else AttackGoal.states(state)
        spec = AttackSpec.default(ieee14(), goal=goal)
        architectures = enumerate_architectures(
            spec, SynthesisSettings(max_secured_buses=budget), limit=limit
        )
        for i, a in enumerate(architectures):
            for j, b in enumerate(architectures):
                if i != j:
                    assert not set(a) <= set(b)

    def test_limit_respected(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        architectures = enumerate_architectures(
            spec, SynthesisSettings(max_secured_buses=5), limit=2
        )
        assert len(architectures) <= 2


class TestMeasurementLevelSynthesis:
    def test_measurement_architecture_works(self):
        spec = path_spec(4)
        result = synthesize_measurement_architecture(spec, max_secured_measurements=6)
        assert result.architecture is not None
        check = verify_attack(
            spec.with_secured_measurements(result.architecture)
        )
        assert not check.attack_exists

    def test_insufficient_measurement_budget(self):
        spec = path_spec(4)
        result = synthesize_measurement_architecture(spec, max_secured_measurements=1)
        assert result.architecture is None

    def test_ieee14_measurement_architecture(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_measurement_architecture(spec, max_secured_measurements=13)
        assert result.architecture is not None
        assert len(result.architecture) <= 13


class TestCoreMinimization:
    def test_minimized_never_larger_and_still_blocks(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=6))
        assert result.feasible
        assert result.uncored_architecture is not None
        assert len(result.architecture) <= len(result.uncored_architecture)
        assert set(result.architecture) <= set(result.uncored_architecture)
        check = verify_attack(spec.with_secured_buses(result.architecture))
        assert not check.attack_exists

    def test_strictly_smaller_on_ieee14(self):
        # with a generous budget the selector over-provisions; the UNSAT
        # core must strip at least one unused bus on this instance
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(3))
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=4))
        assert result.feasible
        assert len(result.architecture) < len(result.uncored_architecture)

    def test_disabled_flag_returns_raw_candidate(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        cored = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=6))
        raw = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=6, core_minimize=False)
        )
        assert raw.uncored_architecture is None
        # the selection loop is unchanged: the raw candidate is the same
        assert raw.architecture == cored.uncored_architecture

    def test_enumeration_results_stay_valid_with_cores(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        cored = enumerate_architectures(
            spec, SynthesisSettings(max_secured_buses=5), limit=3
        )
        assert cored
        for arch in cored:
            assert not verify_attack(spec.with_secured_buses(arch)).attack_exists
        # still an antichain after core-sharpened blocking
        for i, a in enumerate(cored):
            for j, b in enumerate(cored):
                if i != j:
                    assert not set(a) <= set(b)

    def test_measurement_synthesis_minimized_still_blocks(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        result = synthesize_measurement_architecture(spec, max_secured_measurements=13)
        assert result.feasible
        assert result.uncored_architecture is not None
        assert len(result.architecture) <= len(result.uncored_architecture)
        check = verify_attack(spec.with_secured_measurements(result.architecture))
        assert not check.attack_exists

    def test_infeasible_has_no_uncored(self):
        spec = path_spec(4)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=0))
        assert result.architecture is None
        assert result.uncored_architecture is None
