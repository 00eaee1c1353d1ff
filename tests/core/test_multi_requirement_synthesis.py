"""Tests for synthesis against a list of security requirements."""

import pytest

from repro.core.casestudy import paper_line_attrs, paper_plan
from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.core.synthesis import (
    SynthesisSettings,
    synthesize_against_all,
    synthesize_architecture,
)
from repro.core.verification import verify_attack
from repro.grid.cases import ieee14
from repro.grid.model import Grid, Line


def path_grid(n=4):
    return Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])


class TestMultiRequirement:
    def test_single_spec_matches_plain_synthesis(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        settings = SynthesisSettings(max_secured_buses=4)
        multi = synthesize_against_all([spec], settings)
        single = synthesize_architecture(spec, settings)
        assert (multi.architecture is None) == (single.architecture is None)
        if multi.architecture is not None:
            check = verify_attack(spec.with_secured_buses(multi.architecture))
            assert not check.attack_exists

    def test_architecture_blocks_every_requirement(self):
        grid = ieee14()
        base = AttackSpec.default(grid)
        requirements = [
            base.with_goal(AttackGoal.states(10)),
            base.with_goal(AttackGoal.states(12, exclusive=True)),
            base.with_goal(AttackGoal.states(8)),
        ]
        result = synthesize_against_all(
            requirements, SynthesisSettings(max_secured_buses=5)
        )
        assert result.architecture is not None
        for spec in requirements:
            check = verify_attack(spec.with_secured_buses(result.architecture))
            assert not check.attack_exists

    def test_joint_requirement_can_cost_more_than_each(self):
        grid = path_grid(5)
        base = AttackSpec.default(grid)
        left = base.with_goal(AttackGoal.states(2, exclusive=True))
        right = base.with_goal(AttackGoal.states(5, exclusive=True))

        def minimum(specs):
            for budget in range(0, 6):
                result = synthesize_against_all(
                    specs, SynthesisSettings(max_secured_buses=budget)
                )
                if result.architecture is not None:
                    return len(result.architecture)
            return None

        joint = minimum([left, right])
        assert joint is not None
        assert joint >= max(minimum([left]), minimum([right]))

    def test_mixed_capabilities(self):
        grid = ieee14()
        plan = paper_plan(grid)
        weak = AttackSpec(
            grid=grid,
            plan=plan,
            line_attrs=paper_line_attrs(),
            goal=AttackGoal.any(),
            limits=ResourceLimits(max_measurements=10),
        )
        topo = AttackSpec(
            grid=grid,
            plan=plan,
            line_attrs=paper_line_attrs(),
            goal=AttackGoal.any(),
            allow_topology_attack=True,
        )
        result = synthesize_against_all(
            [weak, topo], SynthesisSettings(max_secured_buses=5)
        )
        assert result.architecture is not None
        for spec in (weak, topo):
            check = verify_attack(spec.with_secured_buses(result.architecture))
            assert not check.attack_exists

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            synthesize_against_all([], SynthesisSettings(max_secured_buses=1))

    def test_infeasible_joint_requirement(self):
        grid = path_grid(4)
        base = AttackSpec.default(grid)
        specs = [base.with_goal(AttackGoal.any())]
        result = synthesize_against_all(
            specs, SynthesisSettings(max_secured_buses=0)
        )
        assert result.architecture is None


class TestInputValidation:
    def test_mismatched_grids_rejected(self):
        a = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        b = AttackSpec.default(path_grid(4), goal=AttackGoal.any())
        with pytest.raises(ValueError, match="share"):
            synthesize_against_all([a, b], SynthesisSettings(max_secured_buses=2))

    def test_mismatched_measurement_plans_rejected(self):
        grid = ieee14()
        full = AttackSpec.default(grid, goal=AttackGoal.any())
        thinned = full.with_plan(paper_plan(grid, secured=set(), inaccessible=set()))
        assert full.plan.taken != thinned.plan.taken
        with pytest.raises(ValueError, match="share"):
            synthesize_against_all(
                [full, thinned], SynthesisSettings(max_secured_buses=2)
            )

    def test_mismatched_line_admittances_rejected(self):
        grid = ieee14()
        lines = [
            Line(l.index, l.from_bus, l.to_bus, l.admittance * (2.0 if l.index == 1 else 1.0))
            for l in grid.lines
        ]
        retuned = Grid(grid.num_buses, lines, name=grid.name)
        a = AttackSpec.default(grid, goal=AttackGoal.any())
        b = AttackSpec.default(retuned, goal=AttackGoal.any())
        with pytest.raises(ValueError, match="share"):
            synthesize_against_all([a, b], SynthesisSettings(max_secured_buses=2))


class TestUnionOfCores:
    def test_union_core_blocks_every_spec(self):
        base = AttackSpec.default(ieee14())
        requirements = [
            base.with_goal(AttackGoal.states(5)),
            base.with_goal(AttackGoal.states(8)),
            base.with_goal(AttackGoal.states(10)),
        ]
        result = synthesize_against_all(
            requirements, SynthesisSettings(max_secured_buses=6)
        )
        assert result.feasible
        assert result.uncored_architecture is not None
        assert set(result.architecture) <= set(result.uncored_architecture)
        for spec in requirements:
            check = verify_attack(spec.with_secured_buses(result.architecture))
            assert not check.attack_exists

    def test_core_minimize_off_keeps_raw_candidate(self):
        base = AttackSpec.default(ieee14())
        requirements = [base.with_goal(AttackGoal.states(8))]
        raw = synthesize_against_all(
            requirements,
            SynthesisSettings(max_secured_buses=6, core_minimize=False),
        )
        assert raw.feasible
        assert raw.uncored_architecture is None
