"""Systematic semantics matrix for the verification model.

A 5-bus path grid (1-2-3-4-5, every potential measurement taken) where
each attack attribute's effect is hand-computable.  Attacking the far
leaf state 5 *exclusively* requires altering exactly line 4's two flow
measurements and the two endpoint injections: measurements {4, 8, 12, 13}
residing at buses {4, 5}.  The matrix crosses knowledge, access,
security, resource limits and topology capability against that known
footprint.
"""

import itertools

import pytest

from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.core.verification import verify_attack
from repro.estimation.measurement import MeasurementPlan
from repro.grid.model import Grid, Line
from repro.milp.backend import verify_milp

# path grid: l = 4 lines, b = 5 buses, m = 13 potential measurements
#   forward flows 1-4, backward flows 5-8, injections 9-13
GRID = Grid(5, [Line(i, i, i + 1, 2.0) for i in range(1, 5)])
FOOTPRINT = {4, 8, 12, 13}  # line 4 fwd, line 4 bwd, bus 4 inj, bus 5 inj
GOAL = AttackGoal.states(5, exclusive=True)


def make_spec(**kwargs):
    plan = kwargs.pop("plan", None) or MeasurementPlan(GRID)
    return AttackSpec(grid=GRID, plan=plan, goal=GOAL, **kwargs)


class TestBaselineFootprint:
    def test_footprint_is_exact(self):
        result = verify_attack(make_spec())
        assert result.attack_exists
        assert set(result.attack.altered_measurements) == FOOTPRINT
        assert result.attack.compromised_buses(MeasurementPlan(GRID)) == [4, 5]


class TestSingleAttributeEffects:
    @pytest.mark.parametrize("blocked", sorted(FOOTPRINT))
    def test_any_secured_footprint_measurement_blocks(self, blocked):
        plan = MeasurementPlan(GRID, secured={blocked})
        assert not verify_attack(make_spec(plan=plan)).attack_exists

    @pytest.mark.parametrize("blocked", sorted(FOOTPRINT))
    def test_any_inaccessible_footprint_measurement_blocks(self, blocked):
        plan = MeasurementPlan(GRID, inaccessible={blocked})
        assert not verify_attack(make_spec(plan=plan)).attack_exists

    @pytest.mark.parametrize("irrelevant", [1, 2, 5, 6, 9, 10, 11])
    def test_protection_outside_footprint_is_harmless(self, irrelevant):
        plan = MeasurementPlan(GRID, secured={irrelevant})
        assert verify_attack(make_spec(plan=plan)).attack_exists

    def test_untaken_footprint_measurement_shrinks_footprint(self):
        plan = MeasurementPlan(GRID, taken=set(range(1, 14)) - {4})
        result = verify_attack(make_spec(plan=plan))
        assert result.attack_exists
        assert set(result.attack.altered_measurements) == FOOTPRINT - {4}

    def test_unknown_admittance_of_line_4_blocks(self):
        spec = make_spec(line_attrs={4: LineAttributes(knows_admittance=False)})
        assert not verify_attack(spec).attack_exists

    def test_unknown_admittance_elsewhere_is_harmless(self):
        spec = make_spec(
            line_attrs={
                1: LineAttributes(knows_admittance=False),
                2: LineAttributes(knows_admittance=False),
            }
        )
        assert verify_attack(spec).attack_exists

    @pytest.mark.parametrize(
        "tcz,expected", [(3, False), (4, True), (13, True)]
    )
    def test_measurement_budget_boundary(self, tcz, expected):
        spec = make_spec(limits=ResourceLimits(max_measurements=tcz))
        assert verify_attack(spec).attack_exists is expected

    @pytest.mark.parametrize("tcb,expected", [(1, False), (2, True)])
    def test_bus_budget_boundary(self, tcb, expected):
        spec = make_spec(limits=ResourceLimits(max_buses=tcb))
        assert verify_attack(spec).attack_exists is expected


class TestAttributeInteractions:
    def test_secured_plus_topology_attack_reroutes(self):
        # securing meas 4 blocks the plain attack; allowing exclusion of
        # line 4 cannot help (its flow must then read zero: same meters),
        # but excluding line 3 re-routes the consistency obligations
        plan = MeasurementPlan(GRID, secured={4})
        attrs = {i: LineAttributes(fixed=i != 3) for i in range(1, 5)}
        blocked = make_spec(plan=plan, line_attrs=attrs)
        assert not verify_attack(blocked).attack_exists
        spec = make_spec(plan=plan, line_attrs=attrs, allow_topology_attack=True)
        result = verify_attack(spec)
        if result.attack_exists:  # exclusion of line 3 islands buses 4-5
            assert result.attack.excluded_lines == frozenset({3})

    def test_budget_and_knowledge_compose(self):
        # enough budget but no knowledge -> unsat; knowledge but no
        # budget -> unsat; both -> sat
        attrs_bad = {4: LineAttributes(knows_admittance=False)}
        assert not verify_attack(
            make_spec(line_attrs=attrs_bad, limits=ResourceLimits(max_measurements=4))
        ).attack_exists
        assert not verify_attack(
            make_spec(limits=ResourceLimits(max_measurements=3))
        ).attack_exists
        assert verify_attack(
            make_spec(limits=ResourceLimits(max_measurements=4))
        ).attack_exists

    @pytest.mark.parametrize(
        "secured,inaccessible",
        list(itertools.combinations(sorted(FOOTPRINT), 2)),
    )
    def test_double_protection_still_blocks(self, secured, inaccessible):
        plan = MeasurementPlan(GRID, secured={secured}, inaccessible={inaccessible})
        assert not verify_attack(make_spec(plan=plan)).attack_exists

    def test_all_footprint_untaken_means_free_attack(self):
        plan = MeasurementPlan(GRID, taken=set(range(1, 14)) - FOOTPRINT)
        result = verify_attack(make_spec(plan=plan))
        assert result.attack_exists
        assert result.attack.altered_measurements == []

    def test_non_exclusive_goal_opens_island_shift(self):
        # without exclusivity, cutting at line 1 moves states {2..5}
        # together: footprint {1, 5, 9, 10} also works, so a tighter
        # 2-bus budget at buses {1, 2} becomes available
        spec = AttackSpec(
            grid=GRID,
            plan=MeasurementPlan(GRID),
            goal=AttackGoal.states(5),
            limits=ResourceLimits(max_buses=2),
        )
        result = verify_attack(spec)
        assert result.attack_exists


class TestBackendsAgreeOnMatrix:
    @pytest.mark.parametrize("blocked", sorted(FOOTPRINT))
    def test_milp_agrees_on_blocked_cases(self, blocked):
        plan = MeasurementPlan(GRID, secured={blocked})
        spec = make_spec(plan=plan)
        assert not verify_milp(spec).attack_exists

    def test_milp_agrees_on_baseline(self):
        result = verify_milp(make_spec())
        assert result.attack_exists
        assert set(result.attack.altered_measurements) == FOOTPRINT
