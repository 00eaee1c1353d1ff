"""Tests for the security metrics module."""

from pathlib import Path

import pytest

from repro.analysis.security_metrics import bus_criticality, security_metrics
from repro.core.io import load_spec_file
from repro.core.mincost import state_attack_costs
from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.grid.model import Grid, Line

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


def path_spec(n=4):
    grid = Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])
    return AttackSpec.default(grid, goal=AttackGoal.any())


class TestSecurityMetrics:
    def test_path_grid_report(self):
        report = security_metrics(path_spec(4))
        assert set(report.state_costs) == {2, 3, 4}
        # non-exclusive goals admit island shifts: cutting the grid at
        # line 1 moves every state beyond it for the same 4 injections,
        # so all three states tie at the minimum
        assert report.state_costs == {2: 4, 3: 4, 4: 4}
        assert report.weakest_states == [2, 3, 4]
        assert report.grid_attack_cost == 4

    def test_exposure_counts(self):
        report = security_metrics(path_spec(3))
        # every minimal attack uses some measurement at least once
        assert report.measurement_exposure
        assert all(v >= 1 for v in report.measurement_exposure.values())

    def test_ieee14_leaf_is_weakest(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        report = security_metrics(spec)
        assert report.weakest_states == [8]  # the only leaf bus
        assert report.state_costs[8] == 4

    def test_immune_grid(self):
        from repro.estimation.measurement import MeasurementPlan
        from repro.estimation.observability import basic_measurement_set

        grid = ieee14()
        plan = MeasurementPlan(grid)
        protected = basic_measurement_set(plan)
        spec = AttackSpec(
            grid=grid,
            plan=plan.with_secured_measurements(protected),
            goal=AttackGoal.any(),
        )
        report = security_metrics(spec)
        assert all(c is None for c in report.state_costs.values())
        assert report.grid_attack_cost is None
        assert report.weakest_states == []

    def test_spec_with_distinct_pairs(self):
        # objective1's goal carries a distinct pair; the per-state
        # searches drop it, as the runtime=RuntimeOptions() path does
        spec = load_spec_file(SPEC_DIR / "objective1.spec")
        assert spec.goal.distinct_pairs
        expected = {bus: None for bus in spec.grid.buses if bus != spec.reference_bus}
        expected.update({7: 14, 8: 3, 9: 14, 10: 7, 11: 7, 13: 8, 14: 14})
        assert state_attack_costs(spec) == expected
        assert security_metrics(spec).state_costs == expected

    def test_each_state_searched_once(self, monkeypatch):
        import repro.core.mincost as mincost

        real = mincost.search_min_cost
        searched = []

        def counting(probe, cost_of, upper_bound=None):
            searched.append(probe)
            return real(probe, cost_of, upper_bound)

        monkeypatch.setattr(mincost, "search_min_cost", counting)
        report = security_metrics(path_spec(4))
        # one search per state gives both its cost and its witness
        assert len(searched) == len(report.state_costs) == 3
        assert report.measurement_exposure


class TestBusCriticality:
    def test_securing_raises_cost(self):
        spec = path_spec(4)
        base = security_metrics(spec).grid_attack_cost
        crit = bus_criticality(spec, buses=[3, 4])
        for bus, new_cost in crit.items():
            assert new_cost is None or new_cost >= base

    def test_leaf_neighbor_matters_on_ieee14(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        crit = bus_criticality(spec, buses=[7, 8])
        # securing bus 7 or 8 blocks the cheapest (bus-8) attack, so the
        # grid cost rises above 4 either way
        for new_cost in crit.values():
            assert new_cost is None or new_cost > 4

    def test_symbolic_path_matches_plan_modification(self):
        # the default path secures buses by assumption on one symbolic
        # session; it must agree with re-encoding a modified plan
        from repro.core.mincost import minimum_attack_cost

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        buses = [2, 5, 8]
        symbolic = bus_criticality(spec, buses=buses)
        for bus in buses:
            modified = spec.with_secured_buses([bus])
            assert symbolic[bus] == minimum_attack_cost(modified).cost
