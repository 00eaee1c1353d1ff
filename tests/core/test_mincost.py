"""Tests for minimum-cost attack analytics."""

import pytest

from repro.analysis.sweeps import spec_for_case
from repro.core.mincost import minimum_attack_cost, state_attack_costs
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import UfdiEncoder, VerificationSession, verify_attack
from repro.grid.cases import ieee14, load_case
from repro.grid.model import Grid, Line


def path_spec(n=4, target=None):
    grid = Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])
    goal = AttackGoal.states(target if target else n, exclusive=True)
    return AttackSpec.default(grid, goal=goal)


class TestMinimumCost:
    def test_path_end_state_costs_four(self):
        # attacking the far leaf of a path: line flows (2) + both
        # endpoint injections (2)
        result = minimum_attack_cost(path_spec(4))
        assert result.cost == 4
        assert len(result.attack.altered_measurements) == 4

    def test_cost_is_tight(self):
        # one below the reported cost must be infeasible
        spec = path_spec(4)
        result = minimum_attack_cost(spec)
        below = spec.with_limits(ResourceLimits(max_measurements=result.cost - 1))
        assert not verify_attack(below).attack_exists

    def test_bus_dimension(self):
        result = minimum_attack_cost(path_spec(4), dimension="buses")
        assert result.cost == 2  # measurements live at buses 3 and 4

    def test_leaf_is_cheapest_on_ieee14(self):
        costs = {}
        for bus in (8, 10):
            spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))
            costs[bus] = minimum_attack_cost(spec).cost
        # bus 8 is the only leaf: strictly cheaper than interior bus 10
        assert costs[8] < costs[10]
        assert costs[8] == 4

    def test_infeasible_goal_costs_none(self):
        grid = ieee14()
        from repro.estimation.measurement import MeasurementPlan
        from repro.estimation.observability import basic_measurement_set

        plan = MeasurementPlan(grid)
        protected = basic_measurement_set(plan)
        spec = AttackSpec(
            grid=grid,
            plan=plan.with_secured_measurements(protected),
            goal=AttackGoal.any(),
        )
        result = minimum_attack_cost(spec)
        assert result.cost is None
        assert result.attack is None

    def test_upper_bound_clamps(self):
        result = minimum_attack_cost(path_spec(4), upper_bound=10)
        assert result.cost == 4

    def test_upper_bound_below_minimum_is_infeasible(self):
        # regression: the cheapest attack on the path end costs 4; a cap
        # of 3 must come back infeasible rather than reporting cost 3
        result = minimum_attack_cost(path_spec(4), upper_bound=3)
        assert result.cost is None
        assert result.attack is None

    def test_upper_bound_exactly_at_minimum(self):
        result = minimum_attack_cost(path_spec(4), upper_bound=4)
        assert result.cost == 4
        assert len(result.attack.altered_measurements) == 4

    def test_upper_bound_below_minimum_bus_dimension(self):
        result = minimum_attack_cost(path_spec(4), dimension="buses", upper_bound=1)
        assert result.cost is None

    def test_probe_count_is_logarithmic(self):
        result = minimum_attack_cost(path_spec(6))
        assert result.probes <= 6

    def test_single_encode_for_whole_search(self, grid_encodes):
        # the whole binary search must run on one warm session encoding
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        result = minimum_attack_cost(spec)
        assert result.cost == 4
        assert grid_encodes() == 1
        assert result.probes >= 3

    def test_shared_session_across_searches(self, grid_encodes):
        from repro.core.verification import VerificationSession

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        first = minimum_attack_cost(spec, session=session)
        second = minimum_attack_cost(spec.with_goal(AttackGoal.states(10)), session=session)
        assert first.cost == 4
        assert second.cost is not None
        assert grid_encodes() == 1

    def test_incompatible_session_rejected(self):
        from repro.core.verification import VerificationSession

        session = VerificationSession(path_spec(5))
        with pytest.raises(ValueError, match="session"):
            minimum_attack_cost(path_spec(4), session=session)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            minimum_attack_cost(path_spec(4), dimension="watts")

    def test_other_dimension_limit_respected(self):
        # cheapest measurement attack while at most 2 buses may be touched
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(8),
            limits=ResourceLimits(max_buses=2),
        )
        result = minimum_attack_cost(spec)
        assert result.cost == 4
        assert len(result.attack.compromised_buses(spec.plan)) <= 2


class TestLargeGrid:
    def test_synthetic1000_leaf_bus_costs_two(self, grid_encodes):
        # a leaf's state is felt by one line, so the bus-dimension search
        # stays small at 1000 buses; its one session builds a bus counter
        # sized to the probed budget, not an O(n^2) totalizer
        grid = load_case("synthetic1000")
        target = min(bus for bus in grid.buses if len(grid.lines_at(bus)) == 1)
        spec = spec_for_case("synthetic1000", target_bus=target)
        session = VerificationSession(spec)
        result = minimum_attack_cost(spec, dimension="buses", session=session)
        assert (result.cost, result.probes) == (2, 2)
        assert grid_encodes() == 1
        cold_clauses = UfdiEncoder(spec).statistics()["clauses"]
        assert session.statistics()["clauses"] < 2 * cold_clauses


class TestStateCosts:
    def test_reference_excluded(self):
        spec = AttackSpec.default(ieee14())
        costs = state_attack_costs(path_spec(3).with_goal(AttackGoal()))
        assert 1 not in costs

    def test_all_states_costed_on_path(self):
        spec = path_spec(4).with_goal(AttackGoal())
        costs = state_attack_costs(spec)
        assert set(costs) == {2, 3, 4}
        assert all(isinstance(c, int) for c in costs.values())
        # the far leaf (4) is cheapest (smallest footprint)
        assert costs[4] == min(costs.values())

    def test_one_session_for_all_states(self, grid_encodes):
        from repro.core.verification import VerificationSession

        spec = path_spec(4).with_goal(AttackGoal())
        session = VerificationSession(spec)
        costs = state_attack_costs(spec, session=session)
        assert set(costs) == {2, 3, 4}
        assert grid_encodes() == 1
        assert session.probes >= len(costs)
