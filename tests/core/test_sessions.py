"""Tests for encode-once/probe-many verification sessions."""

import pytest

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import (
    UfdiEncoder,
    VerificationSession,
    verify_attack,
)
from repro.grid.cases import ieee14
from repro.grid.model import Grid, Line


def path_grid(n=4):
    return Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])


class TestSessionAgreement:
    def test_budget_probes_match_cold_solves(self, grid_encodes):
        spec = AttackSpec.default(path_grid(4), goal=AttackGoal.states(4))
        session = VerificationSession(spec)
        for k in (None, 0, 1, 2, 3, 4, 5, 10):
            cold = verify_attack(spec.with_limits(ResourceLimits(max_measurements=k)))
            warm = session.probe(max_measurements=k)
            assert warm.outcome == cold.outcome, k
        assert grid_encodes() == 1 + 8  # the session's, and one per cold solve
        assert session.probes == 8

    def test_bus_budget_probes(self):
        spec = AttackSpec.default(path_grid(4), goal=AttackGoal.states(4))
        session = VerificationSession(spec)
        for k in (None, 0, 1, 2, 3):
            cold = verify_attack(spec.with_limits(ResourceLimits(max_buses=k)))
            assert session.probe(max_buses=k).outcome == cold.outcome, k

    def test_goal_probes_match_cold_solves(self, grid_encodes):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        goals = [
            AttackGoal.states(5),
            AttackGoal.states(10),
            AttackGoal.any(),
            AttackGoal.states(8, exclusive=True),
            AttackGoal(),  # no requirement: trivially SAT
        ]
        for goal in goals:
            cold = verify_attack(spec.with_goal(goal))
            assert session.probe(goal=goal).outcome == cold.outcome, goal
        assert grid_encodes() == 1 + len(goals)

    def test_probe_spec_uses_spec_limits_and_goal(self):
        base = AttackSpec.default(path_grid(4), goal=AttackGoal.states(4))
        session = VerificationSession(base)
        tight = base.with_limits(ResourceLimits(max_measurements=1))
        assert not session.probe_spec(tight).attack_exists
        loose = base.with_limits(ResourceLimits(max_measurements=6))
        assert session.probe_spec(loose).attack_exists

    def test_sat_probe_extracts_valid_attack(self):
        spec = AttackSpec.default(path_grid(4), goal=AttackGoal.states(4, exclusive=True))
        session = VerificationSession(spec)
        result = session.probe()
        assert result.attack_exists
        # same witness-footprint property as the cold path
        assert result.attack.altered_measurements == [3, 6, 9, 10]

    def test_statistics_carry_session_counters(self, grid_encodes):
        spec = AttackSpec.default(path_grid(3), goal=AttackGoal.states(3))
        session = VerificationSession(spec)
        session.probe(max_measurements=0)
        session.probe()
        stats = session.statistics()
        assert grid_encodes() == 1
        assert stats["session_probes"] == 2
        assert stats["session_unsat_probes"] == 1


class TestSessionFamilies:
    def test_compatible_ignores_limits_and_goal_targets(self):
        base = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(base)
        other = base.with_limits(ResourceLimits(max_measurements=3)).with_goal(
            AttackGoal.any()
        )
        assert session.compatible(other)

    def test_incompatible_grid_rejected(self):
        session = VerificationSession(
            AttackSpec.default(path_grid(4), goal=AttackGoal.any())
        )
        other = AttackSpec.default(path_grid(5), goal=AttackGoal.any())
        assert not session.compatible(other)
        with pytest.raises(ValueError, match="family"):
            session.probe_spec(other)

    def test_incompatible_plan_rejected(self):
        base = AttackSpec.default(ieee14(), goal=AttackGoal.any())
        session = VerificationSession(base)
        assert not session.compatible(base.with_secured_buses([5]))

    def test_distinct_pairs_must_match_statically(self):
        base = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(base)
        probing = AttackGoal(
            target_states=frozenset({8}), distinct_pairs=((8, 9),)
        )
        with pytest.raises(ValueError, match="distinct"):
            session.probe(goal=probing)


    @pytest.mark.parametrize(
        "bus, reason", [(1, "reference bus"), (99, "target state 99 out of range")]
    )
    def test_goal_override_is_checked_like_a_spec_goal(self, bus, reason):
        session = VerificationSession(AttackSpec.default(ieee14(), goal=AttackGoal.states(5)))
        with pytest.raises(ValueError, match=reason):
            session.probe(goal=AttackGoal.states(bus))
        with pytest.raises(ValueError, match=reason):
            session.spec.with_goal(AttackGoal.states(bus))


class TestEncoderModes:
    def test_budget_override_requires_symbolic_mode(self):
        spec = AttackSpec.default(path_grid(3), goal=AttackGoal.states(3))
        encoder = UfdiEncoder(spec)
        with pytest.raises(RuntimeError, match="symbolic_budgets"):
            encoder.check(max_measurements=2)

    def test_goal_override_requires_symbolic_mode(self):
        spec = AttackSpec.default(path_grid(3), goal=AttackGoal.states(3))
        encoder = UfdiEncoder(spec)
        with pytest.raises(RuntimeError, match="symbolic_goal"):
            encoder.check(goal=AttackGoal.any())

    def test_symbolic_budget_encoder_honours_spec_limits_by_default(self):
        spec = AttackSpec.default(
            path_grid(4),
            goal=AttackGoal.states(4),
            limits=ResourceLimits(max_measurements=1),
        )
        from repro.smt import Result

        encoder = UfdiEncoder(spec, symbolic_budgets=True)
        assert encoder.check() is Result.UNSAT
        assert encoder.check(max_measurements=None) is Result.SAT

    def test_core_uses_budget_distinguishes_structural_unsat(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        # budget-caused UNSAT
        assert not session.probe(max_measurements=1).attack_exists
        assert session.core_uses_budget()
        # structurally trivially SAT probe leaves no core claim
        assert session.probe().attack_exists

    def test_core_secured_buses_subset_of_assumed(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec, symbolic_security=True)
        secured = [4, 7, 9, 2, 5]
        result = session.probe(secured_buses=secured, max_measurements=4)
        if not result.attack_exists:
            core = session.core_secured_buses()
            assert set(core) <= set(secured)


class TestSizedBudgetCounters:
    def test_no_counter_until_a_probe_binds_a_budget(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        counters = session.encoder.budget_counters
        assert counters == {"cz": None, "cb": None}
        session.probe()  # unlimited
        session.probe(max_measurements=len(session.encoder.cz))  # cannot bind
        assert counters == {"cz": None, "cb": None}
        assert not session.probe(max_measurements=1).attack_exists
        assert counters["cz"].cap == 4  # 2 * (1 + 1)
        assert counters["cb"] is None

    def test_bus_dimension_search_builds_no_measurement_counter(
        self, grid_encodes
    ):
        from repro.core.mincost import minimum_attack_cost

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        result = minimum_attack_cost(spec, dimension="buses", session=session)
        assert result.cost is not None and grid_encodes() == 1
        assert session.encoder.budget_counters["cz"] is None
        assert session.encoder.budget_counters["cb"] is not None

    def test_probe_past_the_cap_builds_a_new_counter(self, grid_encodes):
        # state 8 of ieee14 needs 4 measurements: a counter built at
        # budget 0 (cap 2) cannot express budget 3, so a larger one
        # replaces it, and the UNSAT core on its selector still counts
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        counters = session.encoder.budget_counters
        assert not session.probe(max_measurements=0).attack_exists
        assert counters["cz"].cap == 2
        assert not session.probe(max_measurements=3).attack_exists
        counter = counters["cz"]
        assert counter.cap == 8
        assert counter.at_most(3) in session.encoder.solver.unsat_core()
        assert session.core_uses_budget()
        # budgets under the old cap now use the larger counter too
        assert not session.probe(max_measurements=1).attack_exists
        assert counters["cz"] is counter
        assert session.probe(max_measurements=4).attack_exists
        assert grid_encodes() == 1

    @pytest.mark.parametrize("budget", ["max_measurements", "max_buses"])
    def test_negative_budget_is_rejected(self, budget):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(8))
        session = VerificationSession(spec)
        with pytest.raises(ValueError, match="nonnegative"):
            session.probe(**{budget: -1})
        assert session.encoder.budget_counters == {"cz": None, "cb": None}
