"""The paper's Section III-I / IV-E case studies as regression tests.

These pin the published results; the benchmark variants in
``benchmarks/bench_casestudy_*.py`` time the same runs.
"""

import pytest

from repro.core.casestudy import (
    INACCESSIBLE_MEASUREMENTS,
    NON_CORE_LINES,
    SECURED_MEASUREMENTS,
    UNKNOWN_ADMITTANCE_LINES,
    UNTAKEN_MEASUREMENTS,
    attack_objective_1,
    attack_objective_2,
    paper_line_attrs,
    paper_plan,
    synthesis_scenario,
)
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.core.verification import verify_attack
from repro.milp.backend import verify_milp


class TestConfiguration:
    def test_plan_counts(self):
        plan = paper_plan()
        assert plan.num_potential == 54
        assert len(plan.taken) == 44
        assert plan.taken.isdisjoint(UNTAKEN_MEASUREMENTS)

    def test_secured_set(self):
        plan = paper_plan()
        assert plan.secured == set(SECURED_MEASUREMENTS)

    def test_line_attrs(self):
        attrs = paper_line_attrs()
        for i in UNKNOWN_ADMITTANCE_LINES:
            assert not attrs[i].knows_admittance
        for i in NON_CORE_LINES:
            assert not attrs[i].fixed
        assert attrs[1].fixed

    def test_scenario_numbers(self):
        with pytest.raises(ValueError):
            synthesis_scenario(4)


class TestObjective1:
    """Published: SAT at 16/7 on buses {4,7,9,10,11,13,14}; UNSAT at
    15 measurements or 6 buses; equal-change SAT at 15/6 with the exact
    published vector."""

    def test_sat_at_16_7(self):
        spec = attack_objective_1(16, 7, distinct=True)
        result = verify_attack(spec)
        assert result.attack_exists
        assert result.attack.compromised_buses(spec.plan) == [4, 7, 9, 10, 11, 13, 14]

    def test_unsat_at_15_measurements(self):
        assert not verify_attack(attack_objective_1(15, 7, True)).attack_exists

    def test_unsat_at_6_buses(self):
        assert not verify_attack(attack_objective_1(16, 6, True)).attack_exists

    def test_equal_change_matches_paper_exactly(self):
        spec = attack_objective_1(15, 6, distinct=False)
        result = verify_attack(spec)
        assert result.attack.altered_measurements == [
            8, 9, 11, 13, 28, 29, 31, 33, 39, 44, 46, 47, 49, 51, 53,
        ]
        assert result.attack.compromised_buses(spec.plan) == [4, 6, 7, 9, 11, 13]

    def test_states_9_10_among_attacked(self):
        result = verify_attack(attack_objective_1(16, 7, True))
        assert {9, 10} <= set(result.attack.attacked_states)

    def test_distinct_changes_differ(self):
        result = verify_attack(attack_objective_1(16, 7, True))
        d = result.attack.state_deltas
        assert d[9] != d[10]


class TestObjective2:
    """Published: unique vector {12, 32, 39, 46, 53}; securing 46 makes
    it UNSAT; topology poisoning revives it via line 13 with
    {12, 13, 32, 33, 39, 53}."""

    def test_exact_vector(self):
        result = verify_attack(attack_objective_2())
        assert result.attack.altered_measurements == [12, 32, 39, 46, 53]
        assert result.attack.attacked_states == [12]

    def test_securing_46_blocks(self):
        assert not verify_attack(attack_objective_2(True)).attack_exists

    def test_topology_poisoning_revives(self):
        result = verify_attack(attack_objective_2(True, True))
        assert result.attack.altered_measurements == [12, 13, 32, 33, 39, 53]
        assert result.attack.excluded_lines == frozenset({13})
        assert result.attack.attacked_states == [12]

    def test_milp_backend_agrees_on_all_three(self):
        for spec, expect in [
            (attack_objective_2(), True),
            (attack_objective_2(True), False),
            (attack_objective_2(True, True), True),
        ]:
            assert verify_milp(spec).attack_exists is expect


class TestTheoryPropagation:
    """Row-implied bounds propagate on the default engine: they must fire
    on the case-study specs and keep the verdict the MILP backend gives."""

    @pytest.mark.parametrize("objective", [attack_objective_1, attack_objective_2])
    def test_propagation_fires_and_keeps_the_verdict(self, objective):
        propagated = verify_attack(objective())
        milp = verify_milp(objective())
        assert propagated.statistics["theory_props"] > 0
        assert propagated.outcome is milp.outcome


class TestSynthesisScenarios:
    """Qualitative published behaviour: a feasible architecture exists,
    tighter budgets are infeasible, and attacker power never shrinks
    the required budget."""

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_feasible_at_4(self, scenario):
        spec = synthesis_scenario(scenario)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=4))
        assert result.architecture is not None
        check = verify_attack(spec.with_secured_buses(result.architecture))
        assert not check.attack_exists

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_infeasible_at_3(self, scenario):
        spec = synthesis_scenario(scenario)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=3))
        assert result.architecture is None

    def test_scenario3_architecture_blocks_topology_attacks(self):
        spec = synthesis_scenario(3)
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=4))
        secured = spec.with_secured_buses(result.architecture)
        check = verify_attack(secured)
        assert not check.attack_exists
