"""Pins on the path Algorithm 1 takes through real synthesis instances.

For each instance the pin is ``(architecture, uncored_architecture,
iterations, len(counterexamples))``.  Single-spec and multi-spec
synthesis run one loop, so its candidate order, blocking clauses and
core minimization must not move when that loop is restructured.  The
instances are the Section IV-E scenarios in every blocking mode, the
13 single-target ieee14 goals (where the proof's core does shrink the
candidate), and multi-requirement sets; together about 6 s on a
2-vCPU host.
"""

import pytest

from repro.core.casestudy import synthesis_scenario
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.synthesis import (
    SynthesisSettings,
    synthesize_against_all,
    synthesize_architecture,
)
from repro.grid.cases import ieee14


def _pin(result):
    return (
        result.architecture,
        result.uncored_architecture,
        result.iterations,
        len(result.counterexamples),
    )


#: (scenario, budget, blocking, core_minimize) -> pin, single spec
SCENARIOS = {
    (1, 3, "counterexample", True): (None, None, 9, 8),
    (1, 3, "counterexample", False): (None, None, 9, 8),
    (1, 4, "counterexample", True): ([5, 6, 8, 9], [5, 6, 8, 9], 8, 7),
    (1, 4, "counterexample", False): ([5, 6, 8, 9], None, 8, 7),
    (2, 3, "counterexample", True): (None, None, 11, 10),
    (2, 3, "counterexample", False): (None, None, 11, 10),
    (2, 4, "counterexample", True): ([2, 6, 8, 9], [2, 6, 8, 9], 13, 12),
    (2, 4, "counterexample", False): ([2, 6, 8, 9], None, 13, 12),
    (3, 3, "counterexample", True): (None, None, 9, 8),
    (3, 3, "counterexample", False): (None, None, 9, 8),
    (3, 4, "counterexample", True): ([2, 6, 8, 9], [2, 6, 8, 9], 15, 14),
    (3, 4, "counterexample", False): ([2, 6, 8, 9], None, 15, 14),
    (1, 4, "subset", True): ([5, 6, 8, 9], [5, 6, 8, 9], 26, 25),
    (1, 4, "subset", False): ([5, 6, 8, 9], None, 26, 25),
    (1, 4, "exact", True): ([5, 6, 8, 9], [5, 6, 8, 9], 75, 74),
    (1, 4, "exact", False): ([5, 6, 8, 9], None, 75, 74),
}

#: target state -> pin, ieee14 worst-case model at budget 4
SINGLE_TARGETS = {
    2: ([5], [5], 2, 1),
    3: ([3, 5], [3, 5, 8, 11], 7, 6),
    4: ([1, 6, 7, 14], [1, 6, 7, 14], 8, 7),
    5: ([5], [5, 7, 10, 14], 8, 7),
    6: ([5], [5, 8, 9], 8, 7),
    7: ([1, 6, 7, 14], [1, 6, 7, 14], 9, 8),
    8: ([1, 6, 7, 14], [1, 6, 7, 14], 7, 6),
    9: ([5, 9], [5, 8, 9], 8, 7),
    10: ([5, 9], [5, 8, 9], 8, 7),
    11: ([5, 11], [5, 8, 9, 11], 8, 7),
    12: ([5, 12], [5, 7, 12, 14], 10, 9),
    13: ([5, 9, 13], [5, 8, 9, 13], 8, 7),
    14: ([1, 6, 14], [1, 6, 7, 14], 10, 9),
}

#: (budget, core_minimize) -> pin, ieee14 states 10, 12 (exclusive), 8
IEEE14_SET = {
    (0, True): (None, None, 2, 1),
    (0, False): (None, None, 2, 1),
    (3, True): (None, None, 10, 9),
    (3, False): (None, None, 10, 9),
    (5, True): ([5, 8, 9, 13], [5, 8, 9, 13], 9, 8),
    (5, False): ([5, 8, 9, 13], None, 9, 8),
}

#: core_minimize -> pin, scenarios 1-3 together at budget 4
SCENARIO_SET = {
    True: ([2, 6, 8, 9], [2, 6, 8, 9], 14, 13),
    False: ([2, 6, 8, 9], None, 14, 13),
}


def _ieee14_set():
    base = AttackSpec.default(ieee14())
    return [
        base.with_goal(AttackGoal.states(10)),
        base.with_goal(AttackGoal.states(12, exclusive=True)),
        base.with_goal(AttackGoal.states(8)),
    ]


@pytest.mark.parametrize("case", sorted(SCENARIOS), ids=str)
def test_scenario_synthesis(case):
    scenario, budget, blocking, core = case
    settings = SynthesisSettings(
        max_secured_buses=budget, blocking=blocking, core_minimize=core
    )
    result = synthesize_architecture(
        synthesis_scenario(scenario), settings, collect_counterexamples=True
    )
    assert _pin(result) == SCENARIOS[case]


@pytest.mark.parametrize("state", sorted(SINGLE_TARGETS))
def test_single_target_synthesis(state):
    spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(state))
    result = synthesize_architecture(
        spec, SynthesisSettings(max_secured_buses=4), collect_counterexamples=True
    )
    assert _pin(result) == SINGLE_TARGETS[state]


@pytest.mark.parametrize("case", sorted(IEEE14_SET), ids=str)
def test_multi_requirement_synthesis(case):
    budget, core = case
    settings = SynthesisSettings(max_secured_buses=budget, core_minimize=core)
    assert _pin(synthesize_against_all(_ieee14_set(), settings)) == IEEE14_SET[case]


@pytest.mark.parametrize("core", [True, False])
def test_scenario_set_synthesis(core):
    specs = [synthesis_scenario(n) for n in (1, 2, 3)]
    settings = SynthesisSettings(max_secured_buses=4, core_minimize=core)
    assert _pin(synthesize_against_all(specs, settings)) == SCENARIO_SET[core]


@pytest.mark.parametrize("budget", [0, 3, 5])
def test_each_spec_is_encoded_once(budget, grid_encodes):
    # the verifiers stay warm over every candidate the loop tries
    specs = _ieee14_set()
    result = synthesize_against_all(specs, SynthesisSettings(max_secured_buses=budget))
    assert result.iterations > 1
    assert grid_encodes() == len(specs)


def test_single_spec_is_encoded_once(grid_encodes):
    settings = SynthesisSettings(max_secured_buses=4, blocking="subset")
    result = synthesize_architecture(synthesis_scenario(1), settings)
    assert result.iterations == 26
    assert grid_encodes() == 1
