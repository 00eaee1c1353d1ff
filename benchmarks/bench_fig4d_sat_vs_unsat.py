"""Figure 4(d): execution time in satisfiable vs. unsatisfiable cases.

Paper: UNSAT verifications are slower than SAT ones (the solver must
exhaust the space), but the gap stays small because the attack
attributes already prune most of it.

Here: for each system, a SAT instance (unconstrained single-state
attack) and an UNSAT instance (the same goal under a 2-measurement
budget — any state corruption visible to the estimator needs at least
three coordinated injections on these systems) measured side by side.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.verification import verify_attack
from repro.grid.cases import load_case

CASES = ["ieee14", "ieee30", "ieee57", "ieee118"]


def _spec(case_name, satisfiable):
    grid = load_case(case_name)
    target = default_targets(grid, 1)[0]
    return spec_for_case(
        case_name,
        target_bus=target,
        max_measurements=None if satisfiable else 2,
    )


@pytest.mark.parametrize("case_name", CASES)
def test_fig4d_sat_case(benchmark, case_name):
    spec = _spec(case_name, satisfiable=True)
    result = run_once(benchmark, lambda: verify_attack(spec))
    assert result.attack_exists


@pytest.mark.parametrize("case_name", CASES)
def test_fig4d_unsat_case(benchmark, case_name):
    spec = _spec(case_name, satisfiable=False)
    result = run_once(benchmark, lambda: verify_attack(spec))
    assert not result.attack_exists
