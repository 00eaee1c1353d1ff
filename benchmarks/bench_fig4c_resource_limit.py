"""Figure 4(c): verification time vs. the attacker's resource limit.

Paper: on the 14- and 30-bus systems, analysis time *decreases* as the
attacker's measurement budget T_CZ grows (a looser limit makes the
instance easier to satisfy), flattening once the budget stops binding
(around 20 measurements).

Here: the same sweep.  Tight budgets below the attack's minimum
footprint are the UNSAT (slow) end; generous budgets the SAT (fast)
end — the assertion encodes the crossover.
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.verification import verify_attack
from repro.grid.cases import load_case

LIMITS = [4, 8, 12, 16, 20, 24, 28]


@pytest.mark.parametrize("case_name", ["ieee14", "ieee30"])
@pytest.mark.parametrize("limit", LIMITS, ids=lambda v: f"tcz{v}")
def test_fig4c_resource_limit(benchmark, case_name, limit):
    grid = load_case(case_name)
    target = default_targets(grid, 1)[0]
    spec = spec_for_case(case_name, target_bus=target, max_measurements=limit)
    result = run_once(benchmark, lambda: verify_attack(spec))
    # once the budget covers the target's measurement footprint the
    # instance is satisfiable; the footprint for a single-state attack
    # on these systems is well under 12 measurements
    if limit >= 12:
        assert result.attack_exists
        assert len(result.attack.altered_measurements) <= limit
