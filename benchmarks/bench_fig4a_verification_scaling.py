"""Figure 4(a): verification-model execution time vs. problem size.

Paper: three experiments (different attacked states) per IEEE test
system (14 to 300 buses); the average execution time grows between
linearly and quadratically with the number of buses.

Here: the same sweep with the bundled SMT backend; the per-target runs
appear as separate benchmark rows, so the benchmark table directly
reproduces the figure's bar groups.  IEEE 300 is behind
``REPRO_BENCH_FULL=1``.
"""

import pytest

from benchmarks.conftest import requires_full, run_once
from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.verification import verify_attack
from repro.grid.cases import load_case

CASES = ["ieee14", "ieee30", "ieee57", "ieee118"]
FULL_CASES = ["ieee300"]


def _params():
    out = []
    for name in CASES + FULL_CASES:
        grid = load_case(name)
        for target in default_targets(grid, 3):
            marks = [requires_full] if name in FULL_CASES else []
            out.append(pytest.param(name, target, marks=marks, id=f"{name}-state{target}"))
    return out


@pytest.mark.parametrize("case_name,target", _params())
def test_fig4a_verification_time(benchmark, case_name, target):
    spec = spec_for_case(case_name, target_bus=target)
    result = run_once(benchmark, lambda: verify_attack(spec))
    # full measurement redundancy and an unconstrained attacker: every
    # single-state goal is attackable
    assert result.attack_exists
    assert target in result.attack.attacked_states
