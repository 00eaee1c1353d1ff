"""Ablation: SMT engine vs. MILP mirror on the same instances.

Not a paper figure — this quantifies the substitution documented in
DESIGN.md (bundled DPLL(T) engine standing in for Z3, HiGHS big-M
mirror as the tests' independent cross-check).  Both deciders must
agree on every outcome; the timing rows show the gap (DESIGN.md §2
records it).
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.verification import verify_attack
from repro.grid.cases import load_case
from repro.milp.backend import verify_milp

CASES = ["ieee14", "ieee30", "ieee57"]


@pytest.mark.parametrize("decide", [verify_attack, verify_milp], ids=["smt", "milp"])
@pytest.mark.parametrize("case_name", CASES)
def test_backend_sat_instance(benchmark, case_name, decide):
    grid = load_case(case_name)
    target = default_targets(grid, 1)[0]
    spec = spec_for_case(case_name, target_bus=target, max_measurements=30)
    result = run_once(benchmark, lambda: decide(spec))
    assert result.attack_exists


@pytest.mark.parametrize("decide", [verify_attack, verify_milp], ids=["smt", "milp"])
@pytest.mark.parametrize("case_name", CASES)
def test_backend_unsat_instance(benchmark, case_name, decide):
    grid = load_case(case_name)
    target = default_targets(grid, 1)[0]
    spec = spec_for_case(case_name, target_bus=target, max_measurements=2)
    result = run_once(benchmark, lambda: decide(spec))
    assert not result.attack_exists
