"""Figure 4(b): verification time vs. number of taken measurements.

Paper: for the 30- and 57-bus systems, execution time increases
linearly with the percentage of potential measurements that are taken
(more taken measurements -> more candidate injection points).

Here: the same densities (50%..100%) on the same systems; the subset is
deterministic and observability-preserving (all bus injections plus
sampled flow measurements; see ``repro.analysis.sweeps``).
"""

import pytest

from benchmarks.conftest import run_once
from repro.analysis.sweeps import spec_for_case
from repro.core.verification import verify_attack

DENSITIES = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


@pytest.mark.parametrize("case_name", ["ieee30", "ieee57"])
@pytest.mark.parametrize("density", DENSITIES, ids=lambda d: f"{int(d*100)}pct")
def test_fig4b_measurement_density(benchmark, case_name, density):
    spec = spec_for_case(case_name, measurement_fraction=density, seed=42)
    result = run_once(benchmark, lambda: verify_attack(spec))
    assert result.attack_exists
