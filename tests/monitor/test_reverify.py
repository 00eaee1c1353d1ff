"""The monitor's cost search: one probe sequence wherever it runs."""

import pytest

from repro.core.spec import AttackGoal
from repro.grid.cases import ieee14
from repro.monitor.reverify import ReverificationBridge
from repro.runtime import RuntimeOptions, result_to_payload, verify_one
from repro.runtime.executor import clear_session_registry


class InProcessClient:
    """Answers verify jobs as a ``repro serve --sessions`` service does."""

    options = RuntimeOptions(jobs=1, sessions=True)

    def verify(self, spec, priority=None, timeout=None):
        result = verify_one(spec, self.options)
        return {"state": "done", "result": result_to_payload(result)}


GOALS = [pytest.param(AttackGoal.any(), id="any")] + [
    pytest.param(AttackGoal.states(bus), id=f"state{bus}") for bus in range(2, 15)
]


@pytest.mark.parametrize("goal", GOALS)
def test_local_and_remote_searches_agree(goal):
    # an incident's (cost, probes) must not depend on whether the
    # monitor probes in-process or through a service; each search
    # starts on a fresh warm-session registry, as a fresh process would
    grid = ieee14()
    local = ReverificationBridge(grid)
    remote = ReverificationBridge(grid, client=InProcessClient())
    spec = local.spec_for(range(1, grid.num_lines + 1), goal)
    clear_session_registry()
    expected = local._min_cost(spec)
    clear_session_registry()
    assert remote._min_cost(spec) == expected
    assert remote.counters["mincost_probes"] == expected[1]
