"""Cold start: a one-off CLI call imports only what it runs.

numpy (operating points, the Jacobian, attack replay), scipy (WLS,
bad-data detection, MILP), networkx (islanding) and the service, monitor
and cluster-telemetry stacks load at first use, never at ``import
repro``: a verdict is exact rational reasoning and needs none of them.
Every check runs in a fresh interpreter, because in this one an earlier
test has long since imported all of them.  Only module sets are checked,
never timings.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
SPECS = SRC.parent / "examples" / "specs"

DEFERRED = (
    "numpy",
    "scipy",
    "networkx",
    "repro.milp",
    "repro.service",
    "repro.monitor",
    "repro.obs.agg",
    "repro.obs.slo",
    "repro.obs.flight",
    "http.client",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and parse its last stdout line.

    ``loaded(*names)`` is predefined: the subset of ``names`` (default
    :data:`DEFERRED`) already in ``sys.modules``.
    """
    prelude = textwrap.dedent(
        f"""
        import json, sys

        def loaded(*names):
            return sorted(m for m in names or {DEFERRED!r} if m in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_commands_load_no_deferred_module():
    runs = {
        "verify": ["verify", *sorted(str(path) for path in SPECS.glob("*.spec"))],
        "mincost": ["mincost", str(SPECS / "objective1.spec")],
        "synthesize": ["synthesize", str(SPECS / "scenario2.spec"), "--budget", "4"],
    }
    result = run_fresh(
        f"""
        import contextlib, io
        import repro, repro.cli

        seen = {{"import": [None, loaded()]}}
        for command, argv in {runs!r}.items():
            with contextlib.redirect_stdout(io.StringIO()):
                seen[command] = [repro.cli.main(argv), loaded()]
        print(json.dumps(seen))
        """
    )
    assert len(runs["verify"]) == 7  # all six case-study spec files
    assert result == {
        "import": [None, []],
        "verify": [2, []],
        "mincost": [0, []],
        "synthesize": [0, []],
    }


def test_service_answers_verify_and_synthesize_without_numpy():
    spec_text = (SPECS / "scenario2.spec").read_text()
    result = run_fresh(
        f"""
        from repro.service.client import ServiceClient
        from repro.service.http import start_in_thread

        spec_text = {spec_text!r}
        handle = start_in_thread(port=0)
        client = ServiceClient(port=handle.port)
        client.wait_until_ready()
        verify = client.verify(spec_text=spec_text, timeout=120)
        synthesize = client.synthesize(spec_text=spec_text, budget=4, timeout=120)
        handle.request_shutdown()
        handle.join(timeout=10.0)
        print(json.dumps({{
            "verify": verify["result"]["outcome"],
            "feasible": synthesize["result"]["feasible"],
            "loaded": loaded("numpy", "scipy", "networkx"),
        }}))
        """
    )
    assert result == {"verify": "sat", "feasible": True, "loaded": []}


# Each numpy call site, run first in a fresh interpreter: SITE_SETUP builds
# the arguments without numpy, and the site's array must equal the one it
# returns in this process.  apply_to needs an array, which build_measurements
# makes first; that case checks that ``vector.py`` binds ``np`` itself.
SITE_SETUP = """
from repro.attacks.vector import AttackVector
from repro.estimation.measurement import MeasurementPlan, build_h, build_measurements
from repro.grid.cases import load_case
from repro.grid.dcflow import (
    DcFlowResult, nominal_injections, solve_dc_flow, susceptance_matrix,
)

grid = load_case("ieee14")
plan = MeasurementPlan(grid, secured={1})
injections = [13.0] + [-1.0] * 13
flow = DcFlowResult(grid, 1, [0.0] * 14, [k / 10 for k in range(1, 21)], injections)
"""

NUMPY_SITES = {
    "build_h": "build_h(grid, taken=plan.taken_in_order(), mapped_lines=range(2, 21))",
    "build_measurements": "build_measurements(plan, flow, noise_std=0.01, seed=3)",
    "apply_to": "AttackVector({2: 0.5, 30: -0.25}).apply_to("
    "build_measurements(plan, flow), plan)",
    "susceptance_matrix": "susceptance_matrix(grid, line_indices=range(1, 20))",
    "solve_dc_flow": "solve_dc_flow(grid, injections).line_flows",
    "nominal_injections": "nominal_injections(grid, seed=5)",
}


@pytest.mark.parametrize("site", sorted(NUMPY_SITES))
def test_numpy_site_loads_numpy_on_first_call(site):
    expression = NUMPY_SITES[site]
    result = run_fresh(
        SITE_SETUP
        + f"""
before = loaded("numpy")
value = ({expression}).tolist()
print(json.dumps({{"before": before, "value": value, "after": loaded("numpy")}}))
"""
    )
    namespace: dict = {}
    exec(SITE_SETUP, namespace)
    expected = eval(expression, namespace).tolist()
    assert result == {"before": [], "value": expected, "after": ["numpy"]}


def test_chi_square_threshold_loads_scipy_on_first_call():
    result = run_fresh(
        """
        from repro.estimation.baddata import chi_square_threshold

        before = loaded("scipy")
        tau = chi_square_threshold(10, alpha=0.01)
        print(json.dumps({"before": before, "after": loaded("scipy"), "tau": tau}))
        """
    )
    assert result["before"] == []
    assert result["after"] == ["scipy"]
    assert abs(result["tau"] - 23.209251158954356) < 1e-9


def test_wls_estimator_loads_scipy_on_first_call():
    result = run_fresh(
        """
        import numpy as np

        from repro.estimation.wls import (
            UnobservableSystemError, WlsEstimator, wls_estimate,
        )

        def error_of(estimator, h):
            try:
                estimator.estimate(h, np.ones(h.shape[0]))
            except UnobservableSystemError as exc:
                return type(exc).__name__
            return None

        before = loaded("scipy")
        # a zero column fails the rank guard; with rank_tol=0 a duplicated
        # column's rounding residue can slip past it, and then the Cholesky
        # factorization of the singular gain matrix refuses instead
        rank_guard = error_of(WlsEstimator(), np.array([[1.0, 0.0], [2.0, 0.0]]))
        cholesky = error_of(
            WlsEstimator(rank_tol=0.0), np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        )
        h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        z = np.array([0.1, -0.2, 0.35])
        warm = WlsEstimator().estimate(h, z)
        print(json.dumps({
            "before": before,
            "after": loaded("scipy"),
            "rank_guard": rank_guard,
            "cholesky": cholesky,
            "agrees": bool(np.allclose(warm.x_hat, wls_estimate(h, z).x_hat)),
            # _factorize catches numpy's class for scipy's Cholesky failure
            "same_error_class": np.linalg.LinAlgError
            is sys.modules["scipy.linalg"].LinAlgError,
        }))
        """
    )
    assert result == {
        "before": [],
        "after": ["scipy"],
        "rank_guard": "UnobservableSystemError",
        "cholesky": "UnobservableSystemError",
        "agrees": True,
        "same_error_class": True,
    }


def test_grid_connectivity_loads_networkx_on_first_call():
    result = run_fresh(
        """
        from repro.grid.cases import load_case

        grid = load_case("ieee14")
        before = loaded("networkx")
        cut = [line.index for line in grid.lines if 8 not in (line.from_bus, line.to_bus)]
        print(json.dumps({
            "before": before,
            "connected": grid.is_connected(),
            "cut_connected": grid.is_connected(cut),
            "islands": sorted(sorted(island) for island in grid.islands(cut)),
            "after": loaded("networkx"),
        }))
        """
    )
    assert result == {
        "before": [],
        "connected": True,
        "cut_connected": False,
        "islands": [[1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14], [8]],
        "after": ["networkx"],
    }
