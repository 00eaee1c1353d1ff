"""Verdict checks, run after the timed phase.

Every answer is compared with the golden verdict for its request key in
``expected.json`` (verdict, cheapest-attack cost or synthesis
feasibility).  Beyond the golden value:

* a SAT witness is replayed through the numerical pipeline
  (``solve_dc_flow`` / ``build_measurements`` / ``build_h`` /
  ``wls_estimate``): the WLS residual is unchanged, the target states
  shift, and the attack respects the resource limits, accessibility,
  secured meters and the attacker's admittance knowledge;
* a synthesized architecture must make the attack model UNSAT when
  re-verified, within the budget.

:class:`Checker` remembers what it already checked, so a repeated
request with the same answer costs nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from workloads import Request, build_spec, request_key

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

NOISE = 0.008
SCALE = 0.05
#: relative tolerance on WLS objectives and state shifts
TOLERANCE = 1e-6


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)["verdicts"]


def replay_witness(spec, attack) -> List[str]:
    """Problems found replaying one SAT witness (empty list: it holds)."""
    from repro.estimation.measurement import build_h, build_measurements
    from repro.estimation.wls import wls_estimate
    from repro.grid.dcflow import nominal_injections, solve_dc_flow

    errors: List[str] = []
    plan = spec.plan
    altered = attack.altered_measurements
    limits = spec.limits
    if limits.max_measurements is not None and len(altered) > limits.max_measurements:
        errors.append(f"alters {len(altered)} > {limits.max_measurements} measurements")
    buses = attack.compromised_buses(plan)
    if limits.max_buses is not None and len(buses) > limits.max_buses:
        errors.append(f"compromises {len(buses)} > {limits.max_buses} buses")
    for meas in altered:
        if not plan.is_taken(meas):
            errors.append(f"alters untaken measurement {meas}")
        elif plan.is_secured(meas) or not plan.is_accessible(meas):
            errors.append(f"alters protected measurement {meas}")
        kind, element = plan.classify(meas)
        if kind != "bus" and not spec.attrs(element).knows_admittance:
            errors.append(f"alters flow {meas} of a line with unknown admittance")
    goal = spec.goal
    moved = set(attack.attacked_states)
    if not set(goal.target_states) <= moved or (goal.any_state and not moved):
        errors.append(f"states {sorted(moved)} miss the goal")
    if goal.exclusive and moved - set(goal.target_states):
        errors.append(f"moves non-target states {sorted(moved - set(goal.target_states))}")
    if errors:
        return errors

    grid = spec.grid
    ref = spec.reference_bus
    flow = solve_dc_flow(grid, nominal_injections(grid), ref)
    taken = plan.taken_in_order()
    columns = [j for j in grid.buses if j != ref]
    if attack.uses_topology_poisoning:
        # Delta-space poisoning moves an excluded line's reported flow by
        # an arbitrary nonzero amount; scale the (homogeneous) witness so
        # it drops that flow to exactly zero at this operating point,
        # then the estimator on the poisoned topology must see a
        # noise-free, consistent measurement vector.
        scale = None
        for line_index in sorted(attack.excluded_lines):
            delta = attack.measurement_deltas.get(plan.forward_index(line_index))
            sign = 1.0
            if delta is None:
                delta = attack.measurement_deltas.get(plan.backward_index(line_index))
                sign = -1.0
            if delta:
                scale = -flow.flow(line_index) / (sign * delta)
                break
        if scale is None or attack.included_lines:
            return [f"cannot stage poisoning {sorted(attack.excluded_lines)}"]
        mapped = [
            line.index for line in grid.lines if line.index not in attack.excluded_lines
        ]
        z = build_measurements(plan, flow)
        w = np.ones(len(z))
        clean = wls_estimate(build_h(grid, ref, taken=taken), z, w)
        h_poisoned = build_h(grid, ref, taken=taken, mapped_lines=mapped)
        attacked = wls_estimate(h_poisoned, attack.scaled(scale).apply_to(z, plan), w)
        tolerance = TOLERANCE * max(1.0, float(np.abs(z).max()))
        if abs(clean.objective) > tolerance or abs(attacked.objective) > tolerance:
            errors.append(
                f"poisoned residual {attacked.objective:.3g} (clean {clean.objective:.3g})"
            )
    else:
        scale = SCALE
        z = build_measurements(plan, flow, noise_std=NOISE, seed=0)
        w = np.full(len(z), 1 / NOISE**2)
        h = build_h(grid, ref, taken=taken)
        clean = wls_estimate(h, z, w)
        attacked = wls_estimate(h, attack.scaled(scale).apply_to(z, plan), w)
        if abs(attacked.objective - clean.objective) > TOLERANCE * max(1.0, clean.objective):
            errors.append(
                f"residual moved: {clean.objective:.9g} -> {attacked.objective:.9g}"
            )
    shift = attacked.x_hat - clean.x_hat
    for column, bus in enumerate(columns):
        expected = attack.state_deltas.get(bus, 0.0) * scale
        if abs(shift[column] - expected) > TOLERANCE * max(1.0, abs(expected)):
            errors.append(f"state {bus} shifted {shift[column]:.6g}, expected {expected:.6g}")
    for bus in goal.target_states:
        if abs(attack.state_deltas.get(bus, 0.0)) == 0:
            errors.append(f"target state {bus} not shifted")
    return errors


class Checker:
    """Checks answers against golden verdicts and replays."""

    def __init__(self, expected: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self.expected = load_expected() if expected is None else expected
        self._specs: Dict[str, Any] = {}
        self._done: Dict[str, List[str]] = {}

    def spec(self, params: Request):
        key = request_key(params)
        if key not in self._specs:
            self._specs[key] = build_spec(params)
        return self._specs[key]

    def _memo(self, params: Request, answer: Any, check) -> List[str]:
        memo = request_key(params) + json.dumps(answer, sort_keys=True, default=str)
        if memo not in self._done:
            self._done[memo] = check()
        return self._done[memo]

    def _golden(self, params: Request) -> Optional[Dict[str, Any]]:
        return self.expected.get(request_key(params))

    # ------------------------------------------------------------------
    def verify(
        self, params: Request, outcome: str, attack_payload, witness: bool = True
    ) -> List[str]:
        """``attack_payload`` as :func:`repro.runtime.attack_to_payload`;
        ``witness=False`` for entry points that print no full witness."""
        golden = self._golden(params)
        if golden is None:
            return ["no golden verdict"]
        if outcome != golden["outcome"]:
            return [f"outcome {outcome}, expected {golden['outcome']}"]
        if outcome != "sat" or not witness:
            return []
        if attack_payload is None:
            return ["SAT answer without a witness"]

        def check():
            from repro.runtime.serialize import attack_from_payload

            return replay_witness(self.spec(params), attack_from_payload(attack_payload))

        return self._memo(params, attack_payload, check)

    def mincost(self, params: Request, cost: Optional[int], attack_payload) -> List[str]:
        golden = self._golden(params)
        if golden is None:
            return ["no golden verdict"]
        if cost != golden["cost"]:
            return [f"cost {cost}, expected {golden['cost']}"]
        if cost is None or attack_payload is None:
            return []

        def check():
            from repro.core.spec import ResourceLimits
            from repro.runtime.serialize import attack_from_payload

            spec = self.spec(params)
            capped = spec.with_limits(ResourceLimits(max_measurements=cost))
            return replay_witness(capped, attack_from_payload(attack_payload))

        return self._memo(params, attack_payload, check)

    def synthesis(
        self, params: Request, feasible: bool, architecture: Optional[Sequence[int]]
    ) -> List[str]:
        golden = self._golden(params)
        if golden is None:
            return ["no golden verdict"]
        if feasible != golden["feasible"]:
            return [f"feasible {feasible}, expected {golden['feasible']}"]
        if not feasible:
            return []
        if architecture is None or len(architecture) > params["budget"]:
            return [f"architecture {architecture} exceeds budget {params['budget']}"]

        def check():
            from repro.core.verification import verify_attack

            spec = self.spec(params).with_secured_buses(architecture)
            outcome = verify_attack(spec).outcome.value
            return [] if outcome == "unsat" else [f"{architecture} re-verifies {outcome}"]

        return self._memo(params, list(architecture), check)


def library_answer(params: Request, result) -> Dict[str, Any]:
    """The JSON view of a library result that the checks read."""
    from repro.runtime.serialize import attack_to_payload

    if params["op"] == "verify":
        return {"outcome": result.outcome.value, "attack": attack_to_payload(result.attack)}
    if params["op"] == "mincost":
        return {"cost": result.cost, "attack": attack_to_payload(result.attack)}
    return {"feasible": result.feasible, "architecture": result.architecture}


def check_answer(checker: Checker, params: Request, answer: Dict[str, Any]) -> List[str]:
    """Check one answer; the CLI prints its witness rounded, so CLI
    verdicts are checked without a replay."""
    op = params["op"]
    if op == "verify":
        return checker.verify(
            params, answer["outcome"], answer.get("attack"), params.get("entry") != "cli"
        )
    if op == "mincost":
        return checker.mincost(params, answer["cost"], answer.get("attack"))
    return checker.synthesis(params, answer["feasible"], answer.get("architecture"))


def golden_verdict(params: Request) -> Dict[str, Any]:
    """Compute the golden value of one request with the library."""
    from workloads import run_library_request

    result = run_library_request(params, build_spec(params))
    answer = library_answer(params, result)
    answer.pop("attack", None)
    answer.pop("architecture", None)
    return answer
