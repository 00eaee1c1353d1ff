"""AC power flow and AC state estimation.

The paper (like the UFDI literature it builds on) works in the DC
approximation; this module provides the AC counterparts so the scope of
that assumption can be *measured* rather than assumed:

* :func:`solve_ac_flow` — full Newton-Raphson AC power flow;
* :func:`ac_wls_estimate` — Gauss-Newton AC WLS state estimation over
  P/Q flows, P/Q injections and voltage magnitudes;
* :func:`AcSystem.dc_attack_residual_inflation` — replay a DC-stealthy
  attack against the AC estimator and report how much residual it
  leaks (the classic result: DC-perfect attacks are *approximately*
  stealthy under AC, degrading as loading grows).

Line resistances and charging are not part of the DC data; the
:class:`AcSystem` constructor synthesizes them from a uniform r/x
ratio (documented substitution — the qualitative behaviour is
insensitive to the exact ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.estimation.measurement import MeasurementPlan
from repro.grid.model import Grid


class AcConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""


@dataclass
class AcFlowResult:
    """AC power-flow solution (polar)."""

    v: np.ndarray      # voltage magnitudes, index 0 == bus 1
    theta: np.ndarray  # voltage angles (radians)
    p: np.ndarray      # net active injections
    q: np.ndarray      # net reactive injections
    iterations: int


class AcSystem:
    """An AC view of a DC grid model."""

    def __init__(
        self,
        grid: Grid,
        r_over_x: float = 0.1,
        shunt_b: float = 0.0,
    ) -> None:
        self.grid = grid
        self.r_over_x = r_over_x
        self.shunt_b = shunt_b
        n = grid.num_buses
        y = np.zeros((n, n), dtype=complex)
        for line in grid.lines:
            x = float(line.reactance)
            r = r_over_x * x
            series = 1.0 / complex(r, x)
            f, t = line.from_bus - 1, line.to_bus - 1
            y[f, f] += series + 1j * shunt_b / 2
            y[t, t] += series + 1j * shunt_b / 2
            y[f, t] -= series
            y[t, f] -= series
        self.ybus = y

    # ------------------------------------------------------------------
    # power equations
    # ------------------------------------------------------------------
    def injections(self, v: np.ndarray, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Net (P, Q) injections for a voltage profile."""
        vc = v * np.exp(1j * theta)
        s = vc * np.conj(self.ybus @ vc)
        return s.real, s.imag

    def line_flow(
        self, line_index: int, v: np.ndarray, theta: np.ndarray, backward: bool = False
    ) -> Tuple[float, float]:
        """(P, Q) flow of a line measured at one end (from-end by default)."""
        line = self.grid.line(line_index)
        f, t = line.from_bus - 1, line.to_bus - 1
        if backward:
            f, t = t, f
        x = float(line.reactance)
        series = 1.0 / complex(self.r_over_x * x, x)
        vf = v[f] * np.exp(1j * theta[f])
        vt = v[t] * np.exp(1j * theta[t])
        current = (vf - vt) * series + vf * 1j * self.shunt_b / 2
        s = vf * np.conj(current)
        return float(s.real), float(s.imag)

    # ------------------------------------------------------------------
    # power flow
    # ------------------------------------------------------------------
    def solve_power_flow(
        self,
        p_injections: Sequence[float],
        q_injections: Sequence[float],
        slack_bus: int = 1,
        tol: float = 1e-10,
        max_iterations: int = 30,
    ) -> AcFlowResult:
        """Newton-Raphson power flow (slack bus + PQ buses).

        ``p_injections``/``q_injections`` are specified for every bus;
        the slack bus's entries are ignored (it absorbs the mismatch,
        including losses).
        """
        n = self.grid.num_buses
        slack = slack_bus - 1
        pq = [i for i in range(n) if i != slack]
        v = np.ones(n)
        theta = np.zeros(n)
        p_spec = np.asarray(p_injections, dtype=float)
        q_spec = np.asarray(q_injections, dtype=float)
        for iteration in range(1, max_iterations + 1):
            p, q = self.injections(v, theta)
            mismatch = np.concatenate([(p_spec - p)[pq], (q_spec - q)[pq]])
            if np.max(np.abs(mismatch)) < tol:
                return AcFlowResult(v, theta, p, q, iteration)
            jac = self._pf_jacobian(v, theta, pq)
            step = np.linalg.solve(jac, mismatch)
            theta[pq] += step[: len(pq)]
            v[pq] += step[len(pq):]
        raise AcConvergenceError(
            f"power flow did not converge in {max_iterations} iterations"
        )

    def _pf_jacobian(self, v, theta, pq, eps: float = 1e-7) -> np.ndarray:
        """Finite-difference Jacobian of the mismatch equations."""
        m = 2 * len(pq)
        jac = np.zeros((m, m))
        p0, q0 = self.injections(v, theta)
        base = np.concatenate([p0[pq], q0[pq]])
        for k, bus in enumerate(pq):
            th = theta.copy()
            th[bus] += eps
            p1, q1 = self.injections(v, th)
            jac[:, k] = (np.concatenate([p1[pq], q1[pq]]) - base) / eps
        for k, bus in enumerate(pq):
            vv = v.copy()
            vv[bus] += eps
            p1, q1 = self.injections(vv, theta)
            jac[:, len(pq) + k] = (np.concatenate([p1[pq], q1[pq]]) - base) / eps
        return jac

    # ------------------------------------------------------------------
    # measurement model
    # ------------------------------------------------------------------
    def measurement_vector(
        self, plan: MeasurementPlan, v: np.ndarray, theta: np.ndarray,
        include_reactive: bool = True, include_voltage: bool = True,
    ) -> np.ndarray:
        """AC measurements in extended plan order.

        Layout: for every taken DC measurement, its active-power analog
        (P flow / P injection as consumption); then, when enabled, the
        matching reactive measurements; then voltage magnitudes at every
        bus.  :func:`ac_measurement_labels` documents the ordering.
        """
        p_inj, q_inj = self.injections(v, theta)
        values: List[float] = []
        for meas in plan.taken_in_order():
            kind, element = plan.classify(meas)
            if kind == "forward":
                values.append(self.line_flow(element, v, theta)[0])
            elif kind == "backward":
                values.append(self.line_flow(element, v, theta, backward=True)[0])
            else:
                values.append(-p_inj[element - 1])  # consumption convention
        if include_reactive:
            for meas in plan.taken_in_order():
                kind, element = plan.classify(meas)
                if kind == "forward":
                    values.append(self.line_flow(element, v, theta)[1])
                elif kind == "backward":
                    values.append(self.line_flow(element, v, theta, backward=True)[1])
                else:
                    values.append(-q_inj[element - 1])
        if include_voltage:
            values.extend(v)
        return np.array(values)

    def estimate_state(
        self,
        plan: MeasurementPlan,
        z: np.ndarray,
        weights: Optional[Sequence[float]] = None,
        include_reactive: bool = True,
        include_voltage: bool = True,
        slack_bus: int = 1,
        tol: float = 1e-9,
        max_iterations: int = 40,
    ) -> "AcEstimate":
        """Gauss-Newton AC WLS estimation.

        States: angles at all buses except the slack, magnitudes at all
        buses.  The Jacobian is finite-difference (robust and adequate
        for test-scale systems).
        """
        n = self.grid.num_buses
        slack = slack_bus - 1
        angle_vars = [i for i in range(n) if i != slack]
        m = len(z)
        w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
        v = np.ones(n)
        theta = np.zeros(n)

        def h_of(v_, theta_):
            return self.measurement_vector(
                plan, v_, theta_, include_reactive, include_voltage
            )

        for iteration in range(1, max_iterations + 1):
            h0 = h_of(v, theta)
            residual = z - h0
            jac = np.zeros((m, len(angle_vars) + n))
            eps = 1e-7
            for k, bus in enumerate(angle_vars):
                th = theta.copy()
                th[bus] += eps
                jac[:, k] = (h_of(v, th) - h0) / eps
            for k in range(n):
                vv = v.copy()
                vv[k] += eps
                jac[:, len(angle_vars) + k] = (h_of(vv, theta) - h0) / eps
            sqrt_w = np.sqrt(w)
            step, *_ = np.linalg.lstsq(
                jac * sqrt_w[:, None], residual * sqrt_w, rcond=None
            )
            theta[angle_vars] += step[: len(angle_vars)]
            v += step[len(angle_vars):]
            if np.max(np.abs(step)) < tol:
                final = z - h_of(v, theta)
                return AcEstimate(
                    v=v,
                    theta=theta,
                    residual=final,
                    objective=float(final @ (w * final)),
                    iterations=iteration,
                )
        raise AcConvergenceError(
            f"state estimation did not converge in {max_iterations} iterations"
        )


@dataclass
class AcEstimate:
    """Result of an AC WLS estimation."""

    v: np.ndarray
    theta: np.ndarray
    residual: np.ndarray
    objective: float
    iterations: int


def dc_attack_residual_inflation(
    system: AcSystem,
    plan: MeasurementPlan,
    flow: AcFlowResult,
    attack,
    noise_std: float = 0.005,
    seed: int = 0,
) -> Tuple[float, float]:
    """Replay a DC-stealthy attack against the AC estimator.

    The attack's deltas (active-power measurements only) are added to
    the AC telemetry; returns ``(clean_objective, attacked_objective)``.
    A DC-perfect attack typically inflates the AC residual — the cost
    of the paper's DC scope, quantified.
    """
    rng = np.random.default_rng(seed)
    z = system.measurement_vector(plan, flow.v, flow.theta)
    z = z + rng.normal(0.0, noise_std, size=z.shape)
    w = np.full(len(z), 1 / noise_std**2)
    clean = system.estimate_state(plan, z, w)
    taken = plan.taken_in_order()
    position = {meas: i for i, meas in enumerate(taken)}
    z_attacked = z.copy()
    for meas, delta in attack.measurement_deltas.items():
        if meas in position:
            z_attacked[position[meas]] += delta
    attacked = system.estimate_state(plan, z_attacked, w)
    return clean.objective, attacked.objective
