"""Consequence-driven attacks: overload masking and fake congestion.

The paper motivates UFDI attacks through their downstream effects on
"assessing security, initiating corrective control measures, and
pricing" (Section I).  This module constructs the two canonical
consequence attacks on line-flow awareness:

* **overload masking** — the line actually carries more than its
  rating, but the estimated flow looks safe, suppressing the operator's
  corrective action;
* **fake congestion** — a healthy line is made to *look* overloaded,
  provoking unnecessary (and exploitable) redispatch.

Both reduce to choosing a state shift ``c`` whose induced flow change
on the target line equals a desired amount while the attack stays
inside the attacker's accessible measurement set; the least-squares
construction below finds the minimum-norm such ``c`` in the stealthy
subspace (cf. :func:`repro.attacks.liu.restricted_access_attack`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.vector import AttackVector
from repro.estimation.measurement import MeasurementPlan, build_h
from repro.grid.dcflow import DcFlowResult


def flow_shift_attack(
    plan: MeasurementPlan,
    line_index: int,
    desired_shift: float,
    reference_bus: int = 1,
    tol: float = 1e-9,
) -> Optional[AttackVector]:
    """A stealthy attack shifting the *estimated* flow of one line.

    The attack touches only accessible, unsecured measurements (the
    protected rows pin part of the state space); returns None when no
    stealthy state shift can move the target line's flow.
    ``desired_shift`` is in the line's from->to direction.
    """
    grid = plan.grid
    line = grid.line(line_index)
    columns = [j for j in grid.buses if j != reference_bus]
    col_of = {bus: k for k, bus in enumerate(columns)}

    protected_rows = [
        meas
        for meas in plan.taken_in_order()
        if plan.is_secured(meas) or not plan.is_accessible(meas)
    ]
    if protected_rows:
        h_protected = build_h(grid, reference_bus, taken=protected_rows)
        __, s, vt = np.linalg.svd(h_protected)
        rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
        basis = vt[rank:].T
    else:
        basis = np.eye(len(columns))
    if basis.shape[1] == 0:
        return None

    # flow shift of the target line as a linear functional of c
    functional = np.zeros(len(columns))
    if line.from_bus != reference_bus:
        functional[col_of[line.from_bus]] += float(line.admittance)
    if line.to_bus != reference_bus:
        functional[col_of[line.to_bus]] -= float(line.admittance)
    reduced = basis.T @ functional
    norm = float(reduced @ reduced)
    if norm < tol:
        return None  # the stealthy subspace cannot move this line
    c = basis @ (reduced * (desired_shift / norm))

    h_full = build_h(grid, reference_bus)
    a_full = h_full @ c
    deltas = {
        meas: float(a_full[meas - 1])
        for meas in plan.taken_in_order()
        if abs(a_full[meas - 1]) > tol
    }
    states = {
        bus: float(value)
        for bus, value in zip(columns, c)
        if abs(value) > tol
    }
    return AttackVector(deltas, states)


def overload_masking_attack(
    plan: MeasurementPlan,
    flow: DcFlowResult,
    line_index: int,
    rating: float,
    margin: float = 0.95,
    reference_bus: int = 1,
) -> Optional[AttackVector]:
    """Make an overloaded line's estimated flow sit inside its rating.

    ``rating`` is the thermal limit (same units as the flow); the
    attack shifts the estimate to ``margin * rating`` with the true
    flow's sign.  Returns None when the line is not overloaded or
    cannot be stealthily masked.
    """
    true_flow = flow.flow(line_index)
    if abs(true_flow) <= rating:
        return None  # nothing to mask
    target = margin * rating * np.sign(true_flow)
    return flow_shift_attack(
        plan, line_index, target - true_flow, reference_bus
    )


def fake_congestion_attack(
    plan: MeasurementPlan,
    flow: DcFlowResult,
    line_index: int,
    rating: float,
    excess: float = 1.1,
    reference_bus: int = 1,
) -> Optional[AttackVector]:
    """Make a healthy line *appear* loaded beyond its rating."""
    true_flow = flow.flow(line_index)
    sign = np.sign(true_flow) if true_flow != 0 else 1.0
    target = excess * rating * sign
    if abs(true_flow) >= rating:
        return None  # already congested; nothing to fake
    return flow_shift_attack(
        plan, line_index, target - true_flow, reference_bus
    )
