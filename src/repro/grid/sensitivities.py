"""Linear sensitivity factors: PTDF and LODF.

Standard DC-model planning tools, used here for two jobs:

* **PTDF** (power transfer distribution factors) quantify how an
  injection shift redistributes over lines — the medium through which a
  state-estimation attack distorts the operator's flow picture
  (:mod:`repro.analysis.impact` gives the per-attack view; PTDFs give
  the structural one);
* **LODF** (line outage distribution factors) predict post-outage
  flows — exactly what a topology *exclusion* attack fakes: the paper's
  coordinated exclusion makes the telemetry match the LODF-consistent
  fiction that the line is out.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.grid.dcflow import DcFlowResult, susceptance_matrix
from repro.grid.model import Grid


def ptdf_matrix(grid: Grid, reference_bus: int = 1) -> np.ndarray:
    """The l x b PTDF matrix.

    Entry ``(i, j)`` is the change of line i's flow (from->to) per unit
    of power injected at bus j and withdrawn at the reference bus.  The
    reference column is zero.
    """
    b_full = susceptance_matrix(grid)
    ref = reference_bus - 1
    keep = [k for k in range(grid.num_buses) if k != ref]
    b_red_inv = np.linalg.inv(b_full[np.ix_(keep, keep)])
    # angles response: theta = X @ p (reduced); expand to full with ref row 0
    x_full = np.zeros((grid.num_buses, grid.num_buses))
    x_full[np.ix_(keep, keep)] = b_red_inv
    ptdf = np.zeros((grid.num_lines, grid.num_buses))
    for line in grid.lines:
        f, t = line.from_bus - 1, line.to_bus - 1
        ptdf[line.index - 1] = float(line.admittance) * (x_full[f] - x_full[t])
    return ptdf


def lodf_matrix(grid: Grid, reference_bus: int = 1) -> np.ndarray:
    """The l x l LODF matrix.

    Entry ``(i, k)`` is the fraction of line k's pre-outage flow that
    appears on line i after line k trips.  Diagonal entries are -1
    (the outaged line loses all flow).  Columns for bridge lines whose
    outage islands the grid are NaN (the factor is undefined).
    """
    ptdf = ptdf_matrix(grid, reference_bus)
    l = grid.num_lines
    lodf = np.zeros((l, l))
    # PTDF of a transfer across line k's terminals
    for k_line in grid.lines:
        k = k_line.index - 1
        f, t = k_line.from_bus - 1, k_line.to_bus - 1
        transfer = ptdf[:, f] - ptdf[:, t]
        denominator = 1.0 - transfer[k]
        if abs(denominator) < 1e-9:
            lodf[:, k] = np.nan  # bridge: outage splits the grid
            continue
        lodf[:, k] = transfer / denominator
        lodf[k, k] = -1.0
    return lodf


def post_outage_flows(
    grid: Grid,
    flow: DcFlowResult,
    outaged_line: int,
    reference_bus: int = 1,
) -> Optional[np.ndarray]:
    """Predicted line flows after one line trips (LODF superposition).

    Returns None when the outage islands the grid.  Validated in the
    tests against re-solving the DC power flow on the reduced topology.
    """
    lodf = lodf_matrix(grid, reference_bus)
    column = lodf[:, outaged_line - 1]
    if np.any(np.isnan(column)):
        return None
    flows = flow.line_flows + column * flow.flow(outaged_line)
    flows[outaged_line - 1] = 0.0
    return flows


def exclusion_attack_flow_fiction(
    grid: Grid,
    flow: DcFlowResult,
    excluded_line: int,
    reference_bus: int = 1,
) -> Optional[np.ndarray]:
    """The flow picture a coordinated exclusion attack must *not* fake.

    A topology exclusion tells the EMS "line k is out" while the grid
    still carries flow on it.  If the attacker altered nothing else, the
    estimator's picture would clash with the LODF-consistent post-outage
    flows, tripping the residual test; the coordinated attack of
    Section III-E instead keeps the measurements consistent with the
    *pre-attack states under the poisoned H* — the returned vector is
    the honest post-outage alternative, useful for quantifying how far
    the faked picture deviates from a genuine outage.
    """
    return post_outage_flows(grid, flow, excluded_line, reference_bus)
