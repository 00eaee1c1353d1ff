"""DC power flow: solve ``B @ theta = P`` for an injection profile.

Used to create base-case operating points for the examples, the
integration tests (replaying synthesized attack vectors against the
numerical WLS estimator) and the operating-point-aware topology
poisoning mode of the verification model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.grid.model import Grid

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DcFlowResult:
    """Solution of a DC power flow.

    ``theta``     — bus voltage phase angles (radians), index 0 == bus 1
    ``line_flows``— power flow on each line in the from→to direction,
                    index 0 == line 1
    ``injections``— net power injected at each bus (generation - load)
    """

    grid: Grid
    reference_bus: int
    theta: np.ndarray
    line_flows: np.ndarray
    injections: np.ndarray

    def flow(self, line_index: int) -> float:
        return float(self.line_flows[line_index - 1])

    def angle(self, bus: int) -> float:
        return float(self.theta[bus - 1])

    def consumption(self, bus: int) -> float:
        """Power consumption at a bus: sum of incoming minus outgoing flows.

        This matches the paper's Eq. (4) sign convention (a net load is
        positive) and equals ``-injection``.
        """
        return -float(self.injections[bus - 1])


def susceptance_matrix(
    grid: Grid, line_indices: Optional[Iterable[int]] = None
) -> np.ndarray:
    """The full (singular) DC susceptance matrix B."""
    import numpy as np

    b = np.zeros((grid.num_buses, grid.num_buses))
    lines = grid.lines if line_indices is None else [grid.line(i) for i in line_indices]
    for line in lines:
        f, t = line.from_bus - 1, line.to_bus - 1
        y = float(line.admittance)
        b[f, f] += y
        b[t, t] += y
        b[f, t] -= y
        b[t, f] -= y
    return b


def solve_dc_flow(
    grid: Grid,
    injections: Sequence[float],
    reference_bus: int = 1,
    line_indices: Optional[Iterable[int]] = None,
) -> DcFlowResult:
    """Solve the DC power flow for the given net injections.

    ``injections`` must sum to (numerically) zero; the reference bus's
    angle is fixed at 0.
    """
    import numpy as np

    p = np.asarray(injections, dtype=float)
    if p.shape != (grid.num_buses,):
        raise ValueError(
            f"injections must have length {grid.num_buses}, got {p.shape}"
        )
    if abs(p.sum()) > 1e-6 * max(1.0, np.abs(p).max()):
        raise ValueError(f"injections must balance to zero (sum={p.sum():g})")
    b_full = susceptance_matrix(grid, line_indices)
    ref = reference_bus - 1
    keep = [i for i in range(grid.num_buses) if i != ref]
    b_red = b_full[np.ix_(keep, keep)]
    theta = np.zeros(grid.num_buses)
    theta[keep] = np.linalg.solve(b_red, p[keep])
    lines = grid.lines if line_indices is None else [grid.line(i) for i in line_indices]
    flows = np.zeros(grid.num_lines)
    for line in lines:
        flows[line.index - 1] = float(line.admittance) * (
            theta[line.from_bus - 1] - theta[line.to_bus - 1]
        )
    return DcFlowResult(grid, reference_bus, theta, flows, p)


def nominal_injections(grid: Grid, seed: int = 7, magnitude: float = 1.0) -> np.ndarray:
    """A deterministic balanced injection profile for examples/tests.

    Roughly a third of the buses generate, the rest consume; the profile
    is balanced exactly and scaled so the largest injection is
    ``magnitude`` (per unit).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 1.0, size=grid.num_buses)
    generators = rng.choice(
        grid.num_buses, size=max(1, grid.num_buses // 3), replace=False
    )
    signs = -np.ones(grid.num_buses)
    signs[generators] = 1.0
    p = p * signs
    p -= p.mean()  # balance
    p *= magnitude / np.abs(p).max()
    return p
