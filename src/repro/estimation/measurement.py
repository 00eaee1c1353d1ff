"""The measurement model.

Follows the paper's numbering exactly (Section III-A and the Fig. 1 /
Table III case study): for a grid with ``l`` lines and ``b`` buses there
are ``m = 2l + b`` *potential* measurements —

* measurement ``i``      (1 <= i <= l): forward power flow of line i,
* measurement ``l + i``  (1 <= i <= l): backward power flow of line i,
* measurement ``2l + j`` (1 <= j <= b): power consumption at bus j.

A measurement *resides* at a substation: the forward flow meter sits at
the line's from-bus, the backward flow meter at the to-bus, the
consumption meter at its bus (this residency drives the attacker's
bus-compromise accounting, Eq. 23, and the bus-level countermeasures,
Eq. 28).

:class:`MeasurementPlan` records which potential measurements are taken
(``mz``), secured (``sz``) and attacker-accessible (``az``);
:func:`build_h` produces the Jacobian per Eq. (2) for a given (possibly
poisoned) topology mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grid.dcflow import DcFlowResult
from repro.grid.model import Grid

if TYPE_CHECKING:
    import numpy as np


@dataclass
class MeasurementPlan:
    """The measurement configuration of a grid.

    All index sets use the paper's 1-based measurement numbering.  By
    default every potential measurement is taken, none is secured, and
    all are accessible.
    """

    grid: Grid
    taken: Set[int] = field(default_factory=set)
    secured: Set[int] = field(default_factory=set)
    inaccessible: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.taken:
            self.taken = set(range(1, self.num_potential + 1))
        for name, index_set in (
            ("taken", self.taken),
            ("secured", self.secured),
            ("inaccessible", self.inaccessible),
        ):
            bad = [i for i in index_set if not 1 <= i <= self.num_potential]
            if bad:
                raise ValueError(f"{name} contains out-of-range measurements {bad}")

    # ------------------------------------------------------------------
    # numbering helpers
    # ------------------------------------------------------------------
    @property
    def num_potential(self) -> int:
        return 2 * self.grid.num_lines + self.grid.num_buses

    def forward_index(self, line_index: int) -> int:
        return line_index

    def backward_index(self, line_index: int) -> int:
        return self.grid.num_lines + line_index

    def bus_index(self, bus: int) -> int:
        return 2 * self.grid.num_lines + bus

    def describe(self, measurement: int) -> str:
        kind, element = self.classify(measurement)
        if kind == "forward":
            line = self.grid.line(element)
            return f"z{measurement}: P(line {element}: {line.from_bus}->{line.to_bus})"
        if kind == "backward":
            line = self.grid.line(element)
            return f"z{measurement}: P(line {element}: {line.to_bus}->{line.from_bus})"
        return f"z{measurement}: P(bus {element})"

    def classify(self, measurement: int) -> Tuple[str, int]:
        """``(kind, element)`` where kind is forward/backward/bus."""
        l = self.grid.num_lines
        if 1 <= measurement <= l:
            return ("forward", measurement)
        if l < measurement <= 2 * l:
            return ("backward", measurement - l)
        if 2 * l < measurement <= self.num_potential:
            return ("bus", measurement - 2 * l)
        raise ValueError(f"measurement {measurement} out of range")

    def residence_bus(self, measurement: int) -> int:
        """The substation (bus) where the measurement is recorded."""
        kind, element = self.classify(measurement)
        if kind == "forward":
            return self.grid.line(element).from_bus
        if kind == "backward":
            return self.grid.line(element).to_bus
        return element

    def measurements_at_bus(self, bus: int) -> List[int]:
        """All potential measurements residing at ``bus`` (paper Eq. 28)."""
        result = [self.bus_index(bus)]
        for line in self.grid.lines_at(bus):
            if line.from_bus == bus:
                result.append(self.forward_index(line.index))
            if line.to_bus == bus:
                result.append(self.backward_index(line.index))
        return sorted(result)

    # ------------------------------------------------------------------
    # status predicates
    # ------------------------------------------------------------------
    def is_taken(self, measurement: int) -> bool:
        return measurement in self.taken

    def is_secured(self, measurement: int) -> bool:
        return measurement in self.secured

    def is_accessible(self, measurement: int) -> bool:
        return measurement not in self.inaccessible

    def taken_in_order(self) -> List[int]:
        return sorted(self.taken)

    def with_secured_buses(self, buses: Iterable[int]) -> "MeasurementPlan":
        """A copy with every measurement at the given buses secured."""
        secured = set(self.secured)
        for bus in buses:
            secured.update(self.measurements_at_bus(bus))
        return MeasurementPlan(
            self.grid, set(self.taken), secured, set(self.inaccessible)
        )

    def with_secured_measurements(self, measurements: Iterable[int]) -> "MeasurementPlan":
        return MeasurementPlan(
            self.grid,
            set(self.taken),
            set(self.secured) | set(measurements),
            set(self.inaccessible),
        )


def build_h(
    grid: Grid,
    reference_bus: int = 1,
    taken: Optional[Sequence[int]] = None,
    mapped_lines: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Build the DC Jacobian H (paper Eq. 2) for the mapped topology.

    Rows follow the potential-measurement numbering restricted to
    ``taken`` (sorted); columns are bus angles with the reference bus
    removed.  Measurements on unmapped lines produce all-zero rows (the
    estimator does not relate them to any state), matching the topology-
    poisoning semantics of Section III-E.
    """
    import numpy as np

    l, b = grid.num_lines, grid.num_buses
    mapped = set(range(1, l + 1)) if mapped_lines is None else set(mapped_lines)
    plan_rows = sorted(taken) if taken is not None else list(range(1, 2 * l + b + 1))
    columns = [j for j in range(1, b + 1) if j != reference_bus]
    col_of = {bus: k for k, bus in enumerate(columns)}
    h = np.zeros((len(plan_rows), len(columns)))

    def add(row: int, bus: int, coeff: float) -> None:
        if bus != reference_bus:
            h[row, col_of[bus]] += coeff

    for row, meas in enumerate(plan_rows):
        if meas <= l:  # forward flow of line `meas`
            line = grid.line(meas)
            if line.index in mapped:
                add(row, line.from_bus, float(line.admittance))
                add(row, line.to_bus, -float(line.admittance))
        elif meas <= 2 * l:  # backward flow
            line = grid.line(meas - l)
            if line.index in mapped:
                add(row, line.from_bus, -float(line.admittance))
                add(row, line.to_bus, float(line.admittance))
        else:  # bus consumption (Eq. 4: incoming minus outgoing)
            bus = meas - 2 * l
            for line in grid.lines_at(bus):
                if line.index not in mapped:
                    continue
                sign = 1.0 if line.to_bus == bus else -1.0
                add(row, line.from_bus, sign * float(line.admittance))
                add(row, line.to_bus, -sign * float(line.admittance))
    return h


def build_measurements(
    plan: MeasurementPlan,
    flow: DcFlowResult,
    noise_std: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """The telemetered measurement vector z for an operating point.

    Values follow the same ordering as :func:`build_h` with
    ``taken=plan.taken_in_order()``.  Optional Gaussian noise models
    meter error.
    """
    import numpy as np

    values: List[float] = []
    for meas in plan.taken_in_order():
        kind, element = plan.classify(meas)
        if kind == "forward":
            values.append(flow.flow(element))
        elif kind == "backward":
            values.append(-flow.flow(element))
        else:
            values.append(flow.consumption(element))
    z = np.array(values)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        z = z + rng.normal(0.0, noise_std, size=z.shape)
    return z
