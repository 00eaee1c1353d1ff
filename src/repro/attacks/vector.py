"""The attack-vector exchange format.

An :class:`AttackVector` captures everything an adversary does in one
coordinated UFDI attack: per-measurement injections (in the paper's
1-based potential-measurement numbering), the induced state corruption,
and any topology poisoning.  It can be *applied* to a telemetered
measurement vector to produce what the control center receives, which is
how the integration tests replay formally derived attacks against the
numerical WLS estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Mapping, Optional

from repro.estimation.measurement import MeasurementPlan

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AttackVector:
    """One coordinated false-data-injection attack.

    ``measurement_deltas`` — injected change per potential measurement
    (``a`` in the paper; only nonzero entries present)
    ``state_deltas``       — resulting estimated-state corruption per bus
    (``c`` in the paper)
    ``excluded_lines`` / ``included_lines`` — topology poisoning, if any
    """

    measurement_deltas: Mapping[int, float] = field(default_factory=dict)
    state_deltas: Mapping[int, float] = field(default_factory=dict)
    excluded_lines: FrozenSet[int] = frozenset()
    included_lines: FrozenSet[int] = frozenset()

    @property
    def altered_measurements(self) -> List[int]:
        return sorted(k for k, v in self.measurement_deltas.items() if v != 0)

    @property
    def attacked_states(self) -> List[int]:
        return sorted(k for k, v in self.state_deltas.items() if v != 0)

    @property
    def uses_topology_poisoning(self) -> bool:
        return bool(self.excluded_lines or self.included_lines)

    def compromised_buses(self, plan: MeasurementPlan) -> List[int]:
        """Substations the attacker must compromise (residency, Eq. 23)."""
        return sorted(
            {plan.residence_bus(meas) for meas in self.altered_measurements}
        )

    def scaled(self, factor: float) -> "AttackVector":
        """A rescaled copy (UFDI constraint systems are homogeneous)."""
        return AttackVector(
            {k: v * factor for k, v in self.measurement_deltas.items()},
            {k: v * factor for k, v in self.state_deltas.items()},
            self.excluded_lines,
            self.included_lines,
        )

    def apply_to(self, z: np.ndarray, plan: MeasurementPlan) -> np.ndarray:
        """Inject into a measurement vector ordered by ``plan.taken_in_order()``.

        Raises if the attack touches an untaken or secured measurement
        (a secured meter's data-integrity protection defeats injection).
        """
        import numpy as np

        taken = plan.taken_in_order()
        if z.shape != (len(taken),):
            raise ValueError(
                f"z has shape {z.shape}, expected ({len(taken)},) for this plan"
            )
        position = {meas: i for i, meas in enumerate(taken)}
        out = np.array(z, dtype=float)
        for meas in self.altered_measurements:
            if meas not in position:
                raise ValueError(f"attack alters untaken measurement {meas}")
            if plan.is_secured(meas):
                raise ValueError(f"attack alters secured measurement {meas}")
            out[position[meas]] += self.measurement_deltas[meas]
        return out

    def summary(self, plan: Optional[MeasurementPlan] = None) -> str:
        """Human-readable multi-line description."""
        lines = [
            f"altered measurements ({len(self.altered_measurements)}): "
            f"{self.altered_measurements}",
            f"attacked states: {self.attacked_states}",
        ]
        if plan is not None:
            lines.append(f"compromised buses: {self.compromised_buses(plan)}")
        if self.excluded_lines:
            lines.append(f"excluded lines: {sorted(self.excluded_lines)}")
        if self.included_lines:
            lines.append(f"included lines: {sorted(self.included_lines)}")
        return "\n".join(lines)
