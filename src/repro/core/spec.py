"""The UFDI attack model (paper Table I / Section II-C).

An :class:`AttackSpec` bundles everything the verification model needs:

* the grid and measurement plan (``mz``, ``sz``, ``az`` per measurement),
* per-line attributes (``bd``, ``tl``, ``fl``, ``sl``),
* the attacker's goal (target states, exclusivity, pairwise-distinct
  requirements — Eqs. 25-26),
* resource limits (``T_CZ``, ``T_CB`` — Eqs. 22, 24),
* whether topology poisoning is in scope, and in which mode (abstract
  delta-space vs. anchored to a base operating point).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.estimation.measurement import MeasurementPlan
from repro.grid.dcflow import DcFlowResult
from repro.grid.model import Grid


@dataclass(frozen=True)
class LineAttributes:
    """Static, per-line attack-relevant attributes (paper Table II columns).

    ``knows_admittance``  — ``bd_i``: attacker knows the admittance
    ``in_true_topology``  — ``tl_i``: the line is actually in service
    ``fixed``             — ``fl_i``: core-topology line, never opened
    ``status_secured``    — ``sl_i``: status telemetry integrity-protected
    """

    knows_admittance: bool = True
    in_true_topology: bool = True
    fixed: bool = False
    status_secured: bool = False

    def can_exclude(self) -> bool:
        """Eligibility for an exclusion attack (paper Eq. 9)."""
        return self.in_true_topology and not self.fixed and not self.status_secured

    def can_include(self) -> bool:
        """Eligibility for an inclusion attack (paper Eq. 10)."""
        return not self.in_true_topology and not self.status_secured


@dataclass(frozen=True)
class AttackGoal:
    """What the attacker wants (paper Eqs. 25-26).

    ``target_states``   — buses whose estimated state must be corrupted
    ``exclusive``       — if True, *only* the targets may be corrupted
                          (the paper's Attack Objective 2)
    ``distinct_pairs``  — bus pairs whose state changes must differ
                          (Eq. 26; defeats trivial island-shift attacks)
    ``any_state``       — require at least one corrupted state; this is
                          the goal used when synthesizing architectures
                          that must resist *every* UFDI attack
    """

    target_states: FrozenSet[int] = frozenset()
    exclusive: bool = False
    distinct_pairs: Tuple[Tuple[int, int], ...] = ()
    any_state: bool = False

    @staticmethod
    def states(*buses: int, exclusive: bool = False) -> "AttackGoal":
        return AttackGoal(target_states=frozenset(buses), exclusive=exclusive)

    @staticmethod
    def any() -> "AttackGoal":
        """Some state — any state — must be corrupted."""
        return AttackGoal(any_state=True)

    def with_distinct(self, *pairs: Tuple[int, int]) -> "AttackGoal":
        return replace(self, distinct_pairs=self.distinct_pairs + tuple(pairs))


@dataclass(frozen=True)
class ResourceLimits:
    """The attacker's simultaneous-attack capability (Eqs. 22, 24).

    ``max_measurements`` — ``T_CZ``; None means unlimited
    ``max_buses``        — ``T_CB``; None means unlimited
    """

    max_measurements: Optional[int] = None
    max_buses: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_measurements", "max_buses"):
            limit = getattr(self, name)
            if limit is not None and (
                type(limit) is bool or not isinstance(limit, int) or limit < 0
            ):
                raise ValueError(
                    f"{name} must be None or an integer >= 0, not {limit!r}"
                )


@dataclass(frozen=True)
class AttackSpec:
    """A complete UFDI attack verification problem.

    ``base_flows`` switches topology poisoning to operating-point mode:
    when provided (line index -> true base flow), an excluded line's
    flow measurement must move to exactly zero and an included line's
    to its phantom base flow.  Without it the model uses the paper's
    abstract delta-space semantics (any nonzero coordinated change).
    """

    grid: Grid
    plan: MeasurementPlan
    line_attrs: Mapping[int, LineAttributes] = field(default_factory=dict)
    goal: AttackGoal = AttackGoal()
    limits: ResourceLimits = ResourceLimits()
    reference_bus: int = 1
    allow_topology_attack: bool = False
    strict_knowledge: bool = False
    base_flows: Optional[Mapping[int, float]] = None
    base_angles: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        if self.plan.grid is not self.grid and (
            self.plan.grid.num_buses != self.grid.num_buses
            or self.plan.grid.lines != self.grid.lines
        ):
            raise ValueError("plan.grid must match the spec's grid")
        if not 1 <= self.reference_bus <= self.grid.num_buses:
            raise ValueError(f"reference bus {self.reference_bus} out of range")
        self.check_goal(self.goal)
        for i in self.line_attrs:
            if not 1 <= i <= self.grid.num_lines:
                raise ValueError(f"line attribute for unknown line {i}")

    def check_goal(self, goal: AttackGoal) -> None:
        """Raise ValueError unless every target state of ``goal`` is a
        bus of the grid other than the reference bus."""
        for bus in goal.target_states:
            if not 1 <= bus <= self.grid.num_buses:
                raise ValueError(f"target state {bus} out of range")
            if bus == self.reference_bus:
                raise ValueError("the reference bus's state cannot be a target")

    # ------------------------------------------------------------------
    # accessors with defaults
    # ------------------------------------------------------------------
    def attrs(self, line_index: int) -> LineAttributes:
        return self.line_attrs.get(line_index, LineAttributes())

    def unknown_admittance_lines(self) -> List[int]:
        return [
            line.index
            for line in self.grid.lines
            if not self.attrs(line.index).knows_admittance
        ]

    def topology_attackable_lines(self) -> List[int]:
        """Lines eligible for exclusion or inclusion under this spec."""
        if not self.allow_topology_attack:
            return []
        out = []
        for line in self.grid.lines:
            a = self.attrs(line.index)
            if a.can_exclude() or a.can_include():
                out.append(line.index)
        return out

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @staticmethod
    def default(
        grid: Grid,
        goal: AttackGoal = AttackGoal(),
        limits: ResourceLimits = ResourceLimits(),
        reference_bus: int = 1,
        **kwargs,
    ) -> "AttackSpec":
        """Everything taken/accessible, perfect knowledge, no poisoning."""
        return AttackSpec(
            grid=grid,
            plan=MeasurementPlan(grid),
            goal=goal,
            limits=limits,
            reference_bus=reference_bus,
            **kwargs,
        )

    def with_goal(self, goal: AttackGoal) -> "AttackSpec":
        return replace(self, goal=goal)

    def with_limits(self, limits: ResourceLimits) -> "AttackSpec":
        return replace(self, limits=limits)

    def with_plan(self, plan: MeasurementPlan) -> "AttackSpec":
        return replace(self, plan=plan)

    def with_secured_buses(self, buses: Iterable[int]) -> "AttackSpec":
        """The spec under a bus-level security architecture (Eq. 28)."""
        return replace(self, plan=self.plan.with_secured_buses(buses))

    def with_secured_measurements(self, measurements: Iterable[int]) -> "AttackSpec":
        return replace(self, plan=self.plan.with_secured_measurements(measurements))

    def with_operating_point(self, flow: DcFlowResult) -> "AttackSpec":
        """Anchor topology-poisoning semantics to a base operating point."""
        base_flows = {line.index: flow.flow(line.index) for line in self.grid.lines}
        base_angles = {bus: flow.angle(bus) for bus in self.grid.buses}
        return replace(self, base_flows=base_flows, base_angles=base_angles)
