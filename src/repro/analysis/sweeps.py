"""Shared experiment configurations for the evaluation sweeps.

The paper's Figures 4 and 5 vary four knobs: test-system size,
percentage of taken measurements, the attacker's resource limit and
(for synthesis) the operator budget.  This module pins down the
remaining degrees of freedom deterministically so every benchmark run
measures the same instances.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.core.verification import VerificationResult, VerificationSession
    from repro.runtime import RuntimeOptions

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.estimation.measurement import MeasurementPlan
from repro.estimation.observability import analyze_observability
from repro.grid.cases import load_case
from repro.grid.model import Grid


def default_targets(grid: Grid, count: int = 3) -> List[int]:
    """Deterministic representative target buses: spread across the grid.

    Buses at the 25th/50th/75th percentile of the bus numbering,
    skipping the reference bus 1 — the paper runs "three experiments
    taking different states to be attacked for each test case".
    """
    candidates = [
        max(2, round(grid.num_buses * q)) for q in (0.25, 0.5, 0.75, 0.35, 0.65)
    ]
    out: List[int] = []
    for bus in candidates:
        if bus not in out:
            out.append(bus)
        if len(out) == count:
            break
    return out


def measurement_subset(grid: Grid, fraction: float, seed: int = 0) -> Set[int]:
    """A deterministic, observable subset with ~``fraction`` of measurements.

    Keeps all bus-consumption measurements (they alone make the DC
    system observable on a connected grid) and samples the line-flow
    measurements to reach the target count.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    num_potential = 2 * grid.num_lines + grid.num_buses
    target = max(grid.num_buses, round(fraction * num_potential))
    taken = {2 * grid.num_lines + j for j in grid.buses}
    flows = list(range(1, 2 * grid.num_lines + 1))
    rng = random.Random(seed)
    rng.shuffle(flows)
    for meas in flows:
        if len(taken) >= target:
            break
        taken.add(meas)
    plan = MeasurementPlan(grid, taken=set(taken))
    report = analyze_observability(plan)
    if not report.observable:
        raise RuntimeError(
            f"subset of {len(taken)} measurements unexpectedly unobservable"
        )
    return taken


def spec_for_case(
    case_name: str,
    target_bus: Optional[int] = None,
    measurement_fraction: float = 1.0,
    max_measurements: Optional[int] = None,
    max_buses: Optional[int] = None,
    seed: int = 0,
    any_state: bool = False,
) -> AttackSpec:
    """The standard sweep instance for one test system.

    Perfect knowledge, full accessibility, no topology attacks — the
    baseline configuration of the scalability experiments; the varied
    knob is whichever argument the caller sweeps.
    """
    grid = load_case(case_name)
    taken = (
        None
        if measurement_fraction >= 1.0
        else measurement_subset(grid, measurement_fraction, seed)
    )
    plan = MeasurementPlan(grid, taken=set(taken) if taken else set())
    if any_state:
        goal = AttackGoal.any()
    else:
        if target_bus is None:
            target_bus = default_targets(grid, 1)[0]
        goal = AttackGoal.states(target_bus)
    return AttackSpec(
        grid=grid,
        plan=plan,
        goal=goal,
        limits=ResourceLimits(
            max_measurements=max_measurements, max_buses=max_buses
        ),
    )


def budget_sweep(
    spec: AttackSpec,
    budgets: Sequence[Optional[int]],
    dimension: str = "measurements",
    session: "Optional[VerificationSession]" = None,
) -> List[Tuple[Optional[int], "VerificationResult"]]:
    """Feasibility of one instance across a range of resource budgets.

    The Figure 4(c) x-axis: the same grid/plan/goal probed at each
    attacker budget (``None`` = unlimited).  Every point is an
    assumption flip on one :class:`VerificationSession` — the grid is
    encoded once for the whole sweep, and the solver's learned clauses
    carry from budget to budget.  Pass ``session`` to share the warm
    encoding with other sweeps or searches of the same spec family.
    """
    from repro.core.verification import VerificationSession

    if dimension not in ("measurements", "buses"):
        raise ValueError("dimension must be 'measurements' or 'buses'")
    if session is None:
        session = VerificationSession(spec)
    elif not session.compatible(spec):
        raise ValueError("session is not compatible with spec")
    rows: List[Tuple[Optional[int], "VerificationResult"]] = []
    for budget in budgets:
        if dimension == "measurements":
            mm, mb = budget, spec.limits.max_buses
        else:
            mm, mb = spec.limits.max_measurements, budget
        rows.append(
            (budget, session.probe(max_measurements=mm, max_buses=mb, goal=spec.goal))
        )
    return rows


def verification_sweep(
    case_names: Sequence[str],
    targets_per_case: int = 3,
    runtime: "Optional[RuntimeOptions]" = None,
) -> List[Tuple[str, int, "VerificationResult"]]:
    """The Figure 4(a) instance grid.

    Builds the standard per-case/per-target verification instances.
    Serially (``runtime=None``) each test case gets one
    :class:`VerificationSession`: the case is encoded once and the
    per-target instances are goal-assumption probes on the same warm
    solver.  Otherwise the sweep executes as one batch through the
    service's batching path (:func:`repro.service.batching
    .verify_specs_batched`, the same code the HTTP API runs), fanning
    out over ``runtime.jobs`` workers, deduping identical instances and
    hitting the result cache on repeats.  Returns
    ``(case_name, target_bus, result)`` rows in deterministic sweep
    order.
    """
    labels: List[Tuple[str, int]] = []
    specs: List[AttackSpec] = []
    for name in case_names:
        grid = load_case(name)
        for target in default_targets(grid, targets_per_case):
            labels.append((name, target))
            specs.append(spec_for_case(name, target_bus=target))

    if runtime is None:
        from repro.core.verification import VerificationSession

        sessions: dict = {}
        results: List["VerificationResult"] = []
        for (name, _target), spec in zip(labels, specs):
            session = sessions.get(name)
            if session is None:
                session = sessions[name] = VerificationSession(spec)
            results.append(session.probe_spec(spec))
    else:
        from repro.service.batching import verify_specs_batched

        results = verify_specs_batched(specs, runtime)
    return [(name, target, result) for (name, target), result in zip(labels, results)]
