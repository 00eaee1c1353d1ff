"""Minimum-cost attack analytics.

The verification model answers *whether* an attack within given budgets
exists; operators also want the *cheapest* attack — the smallest number
of measurement injections (or compromised substations) that still
achieves a goal.  That boundary is exactly where the paper's Figure 4(c)
curves flatten, and it doubles as a per-state security metric: states
with expensive cheapest-attacks are well protected.

Implemented as a binary search over the budget.  Every probe is an
assumption flip on one warm
:class:`repro.core.verification.VerificationSession` — the grid is
encoded exactly once for the whole search and learned clauses carry
across probes, the optimization loop Z3 users would write with
``push``/``pop``.  The session builds a budget counter only when a
probe first binds the searched dimension, sized to that probe
(O(n*k) clauses, not O(n^2)), so the one path also holds on
1000-bus grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationResult, VerificationSession


@dataclass(frozen=True)
class MinCostResult:
    """The cheapest attack satisfying a spec's goal.

    ``cost`` is None when no attack exists within the allowed budget
    (the goal is infeasible even unconstrained, or it needs more than
    the caller's ``upper_bound``).
    """

    cost: Optional[int]
    attack: Optional[AttackVector]
    probes: int  # number of verification calls spent


def attack_cost(attack: AttackVector, dimension: str, spec: AttackSpec) -> int:
    """A witness's cost: altered measurements, or compromised buses."""
    if dimension == "measurements":
        return len(attack.altered_measurements)
    return len(attack.compromised_buses(spec.plan))


def search_min_cost(
    probe: Callable[[Optional[int]], VerificationResult],
    cost_of: Callable[[AttackVector], int],
    upper_bound: Optional[int] = None,
) -> Tuple[Optional[int], Optional[AttackVector]]:
    """The binary search behind :func:`minimum_attack_cost`.

    ``probe(budget)`` answers feasibility at one budget (``None`` =
    unlimited) and ``cost_of`` prices a witness.  Returns ``(cost,
    cheapest witness)``, or ``(None, None)`` when no attack fits.  Any
    probe source — a warm session, or a remote service's verify jobs —
    runs the same probe sequence.
    """
    unconstrained = probe(None)
    if not unconstrained.attack_exists:
        return None, None
    best_attack = unconstrained.attack
    high = cost_of(best_attack)
    if upper_bound is not None and upper_bound < high:
        # The unconstrained witness overshoots the cap; feasibility at
        # the cap is genuinely open and must be probed, not assumed.
        capped = probe(upper_bound)
        if not capped.attack_exists:
            return None, None
        best_attack = capped.attack
        high = min(upper_bound, cost_of(best_attack))

    low = 0
    # invariant: a budget of `high` is feasible, a budget of `low` is not
    # (budget 0 is infeasible unless the unconstrained attack is empty)
    while low + 1 < high:
        mid = (low + high) // 2
        result = probe(mid)
        if result.attack_exists:
            high = mid
            best_attack = result.attack
        else:
            low = mid
    return high, best_attack


def minimum_attack_cost(
    spec: AttackSpec,
    dimension: str = "measurements",
    upper_bound: Optional[int] = None,
    session: Optional[VerificationSession] = None,
    secured_buses: Sequence[int] = (),
) -> MinCostResult:
    """Binary-search the smallest budget at which the goal stays feasible.

    ``dimension`` is ``"measurements"`` (T_CZ) or ``"buses"`` (T_CB).
    Any limit the spec already carries in the *other* dimension is kept,
    so joint questions ("cheapest attack touching at most 3 substations")
    compose naturally.

    Every probe runs on one :class:`VerificationSession` — exactly one
    grid encoding for the whole search.  Pass ``session`` to amortize
    that encoding across *multiple* searches of the same spec family
    (it must be :meth:`VerificationSession.compatible` with ``spec``).

    ``secured_buses`` asks for the cheapest attack that evades extra
    protection on those buses; it requires a session built with
    ``symbolic_security=True``.
    """
    if dimension not in ("measurements", "buses"):
        raise ValueError("dimension must be 'measurements' or 'buses'")
    if session is not None and not session.compatible(spec):
        raise ValueError("session is not compatible with spec")
    if session is None:
        session = VerificationSession(
            spec, symbolic_security=bool(secured_buses)
        )
    probes = 0

    def probe(budget: Optional[int]):
        nonlocal probes
        probes += 1
        if dimension == "measurements":
            mm, mb = budget, spec.limits.max_buses
        else:
            mm, mb = spec.limits.max_measurements, budget
        return session.probe(
            max_measurements=mm,
            max_buses=mb,
            goal=spec.goal,
            secured_buses=secured_buses,
        )

    cost, attack = search_min_cost(
        probe, lambda witness: attack_cost(witness, dimension, spec), upper_bound
    )
    return MinCostResult(cost, attack, probes)


def state_searches(
    spec: AttackSpec,
    dimension: str = "measurements",
    session: Optional[VerificationSession] = None,
) -> Dict[int, MinCostResult]:
    """One cheapest-attack search per state (the reference bus excluded).

    The goal of ``spec`` is replaced by each single state's goal.  One
    verification session carries every per-state search: the grid is
    encoded once and each state's probes are goal-assumption flips on
    the same warm solver.  The default session is opened on the spec's
    family with its goal cleared, so a spec whose goal has ``distinct``
    pairs searches as well.
    """
    if session is None:
        session = VerificationSession(spec.with_goal(AttackGoal.any()))
    return {
        bus: minimum_attack_cost(
            spec.with_goal(AttackGoal.states(bus)),
            dimension=dimension,
            session=session,
        )
        for bus in spec.grid.buses
        if bus != spec.reference_bus
    }


def state_attack_costs(
    spec: AttackSpec,
    dimension: str = "measurements",
    session: Optional[VerificationSession] = None,
) -> Dict[int, Optional[int]]:
    """The cheapest-attack cost for every individual state.

    A per-bus security metric in the spirit of Vukovic et al. [10]:
    buses whose state can be corrupted with few injections are the
    grid's weak points and the natural first targets for securing.
    It reduces :func:`state_searches` to the costs.
    """
    searches = state_searches(spec, dimension, session=session)
    return {bus: result.cost for bus, result in searches.items()}
