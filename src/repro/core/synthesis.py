"""Security architecture synthesis (paper Section IV, Algorithm 1).

An iterative combination of two formal models:

* the **candidate selection model** — picks a set of buses to secure,
  subject to the operator's budget ``T_SB`` (Eq. 27), operator-excluded
  buses (Eq. 29) and the analytic neighbour-pruning constraint (Eq. 30);
* the **UFDI verification model** — checks whether the candidate blocks
  every attack admitted by the security requirements (the attack spec).

When a candidate fails, Algorithm 1 adds a constraint removing it from
the candidate space and iterates.  This implementation strengthens the
paper's blocking step with *counterexample-guided* refinement (the
default): a failed candidate yields a concrete attack that compromises
buses ``CB``; since the attack remains valid under any architecture
disjoint from ``CB``, the clause ``OR_{j in CB} sb_j`` soundly prunes
every such architecture at once.  The paper's literal single-candidate
blocking is available as ``blocking="exact"``, and subset blocking
(a failed candidate's subsets also fail) as ``blocking="subset"``.

The verification model is built once with symbolic security variables
(Eq. 28 wired inside) and re-checked under assumptions, mirroring the
push/pop usage of the paper's Z3 implementation.

One loop serves single-spec synthesis, synthesis against a list of
specs and the enumeration of alternative architectures.  A successful
candidate is additionally *core-minimized* (on by default): the UNSAT
proof's failed-assumption core names the secured buses the proof
actually used, and — because assumption-based UNSAT is monotone in the
assumption set — that subset is itself a valid architecture.  The
minimized set is re-verified before being returned.  A core is only as
small as the proof the search happens to find, so the enumeration
also drops bus by bus what still blocks without it, which makes its
answers subset-minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, List, Optional, Sequence

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackSpec
from repro.core.verification import UfdiEncoder
from repro.smt import Not, Or, Result, Solver, implies


class SynthesisError(RuntimeError):
    """The synthesis loop could not reach a conclusion."""


@dataclass(frozen=True)
class SynthesisSettings:
    """Operator-side configuration (paper Eqs. 27, 29, 30).

    ``max_secured_buses``    — the budget ``T_SB``
    ``excluded_buses``       — buses the operator cannot secure (Eq. 29)
    ``neighbor_pruning``     — apply the analytic constraint (Eq. 30)
    ``blocking``             — ``"counterexample"`` (default), ``"subset"``
                               or ``"exact"`` (the paper's Algorithm 1 verbatim)
    ``core_minimize``        — shrink winning candidates to the secured
                               buses their UNSAT proof actually used
    ``max_iterations``       — safety bound on loop length
    """

    max_secured_buses: int
    excluded_buses: frozenset = frozenset()
    neighbor_pruning: bool = True
    blocking: str = "counterexample"
    core_minimize: bool = True
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if self.max_secured_buses < 0:
            raise ValueError("budget must be nonnegative")
        if self.blocking not in ("counterexample", "subset", "exact"):
            raise ValueError(f"unknown blocking mode {self.blocking!r}")
        limit = self.max_iterations
        if type(limit) is bool or not isinstance(limit, int) or limit < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, not {limit!r}")


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run.

    When core minimization ran, ``uncored_architecture`` holds the raw
    candidate the selection model produced; ``architecture`` is then its
    (never larger, re-verified) core-minimized subset.  That is minimal
    only as far as the proofs' cores reach: a bus a proof used may still
    be droppable (:func:`enumerate_architectures` drops such buses).
    """

    architecture: Optional[List[int]]  # secured buses (or measurements)
    iterations: int
    runtime_seconds: float
    counterexamples: List[AttackVector] = field(default_factory=list)
    uncored_architecture: Optional[List[int]] = None

    @property
    def feasible(self) -> bool:
        return self.architecture is not None


def check_excluded_buses(spec: AttackSpec, settings: SynthesisSettings) -> None:
    """Raise ``ValueError`` unless every excluded bus is a bus of the grid."""
    unknown = set(settings.excluded_buses) - set(spec.grid.buses)
    if unknown:
        raise ValueError(
            f"excluded buses {sorted(unknown)} are not buses of the "
            f"grid (1..{spec.grid.num_buses})"
        )


def _candidate_model(
    spec: AttackSpec, settings: SynthesisSettings
) -> tuple[Solver, dict]:
    """Build the candidate security architecture selection model."""
    check_excluded_buses(spec, settings)
    solver = Solver()
    sb = {j: solver.bool_var(f"sb_{j}") for j in spec.grid.buses}
    solver.add_at_most(list(sb.values()), settings.max_secured_buses)  # Eq. 27
    for j in settings.excluded_buses:  # Eq. 29
        solver.add(Not(sb[j]))
    if settings.neighbor_pruning:  # Eq. 30
        plan = spec.plan
        for line in spec.grid.lines:
            fwd_taken = plan.is_taken(plan.forward_index(line.index))
            bwd_taken = plan.is_taken(plan.backward_index(line.index))
            if fwd_taken:
                solver.add(implies(sb[line.from_bus], Not(sb[line.to_bus])))
            if bwd_taken:
                solver.add(implies(sb[line.to_bus], Not(sb[line.from_bus])))
    return solver, sb


def _algorithm_1(
    specs: Sequence[AttackSpec],
    settings: SynthesisSettings,
    collect_counterexamples: bool,
    subset_minimal: bool = False,
) -> Iterator[SynthesisResult]:
    """Algorithm 1 against every spec in ``specs``, one answer at a time.

    Each candidate is checked on every spec's warm verifier, and the
    lowest-indexed SAT spec's attack blocks it.  A candidate that blocks
    every spec is shrunk to the union of its proofs' cores when that
    union re-verifies (``core_minimize``) and, with ``subset_minimal``,
    then bus by bus, and yielded; resuming blocks it and its supersets.
    Once no candidate is left, an infeasible result is yielded last.
    The generator also stops after the empty architecture, and at
    ``max_iterations`` without a result.
    """
    start = time.perf_counter()
    selector, sb = _candidate_model(specs[0], settings)
    verifiers = [UfdiEncoder(spec, symbolic_security=True) for spec in specs]

    def check_all(candidate: List[int]) -> List[Result]:
        return [verifier.check(secured_buses=candidate) for verifier in verifiers]

    counterexamples: List[AttackVector] = []
    iterations = 0
    while iterations < settings.max_iterations:
        iterations += 1
        if selector.check() is not Result.SAT:
            yield SynthesisResult(
                None, iterations, time.perf_counter() - start, counterexamples
            )
            return
        model = selector.model()
        candidate = sorted(j for j, var in sb.items() if model.value(var))
        outcomes = check_all(candidate)
        failed = next(
            (i for i, outcome in enumerate(outcomes) if outcome is Result.SAT), None
        )
        if failed is not None:
            attack = verifiers[failed].extract_attack()
            if collect_counterexamples:
                counterexamples.append(attack)
            _block_candidate(selector, sb, specs[failed], settings, candidate, attack)
            continue
        if any(outcome is not Result.UNSAT for outcome in outcomes):
            raise SynthesisError("verification returned UNKNOWN")
        architecture, uncored = candidate, None
        if settings.core_minimize:
            # Every spec's proof used only its own core, so (monotonicity)
            # the union of the cores blocks every spec once re-verified.
            uncored = candidate
            union = sorted({j for v in verifiers for j in v.core_secured_buses()})
            if len(union) < len(candidate) and all(
                outcome is Result.UNSAT for outcome in check_all(union)
            ):
                architecture = union
        if subset_minimal:
            for bus in list(architecture):
                trial = [j for j in architecture if j != bus]
                if all(
                    verifier.check(secured_buses=trial) is Result.UNSAT
                    for verifier in verifiers
                ):
                    architecture = trial
        yield SynthesisResult(
            architecture,
            iterations,
            time.perf_counter() - start,
            counterexamples,
            uncored_architecture=uncored,
        )
        if not architecture:
            return  # the empty architecture works; nothing else is minimal
        selector.add(Or(*[Not(sb[j]) for j in architecture]))


def _conclusion(
    loop: Iterator[SynthesisResult], settings: SynthesisSettings
) -> SynthesisResult:
    for result in loop:
        return result
    raise SynthesisError(f"no conclusion after {settings.max_iterations} iterations")


def synthesize_architecture(
    spec: AttackSpec,
    settings: SynthesisSettings,
    collect_counterexamples: bool = False,
) -> SynthesisResult:
    """Find a bus set whose securing makes the attack spec UNSAT.

    Returns an infeasible result (``architecture=None``) when no
    architecture within the budget resists the attack model.  The
    architecture is minimal only as far as the UNSAT proof's core
    reaches; :func:`enumerate_architectures` returns subset-minimal ones.
    """
    return _conclusion(
        _algorithm_1([spec], settings, collect_counterexamples), settings
    )


def _block_candidate(
    selector: Solver,
    sb: dict,
    spec: AttackSpec,
    settings: SynthesisSettings,
    candidate: Sequence[int],
    attack: AttackVector,
) -> None:
    if settings.blocking == "counterexample":
        compromised = attack.compromised_buses(spec.plan)
        usable = [j for j in compromised if j not in settings.excluded_buses]
        if not usable:
            # The attack needs no (securable) measurement alterations —
            # no bus architecture can ever stop it.
            selector.add(Or())  # empty clause: selection model becomes UNSAT
            return
        selector.add(Or(*[sb[j] for j in usable]))
        return
    if settings.blocking == "subset":
        others = [sb[j] for j in spec.grid.buses if j not in set(candidate)]
        selector.add(Or(*others) if others else Or())
        return
    # exact: forbid this precise assignment (paper Algorithm 1, line 14)
    literals = []
    candidate_set = set(candidate)
    for j in spec.grid.buses:
        literals.append(Not(sb[j]) if j in candidate_set else sb[j])
    selector.add(Or(*literals))


def enumerate_architectures(
    spec: AttackSpec,
    settings: SynthesisSettings,
    limit: int = 10,
) -> List[List[int]]:
    """Enumerate (up to ``limit``) minimal-by-inclusion architectures.

    Each answer is shrunk to its UNSAT core (with ``core_minimize``, the
    default) and then bus by bus, keeping each drop that still blocks
    the attack, so no bus of an answer can be dropped.  The clause
    ``OR_{j in S} not sb_j`` then blocks the answer S and all its
    supersets, so the enumeration walks an antichain.
    """
    loop = _algorithm_1([spec], settings, False, subset_minimal=True)
    return [r.architecture for r in islice(loop, limit) if r.architecture is not None]


def synthesize_against_all(
    specs: Sequence[AttackSpec],
    settings: SynthesisSettings,
) -> SynthesisResult:
    """Synthesize one architecture resisting a *list* of attack models.

    The paper frames synthesis "with respect to a list of security
    requirements"; each requirement is an attack spec (they must share
    the same grid and measurement plan — they may differ in goals,
    limits, knowledge and topology capability).  A candidate passes
    only when *every* verification model is UNSAT; the lowest-indexed
    SAT model contributes its counterexample clause.
    """
    if not specs:
        raise ValueError("need at least one attack spec")
    base = specs[0]
    for other in specs[1:]:
        if other.grid.lines != base.grid.lines or other.plan.taken != base.plan.taken:
            raise ValueError("all specs must share the grid and measurement plan")
    return _conclusion(_algorithm_1(specs, settings, True), settings)


def _core_minimize(verifier: UfdiEncoder, candidate: Sequence[int]) -> List[int]:
    """Shrink an UNSAT measurement candidate to what its proof used.

    The failed-assumption core is a subset of the candidate, and UNSAT
    under assumptions is monotone (adding assumptions back cannot make
    the formula satisfiable), so the core is itself a blocking
    architecture.  The shrunken set is re-verified before being trusted;
    on the (theoretically impossible) chance the re-check does not come
    back UNSAT, the full candidate is returned unchanged.
    """
    core = verifier.core_secured_measurements()
    if len(core) >= len(candidate):
        return sorted(candidate)
    if verifier.check(secured_measurements=core) is Result.UNSAT:
        return core
    return sorted(candidate)


def synthesize_measurement_architecture(
    spec: AttackSpec,
    max_secured_measurements: int,
    max_iterations: int = 100_000,
    core_minimize: bool = True,
) -> SynthesisResult:
    """The measurement-level synthesis variant (paper Section IV-A).

    Selects individual measurements to data-integrity-protect instead of
    whole substations; same counterexample-guided loop, same
    core-minimization of the winning candidate.
    """
    start = time.perf_counter()
    verifier = UfdiEncoder(spec, symbolic_security=True)
    attackable = sorted(verifier.sz)  # measurements with securing variables
    selector = Solver()
    sm = {i: selector.bool_var(f"sm_{i}") for i in attackable}
    if sm:
        selector.add_at_most(list(sm.values()), max_secured_measurements)
    counterexamples: List[AttackVector] = []
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        if selector.check() is not Result.SAT:
            return SynthesisResult(
                None, iterations, time.perf_counter() - start, counterexamples
            )
        model = selector.model()
        candidate = sorted(i for i, var in sm.items() if model.value(var))
        outcome = verifier.check(secured_measurements=candidate)
        if outcome is Result.UNSAT:
            architecture = candidate
            uncored = None
            if core_minimize:
                architecture = _core_minimize(verifier, candidate)
                uncored = candidate
            return SynthesisResult(
                architecture,
                iterations,
                time.perf_counter() - start,
                counterexamples,
                uncored_architecture=uncored,
            )
        if outcome is not Result.SAT:
            raise SynthesisError("verification returned UNKNOWN")
        attack = verifier.extract_attack()
        counterexamples.append(attack)
        altered = [i for i in attack.altered_measurements if i in sm]
        if not altered:
            return SynthesisResult(
                None, iterations, time.perf_counter() - start, counterexamples
            )
        selector.add(Or(*[sm[i] for i in altered]))
    raise SynthesisError(f"no conclusion after {max_iterations} iterations")
