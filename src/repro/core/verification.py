"""The UFDI attack verification model (paper Section III).

Encodes the feasibility of an undetected false data injection attack —
including topology poisoning — as a QF_LRA constraint system, decided
by the bundled SMT solver (:mod:`repro.smt`).  The tests cross-check
its verdicts against a mirrored MILP
(:func:`repro.milp.backend.verify_milp`).

Constraint inventory (numbers refer to the paper's equations; the OCR
of Section III-E/F garbles a few, the reconstruction below is validated
end-to-end against the numerical WLS estimator in the integration
tests):

* Eq. 5   ``cx_j <-> (dtheta_j != 0)`` — the paper states the forward
  implication; the converse is required for the measurement-coupling
  chain to be meaningful and is included (an un-attacked state does not
  move).  The reference bus is pinned to 0.
* Eq. 6/7 state-induced line-flow delta: for a *mapped* line,
  ``dpS_i = ld_i (dtheta_f - dtheta_t)``; for an unmapped line 0.
* Eq. 8   mapped-topology definition: ``ml_i <-> (tl_i and not el_i) or
  (not tl_i and il_i)``.
* Eq. 9   ``el_i -> tl_i and not fl_i and not sl_i``.
* Eq. 10  ``il_i -> not tl_i and not sl_i``.
* Eq. 11/12 topology-induced delta ``dpT_i``: zero without poisoning;
  on exclusion the reported flow must drop to zero, on inclusion a
  nonzero flow must appear.  In the default (abstract, homogeneous)
  mode this is ``|dpT_i| >= eps``; when the spec carries a base
  operating point it is pinned to ``-P0_i`` (exclusion) or the phantom
  base flow (inclusion).
* Eq. 13  ``dpTotal_i = dpS_i + dpT_i``.
* Eq. 14  bus-consumption delta: incoming minus outgoing totals.
* Eq. 15/16 measurement coupling: for a taken measurement,
  ``cz <-> (delta != 0)``; untaken measurements are unconstrained, and
  a nonzero delta on a taken-but-unalterable measurement is forbidden.
* Eq. 17/18 knowledge: altering a line's flow measurements requires
  knowing its admittance (``strict_knowledge`` additionally pins the
  angle difference across unknown lines).
* Eq. 19-21 accessibility and security: ``cz_i -> az_i and not sz_i``.
* Eq. 22  ``sum cz <= T_CZ``.
* Eq. 23/24 bus compromise: ``cz -> cb_(residence bus)``,
  ``sum cb <= T_CB``.
* Eq. 25  attack goal (with an *exclusive* mode for "attack state j
  only").
* Eq. 26  pairwise-distinct state changes.

Disequalities use the ``eps`` tolerance encoding, which is
satisfiability-exact here because the abstract constraint system is
homogeneous (any solution rescales); see DESIGN.md.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackGoal, AttackSpec
from repro.obs.trace import get_tracer
from repro.smt import (
    And,
    BoolVar,
    FALSE,
    IncrementalAtMost,
    LinExpr,
    Not,
    Or,
    RealVar,
    Result,
    Solver,
    SolverConfig,
    TRUE,
    eq,
    ge,
    implies,
    le,
    neq_with_eps,
    to_fraction,
)


class VerificationOutcome(enum.Enum):
    ATTACK_EXISTS = "sat"
    SECURE = "unsat"
    UNKNOWN = "unknown"


#: search counters every solve span carries
_SPAN_COUNTERS = (
    "conflicts",
    "restarts",
    "propagations",
    "theory_props",
    "pivots",
    "theory_checks",
    "clauses_exported",
    "clauses_imported",
)


@dataclass
class VerificationResult:
    """Outcome of a UFDI verification run."""

    outcome: VerificationOutcome
    attack: Optional[AttackVector]
    backend: str
    runtime_seconds: float
    statistics: Dict[str, int] = field(default_factory=dict)

    @property
    def attack_exists(self) -> bool:
        return self.outcome is VerificationOutcome.ATTACK_EXISTS


@dataclass
class _LineEncoding:
    """Per-line bookkeeping used during model extraction."""

    total_expr: LinExpr
    el: Optional[BoolVar] = None
    il: Optional[BoolVar] = None


#: Sentinel distinguishing "argument not given" from an explicit None
#: (None is a meaningful budget: unlimited).
_UNSET = object()


class UfdiEncoder:
    """Builds (and re-checks) the verification model for one spec.

    With ``symbolic_security=True`` the per-bus securing decisions
    ``sb_j`` become free boolean variables wired through Eq. 28, so the
    synthesis loop (Algorithm 1) can evaluate candidate architectures
    as solver *assumptions* without re-encoding — the incremental
    push/pop usage of the paper's Z3 implementation.

    With ``symbolic_budgets=True`` the resource limits (Eqs. 22, 24)
    are *not* hard-encoded; instead :meth:`check` enforces the spec's
    limits — or per-call overrides — as assumption literals of
    totalizer counters over ``cz``/``cb``.  The first check that binds
    a dimension at budget ``k`` builds its counter, truncated at
    ``2*(k+1)`` outputs; a later budget past that cap replaces it with
    a larger one.  A budget change is then an assumption flip on a
    warm solver rather than a re-encode.

    With ``symbolic_goal=True`` the goal (Eqs. 25) is likewise left
    out of the static encoding (pairwise-distinct requirements, Eq. 26,
    stay static) and applied per :meth:`check` call, so one encoding
    serves every target-state probe of the same grid/plan family.

    ``sat_config`` is the solver's search configuration (default
    :class:`~repro.smt.sat.SolverConfig`); the configuration race gives
    each contender its own.
    """

    def __init__(
        self,
        spec: AttackSpec,
        epsilon: Optional[Union[int, float, Fraction]] = None,
        symbolic_security: bool = False,
        symbolic_budgets: bool = False,
        symbolic_goal: bool = False,
        sat_config: Optional[SolverConfig] = None,
    ) -> None:
        self.spec = spec
        self.symbolic_security = symbolic_security
        self.symbolic_budgets = symbolic_budgets
        self.symbolic_goal = symbolic_goal
        self.epsilon = to_fraction(
            epsilon if epsilon is not None else self._default_epsilon()
        )
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.solver = Solver(sat_config=sat_config)
        self.dtheta: Dict[int, RealVar] = {}
        self.cx: Dict[int, BoolVar] = {}
        self.cz: Dict[int, BoolVar] = {}
        self.cb: Dict[int, BoolVar] = {}
        self.sb: Dict[int, BoolVar] = {}
        self.sz: Dict[int, BoolVar] = {}
        self.lines: Dict[int, _LineEncoding] = {}
        self.bus_delta: Dict[int, LinExpr] = {}
        # the current counter over cz / cb (symbolic mode; built on demand)
        self.budget_counters: Dict[str, Optional[IncrementalAtMost]] = {
            "cz": None,
            "cb": None,
        }
        self.any_goal: Optional[BoolVar] = None  # gate for "any state moves"
        self._encode()

    # ------------------------------------------------------------------
    def _default_epsilon(self) -> Fraction:
        if self.spec.base_flows is None:
            return Fraction(1)
        nonzero = [
            abs(to_fraction(v)) for v in self.spec.base_flows.values() if v != 0
        ]
        scale = min(nonzero) if nonzero else Fraction(1)
        return scale / 1_000_000

    def _nonzero(self, expr) -> "Or":
        return neq_with_eps(expr, self.epsilon)

    # ------------------------------------------------------------------
    def _encode(self) -> None:
        spec = self.spec
        s = self.solver
        grid = spec.grid
        plan = spec.plan
        ref = spec.reference_bus

        # -- states (Eq. 5) --------------------------------------------
        for j in grid.buses:
            self.dtheta[j] = s.real_var(f"dtheta_{j}")
        s.add(eq(self.dtheta[ref], 0))
        for j in grid.buses:
            if j == ref:
                continue
            cx = s.bool_var(f"cx_{j}")
            self.cx[j] = cx
            s.add(implies(cx, self._nonzero(self.dtheta[j])))
            s.add(implies(Not(cx), eq(self.dtheta[j], 0)))

        # -- per-line flow deltas (Eqs. 6-13) ---------------------------
        for line in grid.lines:
            self.lines[line.index] = self._encode_line(line)

        # -- bus consumption deltas (Eq. 14) ----------------------------
        for j in grid.buses:
            delta = LinExpr({}, Fraction(0))
            for line in grid.lines_at(j):
                total = self.lines[line.index].total_expr
                if line.to_bus == j:
                    delta = delta + total
                else:
                    delta = delta - total
            self.bus_delta[j] = delta

        # -- measurement coupling (Eqs. 15-16, 19) ----------------------
        for line in grid.lines:
            total = self.lines[line.index].total_expr
            self._couple_measurement(plan.forward_index(line.index), total)
            self._couple_measurement(plan.backward_index(line.index), -total)
        for j in grid.buses:
            self._couple_measurement(plan.bus_index(j), self.bus_delta[j])

        # -- knowledge (Eqs. 17-18) -------------------------------------
        for line in grid.lines:
            if spec.attrs(line.index).knows_admittance:
                continue
            for meas in (
                plan.forward_index(line.index),
                plan.backward_index(line.index),
            ):
                if meas in self.cz:
                    s.add(Not(self.cz[meas]))
            if spec.strict_knowledge:
                s.add(
                    eq(self.dtheta[line.from_bus] - self.dtheta[line.to_bus], 0)
                )

        # -- bus compromise (Eq. 23) ------------------------------------
        for meas, cz in self.cz.items():
            bus = plan.residence_bus(meas)
            cb = self.cb.get(bus)
            if cb is None:
                cb = s.bool_var(f"cb_{bus}")
                self.cb[bus] = cb
            s.add(implies(cz, cb))

        # -- resource limits (Eqs. 22, 24) ------------------------------
        # symbolic budgets are counters built by the checks that bind them
        if not self.symbolic_budgets:
            if spec.limits.max_measurements is not None and self.cz:
                s.add_at_most(list(self.cz.values()), spec.limits.max_measurements)
            if spec.limits.max_buses is not None and self.cb:
                s.add_at_most(list(self.cb.values()), spec.limits.max_buses)

        # -- goal (Eqs. 25-26) ------------------------------------------
        if self.symbolic_goal:
            # targets/any/exclusive become per-check assumptions; only
            # the "some state moves" disjunction needs a gate variable
            self.any_goal = s.bool_var("any_goal")
            s.add(implies(self.any_goal, Or(*self.cx.values())))
        else:
            if spec.goal.any_state and self.cx:
                s.add(Or(*self.cx.values()))
            for j in sorted(spec.goal.target_states):
                s.add(self.cx[j])
            if spec.goal.exclusive:
                for j, cx in self.cx.items():
                    if j not in spec.goal.target_states:
                        s.add(Not(cx))
        for a, b in spec.goal.distinct_pairs:
            expr = self._theta_delta(a) - self._theta_delta(b)
            s.add(self._nonzero(expr))

        # -- symbolic bus-level security (Eq. 28) -----------------------
        if self.symbolic_security:
            for j in grid.buses:
                sb = s.bool_var(f"sb_{j}")
                self.sb[j] = sb
                for meas in plan.measurements_at_bus(j):
                    sz = self.sz.get(meas)
                    if sz is not None:
                        s.add(implies(sb, sz))

    def _theta_delta(self, bus: int) -> LinExpr:
        if bus == self.spec.reference_bus:
            return LinExpr({}, Fraction(0))
        return LinExpr.of(self.dtheta[bus])

    # ------------------------------------------------------------------
    def _encode_line(self, line) -> _LineEncoding:
        spec = self.spec
        s = self.solver
        attrs = spec.attrs(line.index)
        admittance = line.admittance
        flow_expr = (
            self._theta_delta(line.from_bus) - self._theta_delta(line.to_bus)
        ) * admittance
        can_ex = spec.allow_topology_attack and attrs.can_exclude()
        can_in = spec.allow_topology_attack and attrs.can_include()

        if attrs.in_true_topology and not can_ex:
            # permanently mapped: pure state-induced delta (Eqs. 6, 12)
            return _LineEncoding(total_expr=flow_expr)
        if not attrs.in_true_topology and not can_in:
            # permanently absent: no delta at all
            return _LineEncoding(total_expr=LinExpr({}, Fraction(0)))

        dp_state = s.real_var(f"dpS_{line.index}")
        dp_topo = s.real_var(f"dpT_{line.index}")
        if can_ex:
            el = s.bool_var(f"el_{line.index}")
            # Eq. 7: excluded (unmapped) line has no state-induced delta
            s.add(implies(el, eq(dp_state, 0)))
            s.add(implies(Not(el), eq(LinExpr.of(dp_state) - flow_expr, 0)))
            s.add(implies(Not(el), eq(dp_topo, 0)))
            if spec.base_flows is not None:
                base = to_fraction(spec.base_flows.get(line.index, 0.0))
                # reported flow must become exactly zero (Section III-E)
                s.add(implies(el, eq(dp_topo, -base)))
            else:
                s.add(implies(el, self._nonzero(dp_topo)))
            return _LineEncoding(
                total_expr=LinExpr.of(dp_state) + dp_topo, el=el
            )
        # inclusion attack on an out-of-service line
        il = s.bool_var(f"il_{line.index}")
        s.add(implies(il, eq(LinExpr.of(dp_state) - flow_expr, 0)))
        s.add(implies(Not(il), eq(dp_state, 0)))
        s.add(implies(Not(il), eq(dp_topo, 0)))
        if spec.base_angles is not None:
            phantom = admittance * (
                to_fraction(spec.base_angles.get(line.from_bus, 0.0))
                - to_fraction(spec.base_angles.get(line.to_bus, 0.0))
            )
            s.add(implies(il, eq(dp_topo, phantom)))
        else:
            # the included line must show a nonzero flow (Section III-E)
            s.add(implies(il, self._nonzero(dp_topo)))
        return _LineEncoding(total_expr=LinExpr.of(dp_state) + dp_topo, il=il)

    # ------------------------------------------------------------------
    def _couple_measurement(self, meas: int, delta_expr: LinExpr) -> None:
        """Eqs. 15-16 and 19-21 for one potential measurement."""
        spec = self.spec
        plan = spec.plan
        s = self.solver
        if not plan.is_taken(meas):
            return  # not recorded: no consistency obligation
        alterable = plan.is_accessible(meas) and not plan.is_secured(meas)
        if not alterable:
            # a taken measurement the attacker cannot touch must not move
            s.add(eq(delta_expr, 0))
            return
        cz = s.bool_var(f"cz_{meas}")
        self.cz[meas] = cz
        s.add(implies(cz, self._nonzero(delta_expr)))
        s.add(implies(Not(cz), eq(delta_expr, 0)))
        if self.symbolic_security:
            sz = s.bool_var(f"sz_{meas}")
            self.sz[meas] = sz
            s.add(implies(cz, Not(sz)))

    # ------------------------------------------------------------------
    # solving and extraction
    # ------------------------------------------------------------------
    def check(
        self,
        secured_buses: Sequence[int] = (),
        secured_measurements: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        max_measurements=_UNSET,
        max_buses=_UNSET,
        goal: Optional[AttackGoal] = None,
    ) -> Result:
        """Decide attack feasibility, optionally under extra security.

        ``secured_buses``/``secured_measurements`` require
        ``symbolic_security=True`` and are applied as assumptions.
        ``max_measurements``/``max_buses`` override the spec's resource
        limits (``symbolic_budgets=True`` only; ``None`` = unlimited),
        and ``goal`` overrides the spec's goal (``symbolic_goal=True``
        only) — both as assumption flips on the warm solver.
        """
        assumptions: List[Union[BoolVar, BoolTerm, int]] = []
        for bus in secured_buses:
            assumptions.append(self.sb[bus])
        for meas in secured_measurements:
            sz = self.sz.get(meas)
            if sz is not None:
                assumptions.append(sz)

        if self.symbolic_budgets:
            mm = self.spec.limits.max_measurements if max_measurements is _UNSET \
                else max_measurements
            mb = self.spec.limits.max_buses if max_buses is _UNSET else max_buses
            for name, k in (("cz", mm), ("cb", mb)):
                lit = None if k is None else self._budget_literal(name, k)
                if lit is not None:
                    assumptions.append(lit)
        elif max_measurements is not _UNSET or max_buses is not _UNSET:
            raise RuntimeError("budget overrides require symbolic_budgets=True")

        if goal is not None and not self.symbolic_goal:
            raise RuntimeError("goal overrides require symbolic_goal=True")
        if self.symbolic_goal:
            if goal is not None:
                self.spec.check_goal(goal)
            active = self.spec.goal if goal is None else goal
            if active.distinct_pairs != self.spec.goal.distinct_pairs:
                raise ValueError(
                    "distinct_pairs are encoded statically; probe goals "
                    "must carry the same pairs as the session's base spec"
                )
            if active.any_state:
                assumptions.append(self.any_goal)
            for j in sorted(active.target_states):
                assumptions.append(self.cx[j])
            if active.exclusive:
                for j, cx in self.cx.items():
                    if j not in active.target_states:
                        assumptions.append(Not(cx))
        return self.solver.check(assumptions, max_conflicts=max_conflicts)

    def _budget_literal(self, name: str, k: int) -> Optional[int]:
        """The assumption enforcing ``sum(name) <= k`` (None: no bind).

        Builds the dimension's counter on the first binding budget, and
        replaces it with a larger one once ``k`` reaches its cap.  An
        outgrown counter's clauses stay in the solver: they only force
        outputs upward, so every learned clause remains valid.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        variables = self.cz if name == "cz" else self.cb
        if k >= len(variables):
            return None
        counter = self.budget_counters[name]
        if counter is None or k >= counter.cap:
            # a cost search's first binding probe is the midpoint below
            # a witness's cost, so twice it covers every later probe
            counter = self.solver.at_most_selector(
                list(variables.values()), cap=2 * (k + 1)
            )
            self.budget_counters[name] = counter
        return counter.at_most(k)

    def solve(
        self,
        span: str = "verify.solve",
        span_attributes: Optional[Mapping[str, Any]] = None,
        start: Optional[float] = None,
        **check_args: Any,
    ) -> VerificationResult:
        """One :meth:`check` as a :class:`VerificationResult`.

        The one exit of every SMT verdict: :func:`verify_attack`,
        :meth:`VerificationSession.probe` and the configuration race
        all answer through here.  The check runs under the tracing span
        ``span``, which records ``span_attributes``, the outcome and the
        search counters.  ``runtime_seconds`` runs from ``start``
        (default: the check's start) to the end of the check; a SAT
        model is read out as the attack vector after the span closes.
        ``check_args`` go to :meth:`check`.
        """
        tracer = get_tracer()
        if tracer.enabled:
            # attach per-phase solver timings (time_bcp/theory/decide/
            # analyze) to the span; the search path is unchanged
            self.solver.set_profile(True)
        if start is None:
            start = time.perf_counter()
        with tracer.span(span, **(span_attributes or {})) as trace_span:
            result = self.check(**check_args)
            runtime = time.perf_counter() - start
            stats = self.statistics()
            trace_span.set(
                outcome=result.value,
                **{key: stats.get(key) for key in _SPAN_COUNTERS},
                **{k: v for k, v in stats.items() if k.startswith("time_")},
            )
        attack = self.extract_attack() if result is Result.SAT else None
        outcome = VerificationOutcome(result.value)  # same sat/unsat/unknown
        return VerificationResult(outcome, attack, "smt", runtime, stats)

    # ------------------------------------------------------------------
    # UNSAT-core introspection
    # ------------------------------------------------------------------
    def core_secured_buses(self) -> List[int]:
        """Buses whose ``sb`` assumption the last UNSAT proof used.

        A candidate architecture that verified UNSAT remains UNSAT when
        restricted to these buses (assumption cores are sound), so this
        is the core-minimized architecture implied by the proof.
        """
        by_index = {var.index: bus for bus, var in self.sb.items()}
        out = []
        for item in self.solver.unsat_core():
            if isinstance(item, BoolVar) and item.index in by_index:
                out.append(by_index[item.index])
        return sorted(out)

    def core_secured_measurements(self) -> List[int]:
        """Measurements whose ``sz`` assumption the last UNSAT proof used."""
        by_index = {var.index: meas for meas, var in self.sz.items()}
        out = []
        for item in self.solver.unsat_core():
            if isinstance(item, BoolVar) and item.index in by_index:
                out.append(by_index[item.index])
        return sorted(out)

    def core_uses_budget(self) -> bool:
        """Whether the last UNSAT proof leaned on a resource budget.

        True when a budget-selector literal appears in the failed
        assumptions — i.e. the infeasibility would lift with a looser
        budget, as opposed to being structural.
        """
        selector_lits = {
            -lit
            for counter in self.budget_counters.values()
            if counter is not None
            for lit in counter.outputs
        }
        return any(
            isinstance(item, int) and item in selector_lits
            for item in self.solver.unsat_core()
        )

    def statistics(self) -> Dict[str, int]:
        """The solver's statistics."""
        return self.solver.statistics()

    def extract_attack(self, model=None) -> AttackVector:
        """Read the attack vector out of a model (default: last SAT model)."""
        if model is None:
            model = self.solver.model()
        spec = self.spec
        plan = spec.plan
        deltas: Dict[int, float] = {}
        for line in spec.grid.lines:
            total = model.eval_expr(self.lines[line.index].total_expr)
            fwd = plan.forward_index(line.index)
            bwd = plan.backward_index(line.index)
            if fwd in self.cz and model.value(self.cz[fwd]):
                deltas[fwd] = float(total)
            if bwd in self.cz and model.value(self.cz[bwd]):
                deltas[bwd] = float(-total)
        for j in spec.grid.buses:
            meas = plan.bus_index(j)
            if meas in self.cz and model.value(self.cz[meas]):
                deltas[meas] = float(model.eval_expr(self.bus_delta[j]))
        states = {}
        for j, cx in self.cx.items():
            if model.value(cx):
                states[j] = float(model.real_value(self.dtheta[j]))
        excluded = frozenset(
            i
            for i, enc in self.lines.items()
            if enc.el is not None and model.value(enc.el)
        )
        included = frozenset(
            i
            for i, enc in self.lines.items()
            if enc.il is not None and model.value(enc.il)
        )
        return AttackVector(deltas, states, excluded, included)


class VerificationSession:
    """Encode-once, probe-many verification for one spec *family*.

    A family is everything in a spec except its resource limits and its
    goal's target/any/exclusive fields: the grid, measurement plan,
    line attributes, knowledge and topology capabilities, and any
    pairwise-distinct goal requirements.  The session builds a single
    :class:`UfdiEncoder` with symbolic budgets and a symbolic goal (and
    optionally symbolic security), then answers every probe — a budget
    point of a sweep, a step of a min-cost binary search, a candidate
    architecture of the synthesis loop — as an incremental
    solve-under-assumptions on that one warm solver.  Learned clauses
    accumulate across probes, so later probes typically get *faster*,
    and an UNSAT probe exposes its failed-assumption core
    (:meth:`core_secured_buses` / :meth:`core_uses_budget`).
    """

    def __init__(
        self,
        spec: AttackSpec,
        epsilon: Optional[Union[int, float, Fraction]] = None,
        symbolic_security: bool = False,
    ) -> None:
        self.spec = spec
        self.symbolic_security = symbolic_security
        self.encoder = UfdiEncoder(
            spec,
            epsilon=epsilon,
            symbolic_security=symbolic_security,
            symbolic_budgets=True,
            symbolic_goal=True,
        )
        self.probes = 0
        self.unsat_probes = 0

    def compatible(self, spec: AttackSpec) -> bool:
        """Whether ``spec`` belongs to this session's family.

        Cheap structural test: everything except limits and the goal's
        target/any/exclusive fields must match the base spec.
        """
        base = self.spec
        return (
            spec.grid.num_buses == base.grid.num_buses
            and spec.grid.lines == base.grid.lines
            and spec.plan.taken == base.plan.taken
            and spec.plan.secured == base.plan.secured
            and spec.plan.inaccessible == base.plan.inaccessible
            and dict(spec.line_attrs) == dict(base.line_attrs)
            and spec.goal.distinct_pairs == base.goal.distinct_pairs
            and spec.reference_bus == base.reference_bus
            and spec.allow_topology_attack == base.allow_topology_attack
            and spec.strict_knowledge == base.strict_knowledge
            and spec.base_flows == base.base_flows
            and spec.base_angles == base.base_angles
        )

    def probe(
        self,
        max_measurements=_UNSET,
        max_buses=_UNSET,
        goal: Optional[AttackGoal] = None,
        secured_buses: Sequence[int] = (),
        secured_measurements: Sequence[int] = (),
    ) -> VerificationResult:
        """One incremental feasibility probe; semantics of
        :func:`verify_attack` on the matching concrete spec."""
        result = self.encoder.solve(
            span="session.probe",
            span_attributes={"probes": self.probes + 1},
            secured_buses=secured_buses,
            secured_measurements=secured_measurements,
            max_measurements=max_measurements,
            max_buses=max_buses,
            goal=goal,
        )
        self.probes += 1
        if result.outcome is VerificationOutcome.SECURE:
            self.unsat_probes += 1
        result.statistics["session_probes"] = self.probes
        return result

    def probe_spec(self, spec: AttackSpec) -> VerificationResult:
        """Probe a concrete same-family spec: its limits and goal become
        the assumptions of one incremental check."""
        if not self.compatible(spec):
            raise ValueError("spec is not in this session's family")
        return self.probe(
            max_measurements=spec.limits.max_measurements,
            max_buses=spec.limits.max_buses,
            goal=spec.goal,
        )

    # pass-throughs so analytics layers need not reach into the encoder
    def core_secured_buses(self) -> List[int]:
        return self.encoder.core_secured_buses()

    def core_secured_measurements(self) -> List[int]:
        return self.encoder.core_secured_measurements()

    def core_uses_budget(self) -> bool:
        return self.encoder.core_uses_budget()

    def statistics(self) -> Dict[str, int]:
        stats = self.encoder.statistics()
        stats["session_probes"] = self.probes
        stats["session_unsat_probes"] = self.unsat_probes
        return stats


def verify_attack(
    spec: AttackSpec,
    epsilon: Optional[Union[int, float, Fraction]] = None,
    max_conflicts: Optional[int] = None,
) -> VerificationResult:
    """Verify whether a UFDI attack satisfying ``spec`` exists.

    Decided by the bundled, exact DPLL(T) engine (:mod:`repro.smt`).
    """
    start = time.perf_counter()
    with get_tracer().span(
        "verify.encode",
        backend="smt",
        buses=spec.grid.num_buses,
        lines=len(spec.grid.lines),
    ):
        encoder = UfdiEncoder(spec, epsilon=epsilon)
    return encoder.solve(
        span_attributes={"backend": "smt"},
        start=start,
        max_conflicts=max_conflicts,
    )
