"""The user-facing SMT solver facade.

:class:`Solver` offers a small subset of the Z3 API surface that the
paper's implementation (Section III.H) relies on: variable creation,
assertion of boolean/arithmetic terms, cardinality constraints,
``push``/``pop`` scopes, ``check`` returning SAT/UNSAT, and model
extraction.

Scopes are implemented with guard literals: every clause asserted inside
a pushed scope carries the negated scope guard, and ``check`` assumes
all active guards; ``pop`` permanently disables the guard.  This keeps
learned clauses sound across scope changes, which is how incremental SMT
solvers behave.
"""

from __future__ import annotations

import enum
import os
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.smt.cardinality import (
    IncrementalAtMost,
    encode_at_least,
    encode_at_most,
    encode_exactly,
)
from repro.smt.cnf import CnfBuilder
from repro.smt.sat import ClauseExchange, SatSolver, SolverConfig
from repro.smt.terms import BoolTerm, BoolVar, LinExpr, RealVar, to_fraction
from repro.smt.theory import KERNELS, LraTheory


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


#: bumped whenever solver internals change in a way that can alter
#: models, cores or the statistics schema; baked into cache
#: fingerprints so stale disk entries are recomputed, not reused
ENGINE_VERSION = 10

DEFAULT_KERNEL = "sparse"


def _resolve_kernel(kernel: Optional[str]) -> str:
    source = "kernel argument"
    if kernel is None:
        # an empty env var means "unset", matching the 0/""/unset
        # convention of the sibling REPRO_* switches
        kernel = os.environ.get("REPRO_THEORY_KERNEL") or DEFAULT_KERNEL
        source = "REPRO_THEORY_KERNEL"
    # validated here, before the theory is built, so a typo in
    # REPRO_THEORY_KERNEL fails with the env var named
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown theory kernel {kernel!r} (from {source}); "
            f"valid kernels: {', '.join(KERNELS)}"
        )
    return kernel


def _resolve_profile(flag: Optional[bool]) -> bool:
    if flag is None:
        return os.environ.get("REPRO_SMT_PROFILE", "0") not in ("", "0")
    return bool(flag)


def engine_signature() -> str:
    """Identity of the solver configuration results depend on.

    Combines :data:`ENGINE_VERSION` with the environment-resolved
    kernel and the default search configuration — everything that can
    change a model or a core for the same input.  Theory propagation is
    part of the engine (on for ``sparse``, absent from ``reference``),
    so the kernel names it.  Included in cache fingerprints
    (:func:`repro.runtime.serialize.spec_fingerprint`); a solve under
    another :class:`SolverConfig` is keyed by its caller (the
    configuration race's backend label).
    """
    kernel = _resolve_kernel(None)
    return f"v{ENGINE_VERSION}/kernel={kernel}/cfg={SolverConfig().token()}"


class Model:
    """A satisfying assignment: boolean values plus exact rational reals."""

    def __init__(
        self, bool_values: Dict[int, bool], real_values: Dict[int, Fraction]
    ) -> None:
        self._bools = bool_values
        self._reals = real_values

    def value(self, var: BoolVar) -> bool:
        """Boolean value of ``var`` (False if the variable is unconstrained)."""
        return self._bools.get(var.index, False)

    def real_value(self, var: RealVar) -> Fraction:
        """Exact rational value of ``var`` (0 if unconstrained)."""
        return self._reals.get(var.index, Fraction(0))

    def eval_expr(self, expr: Union[LinExpr, RealVar]) -> Fraction:
        """Evaluate an affine expression under this model."""
        e = LinExpr.of(expr)
        total = e.const
        for var_index, coeff in e.coeffs.items():
            total += coeff * self._reals.get(var_index, Fraction(0))
        return total


class Solver:
    """An incremental QF_LRA solver (drop-in for the paper's use of Z3).

    ``kernel`` selects the simplex engine — ``"sparse"`` (the
    production :class:`~repro.smt.simplex.Simplex`, the default) or
    ``"reference"`` (the retained Fraction oracle); ``profile``
    enables per-phase wall-time attribution in :meth:`statistics`.
    Each defaults to the ``REPRO_THEORY_KERNEL`` / ``REPRO_SMT_PROFILE``
    environment variable so existing ``Solver()`` call sites pick up a
    configuration without plumbing.  ``sat_config`` is the SAT core's
    search configuration (default :class:`SolverConfig`), as the
    configuration race diversifies it.

    Row-implied bound propagation is part of every production solve.
    ``theory_propagation=False`` turns it off for the bit-identity
    suite, which replays the production kernel against the
    non-propagating ``reference`` oracle; no caller in the package
    passes it.
    """

    def __init__(
        self,
        kernel: Optional[str] = None,
        theory_propagation: bool = True,
        profile: Optional[bool] = None,
        sat_config: Optional[SolverConfig] = None,
    ) -> None:
        self._sat = SatSolver(config=sat_config)
        self._sat.profile = _resolve_profile(profile)
        self._theory = LraTheory(
            kernel=_resolve_kernel(kernel),
            propagate=theory_propagation,
        )
        self._sat.theory = self._theory
        self._lattice_lemmas = 0
        # the builder's new-atom map; CnfBuilder.__init__ emits the
        # TRUE unit clause, which has no atoms, before it is bound
        self._new_atoms: Dict[int, tuple] = {}
        self._cnf = CnfBuilder(add_clause=self._install_clause)
        self._new_atoms = self._cnf.new_atoms
        self._next_bool = 0
        self._next_real = 0
        self._bool_vars: List[BoolVar] = []
        self._real_vars: List[RealVar] = []
        self._guards: List[int] = []  # active scope guard literals
        self._result: Optional[Result] = None
        self._model: Optional[Model] = None
        self._checks = 0
        self._learned_kept = 0
        # last UNSAT check's failed assumptions, as passed by the caller
        self._core: List[Union[BoolTerm, int]] = []
        # atoms grouped by canonical linear form, for lattice lemmas:
        # primitive integer row -> list of (op, bound num, bound den, sat var)
        self._atoms_by_form: Dict[tuple, List[tuple]] = {}

    def set_profile(self, enabled: bool = True) -> None:
        """Toggle per-phase timing (``time_*`` keys in :meth:`statistics`).

        Profiling only adds ``perf_counter`` bracketing around search
        phases — the search path and every verdict/model are unchanged —
        so layers like the tracer can flip it on mid-flight for a solver
        they did not construct.
        """
        self._sat.profile = bool(enabled)

    def set_clause_exchange(
        self,
        exchange: Optional[ClauseExchange],
        interval: int = 64,
        size_cap: int = 8,
        lbd_cap: int = 6,
    ) -> None:
        """Install a learned-clause exchange transport on the SAT core.

        See :meth:`repro.smt.sat.SatSolver.set_exchange`.  Used by the
        cooperative portfolio (``race_configs``); the import schedule is
        recorded in :meth:`import_log` for deterministic replay.
        """
        self._sat.set_exchange(
            exchange, interval=interval, size_cap=size_cap, lbd_cap=lbd_cap
        )

    def import_log(self) -> List[tuple]:
        """The last check's imported clauses as ``(conflicts, clause)``."""
        return list(self._sat.import_log)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def bool_var(self, name: str) -> BoolVar:
        var = BoolVar(name, self._next_bool)
        self._next_bool += 1
        self._bool_vars.append(var)
        return var

    def real_var(self, name: str) -> RealVar:
        var = RealVar(name, self._next_real)
        self._next_real += 1
        self._real_vars.append(var)
        return var

    def bool_vars(self, prefix: str, count: int) -> List[BoolVar]:
        return [self.bool_var(f"{prefix}{i}") for i in range(count)]

    def real_vars(self, prefix: str, count: int) -> List[RealVar]:
        return [self.real_var(f"{prefix}{i}") for i in range(count)]

    # ------------------------------------------------------------------
    # clause plumbing
    # ------------------------------------------------------------------
    def _install_clause(self, lits: List[int]) -> None:
        sat = self._sat
        if sat.trail_lim:
            # clear any leftover search state first: new atoms may
            # install simplex rows, which requires an empty bound trail
            sat.cancel_until(0)
        if self._new_atoms:
            self._register_new_atoms(lits)
        sat.add_clause(lits)

    def _register_new_atoms(self, lits: Iterable[int]) -> None:
        """Hand the theory, in literal order, each atom of ``lits`` that
        no earlier clause or assumption mentioned."""
        new_atoms = self._new_atoms
        for lit in lits:
            var = lit if lit > 0 else -lit
            atom = new_atoms.pop(var, None)
            if atom is not None:
                self._theory.register_atom(var, atom)
                if self._theory.propagation:
                    # propagation may entail this atom even when no clause
                    # the SAT core keeps mentions it (add_clause stops at a
                    # literal true at level 0, before creating later vars)
                    self._sat.ensure_vars(var)
                self._emit_lattice_lemmas(var, atom)

    def _emit_lattice_lemmas(self, sat_var: int, atom) -> None:
        """Teach BCP the ordering relations between atoms on one form.

        For atoms over the same canonical linear form ``s`` the lemmas
        ``(s<=a) -> (s<=b)`` for ``a<=b``, ``(s>=b) -> (s>=a)`` for
        ``a<=b``, ``not ((s<=a) and (s>=b))`` for ``a<b`` and
        ``(s<=a) or (s>=b)`` for ``b<=a`` are theory-valid.  Emitting
        them statically lets unit propagation do most arithmetic
        reasoning, which is decisive for the verification encodings
        (``cz <-> delta != 0`` clusters 4+ atoms per form).
        """
        row, op, bound = atom
        num = bound.numerator
        den = bound.denominator
        siblings = self._atoms_by_form.setdefault(row, [])
        for other_op, other_num, other_den, other_var in siblings:
            if other_var == sat_var:
                continue
            self._lattice_lemmas += 1
            # the two bounds cross-multiplied (denominators are positive)
            mine = num * other_den
            other = other_num * den
            if op == "<=" and other_op == "<=":
                if mine <= other:
                    self._install_clause([-sat_var, other_var])
                else:
                    self._install_clause([-other_var, sat_var])
            elif op == ">=" and other_op == ">=":
                if mine <= other:
                    self._install_clause([-other_var, sat_var])
                else:
                    self._install_clause([-sat_var, other_var])
            elif op == "<=":
                if mine < other:
                    self._install_clause([-sat_var, -other_var])
                else:
                    self._install_clause([sat_var, other_var])
            elif other < mine:
                self._install_clause([-other_var, -sat_var])
            else:
                self._install_clause([other_var, sat_var])
        siblings.append((op, num, den, sat_var))

    def _guarded(self, lits: List[int]) -> List[int]:
        if self._guards:
            return [-self._guards[-1]] + lits
        return lits

    def _new_sat_var(self) -> int:
        var = self._cnf.new_var()
        self._sat.ensure_vars(var)
        return var

    # ------------------------------------------------------------------
    # assertions
    # ------------------------------------------------------------------
    def add(self, *terms: BoolTerm) -> None:
        """Assert one or more boolean terms in the current scope."""
        guard = self._guards[-1] if self._guards else None
        for term in terms:
            self._cnf.assert_term(term, guard=guard)
        self._invalidate()

    def add_at_most(self, variables: Sequence[BoolVar], k: int) -> None:
        """Assert that at most ``k`` of ``variables`` are true."""
        lits = [self._cnf.literal_for(v) for v in variables]
        encode_at_most(
            lits, k, self._new_sat_var, lambda c: self._cnf.add_clause(self._guarded(c))
        )
        self._invalidate()

    def add_at_least(self, variables: Sequence[BoolVar], k: int) -> None:
        """Assert that at least ``k`` of ``variables`` are true."""
        lits = [self._cnf.literal_for(v) for v in variables]
        encode_at_least(
            lits, k, self._new_sat_var, lambda c: self._cnf.add_clause(self._guarded(c))
        )
        self._invalidate()

    def add_exactly(self, variables: Sequence[BoolVar], k: int) -> None:
        """Assert that exactly ``k`` of ``variables`` are true."""
        lits = [self._cnf.literal_for(v) for v in variables]
        encode_exactly(
            lits, k, self._new_sat_var, lambda c: self._cnf.add_clause(self._guarded(c))
        )
        self._invalidate()

    def at_most_selector(
        self, variables: Sequence[BoolVar], cap: Optional[int] = None
    ) -> IncrementalAtMost:
        """Encode an assumption-selectable ``sum(variables) <= k`` once.

        The returned selector's :meth:`~IncrementalAtMost.at_most` maps
        any budget ``k`` below ``cap`` (default: every budget) to a raw
        assumption literal accepted by :meth:`check` — changing a budget
        is an assumption flip, not a re-encode, so one incremental
        solver answers a whole budget sweep with its learned clauses
        intact.
        """
        lits = [self._cnf.literal_for(v) for v in variables]
        selector = IncrementalAtMost(
            lits,
            self._new_sat_var,
            lambda c: self._cnf.add_clause(self._guarded(c)),
            cap,
        )
        self._invalidate()
        return selector

    # ------------------------------------------------------------------
    # scopes
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a retractable assertion scope."""
        guard = self._new_sat_var()
        self._guards.append(guard)
        self._invalidate()

    def pop(self) -> None:
        """Discard all assertions made since the matching :meth:`push`."""
        if not self._guards:
            raise RuntimeError("pop without matching push")
        guard = self._guards.pop()
        self._cnf.add_clause([-guard])  # permanently disable the scope
        self._invalidate()

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def check(
        self,
        assumptions: Sequence[Union[BoolTerm, int]] = (),
        max_conflicts: Optional[int] = None,
    ) -> Result:
        """Decide satisfiability of the asserted formulas.

        ``assumptions`` are extra literals assumed for this call only —
        boolean terms, or raw DIMACS literals as produced by
        :meth:`at_most_selector`.  ``max_conflicts`` bounds the search
        (returns UNKNOWN on timeout).  After an UNSAT answer,
        :meth:`unsat_core` names the assumptions the refutation used.
        """
        self._sat.cancel_until(0)  # atoms must register on a clean simplex
        assumption_lits = list(self._guards)
        sources: Dict[int, Union[BoolTerm, int]] = {}
        for term in assumptions:
            if isinstance(term, int):
                if term == 0 or abs(term) > self._cnf.num_vars:
                    raise ValueError(f"unknown raw assumption literal {term}")
                lit = term
            else:
                lit = self._cnf.literal_for(term)
                self._register_new_atoms([lit])
            sources.setdefault(lit, term)
            assumption_lits.append(lit)
        self._sat.conflict_budget = max_conflicts
        self._checks += 1
        self._learned_kept = len(self._sat.learnts)
        outcome = self._sat.solve(assumption_lits)
        self._core = []
        if outcome is None:
            self._result = Result.UNKNOWN
            self._model = None
        elif outcome:
            self._result = Result.SAT
            self._extract_model()
        else:
            self._result = Result.UNSAT
            self._model = None
            # scope guards are implementation detail, not caller assumptions
            self._core = [
                sources[lit] for lit in (self._sat.core or []) if lit in sources
            ]
        return self._result

    def unsat_core(self) -> List[Union[BoolTerm, int]]:
        """Failed assumptions from the last UNSAT :meth:`check`.

        A subset of the assumptions passed to :meth:`check` whose
        conjunction with the asserted formulas is already unsatisfiable.
        An empty list means the formula is UNSAT regardless of the
        assumptions.
        """
        if self._result is not Result.UNSAT:
            raise RuntimeError("unsat_core() requires a preceding UNSAT check()")
        return list(self._core)

    def _extract_model(self) -> None:
        bools: Dict[int, bool] = {}
        for var in self._bool_vars:
            sat_var = self._cnf._bool_vars.get(var.index)
            if sat_var is not None and sat_var <= self._sat.num_vars:
                bools[var.index] = self._sat.assign[sat_var] == 1
        reals = self._theory.real_values()
        self._model = Model(bools, reals)

    def model(self) -> Model:
        """The model from the last SAT :meth:`check` call."""
        if self._result is not Result.SAT or self._model is None:
            raise RuntimeError("model() requires a preceding SAT check()")
        return self._model

    def _invalidate(self) -> None:
        self._result = None
        self._model = None

    # ------------------------------------------------------------------
    # introspection (Table IV support)
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, Any]:
        """Model-size and search statistics."""
        stats = dict(self._sat.stats)
        theory_checks = self._theory.stats["theory_checks"]
        simplex = self._theory.simplex
        # kernel sparsity: stored nonzeros across all tableau rows, and
        # the fill relative to a dense rows x vars tableau.  ~3 nonzeros
        # per row on real grids, so fill_ratio drops with grid size.
        rows_nnz = sum(len(row) for row in simplex.rows.values())
        cells = len(simplex.rows) * simplex.num_vars
        stats.update(
            sat_variables=self._sat.num_vars,
            clauses=len(self._sat.clauses),
            learnt_clauses=len(self._sat.learnts),
            bool_variables=self._next_bool,
            real_variables=self._next_real,
            theory_atoms=len(self._theory._atom_map),
            simplex_variables=self._theory.simplex.num_vars,
            simplex_rows=len(self._theory.simplex.rows),
            lattice_lemmas=self._lattice_lemmas,
            checks=self._checks,
            incremental_checks=max(0, self._checks - 1),
            learned_kept=self._learned_kept,
            core_size=len(self._core),
            kernel=self._theory.kernel,
            sat_config=self._sat.config.token(),
            pivots=simplex.pivots,
            rows_nnz=rows_nnz,
            fill_ratio=round(rows_nnz / cells, 6) if cells else 0.0,
            refactorizations=getattr(simplex, "refactorizations", 0),
            implied_bounds=self._theory.stats["implied_bounds"],
            theory_checks=theory_checks,
            props_per_check=round(
                self._sat.stats["theory_props"] / theory_checks, 4
            )
            if theory_checks
            else 0.0,
        )
        if self._sat.profile:
            for phase, seconds in self._sat.phase_time.items():
                stats[f"time_{phase}"] = round(seconds, 6)
        return stats

    @property
    def stats(self) -> Dict[str, Any]:
        """Alias for :meth:`statistics` (profiling-layer surface)."""
        return self.statistics()
