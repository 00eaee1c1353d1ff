"""The linear-real-arithmetic theory listener for the SAT core.

Maps canonical atoms (from :mod:`repro.smt.cnf`) to bounds on simplex
variables.  Each distinct linear form gets one simplex *slack* variable;
single-variable forms bind directly to the problem variable's simplex
column.  Literal polarity decides the bound:

====================  =======================================
literal               asserted bound
====================  =======================================
``(e <= b)`` true     upper bound ``b``
``(e <= b)`` false    lower bound ``b + delta``  (strict ``>``)
``(e >= b)`` true     lower bound ``b``
``(e >= b)`` false    upper bound ``b - delta``  (strict ``<``)
====================  =======================================

Two kernels back the listener (see :mod:`repro.smt.simplex`): the
production :class:`~repro.smt.simplex.Simplex` (``sparse``, the
default) and the retained :class:`~repro.smt.simplex.ReferenceSimplex`
Fraction oracle (``reference``).  Without propagation both are
bit-identical; :data:`KERNELS` names the valid selections.

On the production kernel the listener additionally implements *unate
propagation* (Dutertre & de Moura section 6), and every production
solve runs it: after a feasible ``check()``, rows touched by recently
tightened bounds are scanned and the bound each row implies on its
basic variable is compared against the atoms registered on that
variable; entailed atom literals are handed back to the SAT core as
cheap propagations (with the contributing bound literals as the
reason), turning would-be simplex conflicts into unit propagation.  The
scan is budgeted per call and driven by the engine's ``bound_dirty``
set, so quiescent rows cost nothing.  ``propagate=False`` runs the
search of the ``reference`` kernel, which never propagates; the
bit-identity suite compares the two kernels that way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from repro.smt.cnf import CanonicalAtom, Row
from repro.smt.simplex import DeltaRational, ReferenceSimplex, Simplex

ONE = Fraction(1)

_ENGINES = {
    "sparse": Simplex,
    "reference": ReferenceSimplex,
}

#: valid theory kernels; ``sparse`` is the default
KERNELS = tuple(_ENGINES)

#: rows examined per :meth:`LraTheory.propagate` call; overflow rows are
#: re-queued on the dirty set for the next call
DEFAULT_PROPAGATION_BUDGET = 256


class LraTheory:
    """DPLL(T) listener backed by :class:`~repro.smt.simplex.Simplex`."""

    def __init__(
        self,
        kernel: str = "sparse",
        propagate: bool = True,
        propagation_budget: int = DEFAULT_PROPAGATION_BUDGET,
    ) -> None:
        if kernel not in _ENGINES:
            raise ValueError(
                f"unknown theory kernel {kernel!r}; valid kernels: "
                f"{', '.join(KERNELS)}"
            )
        self.kernel = kernel
        self._use_triples = kernel != "reference"
        # row-implied bound propagation needs the production kernel's
        # triple bounds; the reference engine is the frozen pre-overhaul
        # oracle and always runs without it
        self.propagation = bool(propagate) and self._use_triples
        self.propagation_budget = propagation_budget
        self.simplex = _ENGINES[kernel]()
        # RealVar.index -> simplex var
        self._real_vars: Dict[int, int] = {}
        # primitive integer row -> simplex var holding its value
        self._forms: Dict[Row, int] = {}
        # SAT var -> (simplex var, op, bound)
        self._atom_map: Dict[int, Tuple[int, str, Fraction]] = {}
        # SAT var -> (svar, pos_kind, pos_bound, neg_kind, neg_bound)
        # with kind 'L'/'U' and the bound in the kernel's native
        # representation (triple or DeltaRational), precomputed so
        # assert_lit does no arithmetic
        self._assert_plan: Dict[int, tuple] = {}
        # simplex var -> [(sat_var, op, bound_num, bound_den)], the
        # atoms propagate() may entail from a row-implied bound
        self._atoms_on_svar: Dict[int, List[Tuple[int, str, int, int]]] = {}
        # undo log: (trail_index, simplex mark)
        self._marks: List[Tuple[int, int]] = []
        self.stats = {
            "implied_bounds": 0,
            "prop_calls": 0,
            "prop_rows": 0,
            "theory_checks": 0,
        }

    # ------------------------------------------------------------------
    # registration (called by the Solver facade at encode time)
    # ------------------------------------------------------------------
    def simplex_var_for_real(self, real_index: int) -> int:
        var = self._real_vars.get(real_index)
        if var is None:
            var = self.simplex.new_var()
            self._real_vars[real_index] = var
        return var

    def register_atom(self, sat_var: int, atom: CanonicalAtom) -> None:
        if sat_var in self._atom_map:
            return
        row, op, bound = atom
        if len(row) == 1:
            real_index, coeff = row[0]
            assert coeff == 1, "a one-variable canonical row is (x, 1)"
            svar = self.simplex_var_for_real(real_index)
        else:
            svar = self._forms.get(row)
            if svar is None:
                simplex_coeffs = {
                    self.simplex_var_for_real(ri): c for ri, c in row
                }
                svar = self.simplex.new_var()
                self.simplex.add_row(svar, simplex_coeffs)
                self._forms[row] = svar
        self._atom_map[sat_var] = (svar, op, bound)
        bn, bd = bound.numerator, bound.denominator
        self._atoms_on_svar.setdefault(svar, []).append((sat_var, op, bn, bd))
        if self._use_triples:
            if op == "<=":
                plan = (svar, "U", (bn, 0, bd), "L", (bn, bd, bd))
            else:
                plan = (svar, "L", (bn, 0, bd), "U", (bn, -bd, bd))
        else:
            if op == "<=":
                plan = (svar, "U", DeltaRational(bound), "L", DeltaRational(bound, ONE))
            else:
                plan = (svar, "L", DeltaRational(bound), "U", DeltaRational(bound, -ONE))
        self._assert_plan[sat_var] = plan

    # ------------------------------------------------------------------
    # TheoryListener protocol
    # ------------------------------------------------------------------
    def is_theory_var(self, var: int) -> bool:
        return var in self._atom_map

    def assert_lit(self, lit: int, trail_index: int) -> Optional[List[int]]:
        plan = self._assert_plan[abs(lit)]
        self._marks.append((trail_index, self.simplex.mark()))
        if lit > 0:
            svar, kind, bound = plan[0], plan[1], plan[2]
        else:
            svar, kind, bound = plan[0], plan[3], plan[4]
        if kind == "U":
            return self.simplex.assert_upper(svar, bound, lit)
        return self.simplex.assert_lower(svar, bound, lit)

    def check(self) -> Optional[List[int]]:
        self.stats["theory_checks"] += 1
        return self.simplex.check()

    def backtrack_to(self, trail_size: int) -> None:
        while self._marks and self._marks[-1][0] >= trail_size:
            __, mark = self._marks.pop()
            self.simplex.backtrack(mark)

    # ------------------------------------------------------------------
    # theory-aware bound propagation (production kernel only)
    # ------------------------------------------------------------------
    def propagate(self, value: Callable[[int], int]):
        """Entailed atom literals from row-implied bounds.

        ``value`` is the SAT core's literal valuation (``-1/0/+1``).
        Returns ``(implied, conflict)``: ``implied`` is a list of
        ``(lit, explanation)`` pairs where ``explanation`` holds the
        true bound literals entailing ``lit`` (the core enqueues ``lit``
        with reason clause ``[lit, -e1, -e2, ...]``); ``conflict`` is a
        ready-made falsified clause if an entailed literal is already
        assigned false, else None.  Must only be called after a feasible
        :meth:`check`, whose assignment guarantees asserted bounds and
        row-implied bounds are mutually consistent.
        """
        simplex = self.simplex
        dirty = simplex.bound_dirty
        if not self.propagation:
            dirty.clear()
            return [], None
        if not dirty:
            return [], None
        rows = simplex.rows
        cols = simplex.cols
        atoms_on = self._atoms_on_svar
        # candidate rows: the dirty var's own row plus every row whose
        # body mentions a dirty var — only those can imply anything new
        candidates = set()
        for var in dirty:
            if var in rows:
                candidates.add(var)
            col = cols.get(var)
            if col:
                candidates.update(col)
        dirty.clear()
        if not candidates:
            return [], None
        self.stats["prop_calls"] += 1
        implied: List[Tuple[int, List[int]]] = []
        budget = self.propagation_budget
        for basic in sorted(candidates):
            atoms = atoms_on.get(basic)
            if not atoms or basic not in rows:
                continue
            if budget <= 0:
                # out of budget: hand the row back to the dirty set so
                # the next call picks it up
                dirty.add(basic)
                continue
            budget -= 1
            self.stats["prop_rows"] += 1
            lo, lo_expl, hi, hi_expl = simplex.row_implied_bounds(basic)
            if lo is None and hi is None:
                continue
            for sat_var, op, cn, cd in atoms:
                lit = 0
                expl = None
                if lo is not None:
                    # sign of (implied lower bound) - (atom bound)
                    c = lo[0] * cd - cn * lo[2]
                    if op == ">=":
                        # lo >= b entails (e >= b)
                        if c > 0 or (c == 0 and lo[1] >= 0):
                            lit, expl = sat_var, lo_expl
                    else:
                        # lo > b entails not (e <= b)
                        if c > 0 or (c == 0 and lo[1] > 0):
                            lit, expl = -sat_var, lo_expl
                if lit == 0 and hi is not None:
                    c = hi[0] * cd - cn * hi[2]
                    if op == "<=":
                        # hi <= b entails (e <= b)
                        if c < 0 or (c == 0 and hi[1] <= 0):
                            lit, expl = sat_var, hi_expl
                    else:
                        # hi < b entails not (e >= b)
                        if c < 0 or (c == 0 and hi[1] < 0):
                            lit, expl = -sat_var, hi_expl
                if lit == 0 or not expl:
                    continue
                v = value(lit)
                if v == 1:
                    continue
                self.stats["implied_bounds"] += 1
                if v == -1:
                    return [], [lit] + [-e for e in expl]
                implied.append((lit, expl))
        return implied, None

    # ------------------------------------------------------------------
    # model extraction
    # ------------------------------------------------------------------
    def real_values(self) -> Dict[int, Fraction]:
        """Concrete rational values for every registered RealVar index."""
        values = self.simplex.concrete_values()
        return {ri: values[sv] for ri, sv in self._real_vars.items()}
