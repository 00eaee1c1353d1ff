"""Tseitin transformation from boolean terms to CNF.

The :class:`CnfBuilder` owns the SAT variable space.  It interns:

* boolean variables (one SAT variable per :class:`~repro.smt.terms.BoolVar`),
* arithmetic atoms, deduplicated on a *canonical form* so that syntactic
  variants of the same half-space (``2x - 2y <= 4`` vs ``x - y <= 2``)
  share one SAT variable and, later, one simplex slack variable.  The
  form is a primitive integer row (coprime integer coefficients, the
  first one positive), computed once per linear expression, so no
  ``Fraction`` is hashed on the way to the simplex,
* gates for ``And``/``Or``/``Not`` sub-terms, deduplicated on their
  child-literal signatures.

SAT literals follow the DIMACS convention: positive/negative integers,
variable indices starting at 1.  Variable 1 is reserved as the constant
``TRUE`` (a unit clause pins it).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Optional, Tuple

from repro.smt.terms import (
    And,
    Atom,
    BoolConst,
    BoolTerm,
    BoolVar,
    LinExpr,
    Not,
    Or,
)

# A primitive integer row: (RealVar index, coefficient) pairs sorted by
# index, with coprime coefficients and the first one positive.
Row = Tuple[Tuple[int, int], ...]

# A canonical atom: a primitive integer row, an operator and a rational
# bound.
CanonicalAtom = Tuple[Row, str, Fraction]


def canonical_form(expr: LinExpr) -> Tuple[Row, Fraction]:
    """The primitive integer row of a linear form, and its scale.

    Returns ``(row, scale)`` with ``row == scale * expr``; ``scale`` is
    negative when the form's first coefficient is.  Computed once per
    expression and cached on it (a :class:`LinExpr` is immutable).
    """
    form = expr._form
    if form is not None:
        return form
    items = sorted(expr.coeffs.items())
    if not items:
        raise ValueError("constant atoms must be folded before CNF conversion")
    for var, coeff in items:
        if type(coeff) is not Fraction and type(coeff) is not int:
            raise TypeError(
                f"coefficient {coeff!r} of real variable {var} is not an "
                "exact rational (int or Fraction)"
            )
    den = lcm(*[c.denominator for _, c in items])
    nums = [c.numerator * (den // c.denominator) for _, c in items]
    g = gcd(*nums)
    if nums[0] < 0:
        g = -g
    row = tuple((var, num // g) for (var, _), num in zip(items, nums))
    form = expr._form = (row, Fraction(den, g))
    return form


def canonicalize_atom(atom: Atom) -> CanonicalAtom:
    """Normalize an atom so equivalent half-spaces share one key.

    The linear form becomes its primitive integer row and the bound is
    scaled with it; a negative scale flips the operator.
    """
    row, scale = canonical_form(atom.expr)
    op = atom.op
    bound = atom.bound
    if scale != 1:
        if scale < 0:
            op = ">=" if op == "<=" else "<="
        if bound:
            bound = bound * scale
    return (row, op, bound)


class CnfBuilder:
    """Incrementally builds CNF clauses and the atom registry."""

    TRUE_LIT = 1

    def __init__(self, add_clause: Optional[Callable[[List[int]], None]] = None) -> None:
        self.num_vars = 1  # variable 1 == constant TRUE
        # pristine copy of every emitted clause (consumed by the MILP
        # mirror backend; the SAT solver mutates its own copies)
        self.clauses: List[List[int]] = []
        self._hook = add_clause
        self._emit([self.TRUE_LIT])
        self._bool_vars: Dict[int, int] = {}  # BoolVar.index -> sat var
        # (row, op, bound numerator, bound denominator) -> sat var
        self._atoms: Dict[Tuple[Row, str, int, int], int] = {}
        self._gates: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        # sat var -> canonical atom (for the theory layer)
        self.atom_of_var: Dict[int, CanonicalAtom] = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def _emit(self, lits: List[int]) -> None:
        self.clauses.append(list(lits))
        if self._hook is not None:
            self._hook(list(lits))

    def add_clause(self, lits: List[int]) -> None:
        self._emit(list(lits))

    # ------------------------------------------------------------------
    # literal construction
    # ------------------------------------------------------------------
    def var_for_bool(self, var: BoolVar) -> int:
        sat = self._bool_vars.get(var.index)
        if sat is None:
            sat = self.new_var()
            self._bool_vars[var.index] = sat
        return sat

    def var_for_atom(self, atom: Atom) -> int:
        canonical = canonicalize_atom(atom)
        row, op, bound = canonical
        key = (row, op, bound.numerator, bound.denominator)
        sat = self._atoms.get(key)
        if sat is None:
            # The complementary operator over the same form is a *distinct*
            # SAT variable; the theory layer sees both as bounds on the
            # same slack and resolves interactions semantically.
            sat = self.new_var()
            self._atoms[key] = sat
            self.atom_of_var[sat] = canonical
        return sat

    def literal_for(self, term: BoolTerm) -> int:
        """Return a SAT literal equivalent to ``term`` (adding gate clauses)."""
        if isinstance(term, BoolConst):
            return self.TRUE_LIT if term.value else -self.TRUE_LIT
        if isinstance(term, BoolVar):
            return self.var_for_bool(term)
        if isinstance(term, Atom):
            return self.var_for_atom(term)
        if isinstance(term, Not):
            return -self.literal_for(term.arg)
        if isinstance(term, And):
            return self._gate("and", sorted(self.literal_for(a) for a in term.args))
        if isinstance(term, Or):
            return self._gate("or", sorted(self.literal_for(a) for a in term.args))
        raise TypeError(f"cannot convert {term!r} to CNF")

    def _gate(self, kind: str, child_lits: List[int]) -> int:
        lits = tuple(child_lits)
        lit_set = set(lits)
        has_complement = any(-l in lit_set for l in lit_set)
        if kind == "and":
            # fold constants / duplicates
            if -self.TRUE_LIT in lit_set or has_complement:
                return -self.TRUE_LIT
            lits = tuple(l for l in dict.fromkeys(lits) if l != self.TRUE_LIT)
            if not lits:
                return self.TRUE_LIT
            if len(lits) == 1:
                return lits[0]
        else:
            if self.TRUE_LIT in lit_set or has_complement:
                return self.TRUE_LIT
            lits = tuple(l for l in dict.fromkeys(lits) if l != -self.TRUE_LIT)
            if not lits:
                return -self.TRUE_LIT
            if len(lits) == 1:
                return lits[0]
        key = (kind, lits)
        gate = self._gates.get(key)
        if gate is not None:
            return gate
        gate = self.new_var()
        self._gates[key] = gate
        if kind == "and":
            for lit in lits:
                self.add_clause([-gate, lit])
            self.add_clause([gate] + [-l for l in lits])
        else:
            for lit in lits:
                self.add_clause([-lit, gate])
            self.add_clause([-gate] + list(lits))
        return gate

    # ------------------------------------------------------------------
    # top-level assertion
    # ------------------------------------------------------------------
    def assert_term(self, term: BoolTerm, guard: Optional[int] = None) -> None:
        """Assert ``term`` (optionally guarded: clauses become ``guard -> term``).

        Top-level conjunctions and disjunctions avoid gate variables.
        """
        extra = [] if guard is None else [-guard]
        if isinstance(term, And):
            for arg in term.args:
                self.assert_term(arg, guard)
            return
        if isinstance(term, Or):
            lits = [self.literal_for(a) for a in term.args]
            lit_set = set(lits)
            if self.TRUE_LIT in lit_set or any(-l in lit_set for l in lit_set):
                return
            self.add_clause(extra + [l for l in dict.fromkeys(lits) if l != -self.TRUE_LIT])
            return
        lit = self.literal_for(term)
        if lit == self.TRUE_LIT and guard is None:
            return
        self.add_clause(extra + [lit])
