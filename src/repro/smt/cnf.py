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

# the term classes literal_for() converts
_TERM_KINDS = (Atom, Not, Or, And, BoolVar, BoolConst)


def canonical_form(expr: LinExpr) -> Tuple[Row, Fraction]:
    """The primitive integer row of a linear form, and its scale.

    Returns ``(row, scale)`` with ``row == scale * expr``; ``scale`` is
    negative when the form's first coefficient is.
    """
    row, num, den = _primitive_row(expr)
    return row, Fraction(num, den)


def _primitive_row(expr: LinExpr) -> Tuple[Row, int, int]:
    """:func:`canonical_form` with the scale as ``num, den`` (``den > 0``).

    Computed once per expression and cached on it (a :class:`LinExpr`
    is immutable).
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
    form = expr._form = (row, den, g) if g > 0 else (row, -den, -g)
    return form


def canonicalize_atom(atom: Atom) -> CanonicalAtom:
    """Normalize an atom so equivalent half-spaces share one key.

    The linear form becomes its primitive integer row and the bound is
    scaled with it; a negative scale flips the operator.
    """
    row, op, num, den = _atom_key(atom)
    return (row, op, Fraction(num, den))


def _atom_key(atom: Atom) -> Tuple[Row, str, int, int]:
    """:func:`canonicalize_atom` in integers: the bound as its reduced
    numerator and positive denominator, so keying an atom builds and
    hashes no ``Fraction``."""
    row, scale_num, scale_den = _primitive_row(atom.expr)
    op = atom.op
    bound = atom.bound
    num = bound.numerator
    den = bound.denominator
    if scale_num < 0:
        op = ">=" if op == "<=" else "<="
    if num and (scale_num != 1 or scale_den != 1):
        num *= scale_num
        den *= scale_den
        g = gcd(num, den)
        num //= g
        den //= g
    return (row, op, num, den)


class CnfBuilder:
    """Incrementally builds CNF clauses and the atom registry."""

    TRUE_LIT = 1

    def __init__(self, add_clause: Optional[Callable[[List[int]], None]] = None) -> None:
        self.num_vars = 1  # variable 1 == constant TRUE
        # pristine copy of every emitted clause (consumed by the MILP
        # mirror backend; the SAT solver mutates its own copies)
        self.clauses: List[List[int]] = []
        self._hook = add_clause
        #: atoms that :meth:`var_for_atom` created and no clause has
        #: mentioned yet (sat var -> canonical atom); the hook's owner
        #: drains it as the clauses reach it
        self.new_atoms: Dict[int, CanonicalAtom] = {}
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
        # takes over a fresh list: the hook only reads it
        self.clauses.append(lits)
        if self._hook is not None:
            self._hook(lits)

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
        key = _atom_key(atom)
        sat = self._atoms.get(key)
        if sat is None:
            # The complementary operator over the same form is a *distinct*
            # SAT variable; the theory layer sees both as bounds on the
            # same slack and resolves interactions semantically.
            sat = self.new_var()
            self._atoms[key] = sat
            row, op, num, den = key
            canonical = (row, op, Fraction(num, den))
            self.atom_of_var[sat] = canonical
            self.new_atoms[sat] = canonical
        return sat

    def literal_for(self, term: BoolTerm) -> int:
        """Return a SAT literal equivalent to ``term`` (adding gate clauses)."""
        kind = type(term)
        if kind not in _TERM_KINDS:  # a subclass
            kind = next((k for k in _TERM_KINDS if isinstance(term, k)), None)
            if kind is None:
                raise TypeError(f"cannot convert {term!r} to CNF")
        if kind is Atom:
            return self.var_for_atom(term)
        if kind is Not:
            return -self.literal_for(term.arg)
        if kind is Or or kind is And:
            lits = [self.literal_for(a) for a in term.args]
            lits.sort()
            return self._gate("or" if kind is Or else "and", lits)
        if kind is BoolVar:
            return self.var_for_bool(term)
        return self.TRUE_LIT if term.value else -self.TRUE_LIT

    def _fold(self, lits: List[int], absorbing: int) -> Optional[List[int]]:
        """The literals of a connective without duplicates and without the
        neutral ``-absorbing``, in first-occurrence order; None when it
        collapses to ``absorbing`` (one occurs, or two complementary
        literals do).

        One pass with a set: a list scan instead would do no set work on
        two literals, but goes quadratic on an any-state disjunction
        (999 literals on synthetic1000).
        """
        out: List[int] = []
        seen = set()
        for lit in lits:
            if lit in seen:
                continue
            if lit == absorbing or -lit in seen:
                return None
            seen.add(lit)
            if lit != -absorbing:
                out.append(lit)
        return out

    def _gate(self, kind: str, child_lits: List[int]) -> int:
        absorbing = -self.TRUE_LIT if kind == "and" else self.TRUE_LIT
        lits = self._fold(child_lits, absorbing)
        if lits is None:
            return absorbing
        if len(lits) < 2:
            return lits[0] if lits else -absorbing
        key = (kind, tuple(lits))
        gate = self._gates.get(key)
        if gate is not None:
            return gate
        gate = self.new_var()
        self._gates[key] = gate
        if kind == "and":
            for lit in lits:
                self._emit([-gate, lit])
            self._emit([gate] + [-l for l in lits])
        else:
            for lit in lits:
                self._emit([-lit, gate])
            self._emit([-gate, *lits])
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
            lits = self._fold([self.literal_for(a) for a in term.args], self.TRUE_LIT)
            if lits is not None:
                self._emit(extra + lits)
            return
        lit = self.literal_for(term)
        if lit == self.TRUE_LIT and guard is None:
            return
        self._emit(extra + [lit])
