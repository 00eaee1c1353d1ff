"""Incremental Simplex for SMT, after Dutertre & de Moura (CAV'06).

The solver maintains a tableau of *basic* variables expressed as linear
combinations of *nonbasic* variables, an assignment mapping every
variable to a delta-rational, and per-variable lower/upper bounds tagged
with the SAT literal that introduced them.  Bounds are asserted and
retracted incrementally as the SAT core walks its trail; ``check``
restores the invariant that every basic variable lies within its bounds
or reports a minimal conflicting set of bound literals.

Two engines share this interface:

* :class:`Simplex` is the production engine.  It keeps every tableau row
  as integer numerators over one per-row denominator and every
  assignment/bound as an integer triple ``(rn, kn, d)`` denoting
  ``(rn + kn*delta)/d`` with ``d > 0``, so additions and comparisons are
  integer multiply/adds; GCD normalization runs lazily, only when a
  denominator outgrows ``_NORM_LIMIT``.  It tracks the basic variables
  outside their bounds incrementally, so a quiescent ``check`` is O(1)
  instead of a full tableau scan — the scan is what goes quadratic in
  grid size, since the SAT core checks the theory at every BCP fixpoint.
* :class:`ReferenceSimplex` is the original per-operation ``Fraction``
  implementation, retained as the property-test oracle
  (``tests/smt/test_kernel_equivalence.py``) and selectable via
  ``Solver(kernel="reference")``.

Both pick pivots by the same rule over exact arithmetic and concretize
delta the same way, so verdicts, models, cores and search traces are
bit-identical.  The leaving variable is the smallest violated basic
one; the entering variable is the movable one whose column has the
fewest entries (the least fill-in), ties to the smaller index, until
one ``check`` has made ``_BLAND_AFTER`` pivots.  From then on that
check takes the smallest movable index (Bland's rule), which
guarantees termination.  No floating point is involved, so SAT/UNSAT
answers carry no rounding risk.  Strict inequalities are handled
symbolically through the infinitesimal component of delta-rationals.

:class:`Simplex` additionally exposes the hooks the theory-propagation
layer needs: a ``bound_dirty`` set of variables whose bounds changed
since it was last drained, and :meth:`Simplex.row_implied_bounds`, which
derives the bound a row implies on its basic variable from the bounds of
the nonbasic variables it mentions (unate propagation, D&M section 6).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

ZERO = Fraction(0)


class DeltaRational:
    """A number of the form ``r + k * delta`` for an infinitesimal delta."""

    __slots__ = ("r", "k")

    def __init__(self, r: Fraction, k: Fraction = ZERO) -> None:
        self.r = r
        self.k = k

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.r + other.r, self.k + other.k)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.r - other.r, self.k - other.k)

    def scale(self, factor: Fraction) -> "DeltaRational":
        return DeltaRational(self.r * factor, self.k * factor)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeltaRational)
            and self.r == other.r
            and self.k == other.k
        )

    def __lt__(self, other: "DeltaRational") -> bool:
        return (self.r, self.k) < (other.r, other.k)

    def __le__(self, other: "DeltaRational") -> bool:
        return (self.r, self.k) <= (other.r, other.k)

    def __gt__(self, other: "DeltaRational") -> bool:
        return (self.r, self.k) > (other.r, other.k)

    def __ge__(self, other: "DeltaRational") -> bool:
        return (self.r, self.k) >= (other.r, other.k)

    def __hash__(self) -> int:
        return hash((self.r, self.k))

    def __repr__(self) -> str:
        if self.k == 0:
            return f"{self.r}"
        return f"{self.r}{'+' if self.k > 0 else ''}{self.k}d"

    def concretize(self, delta: Fraction) -> Fraction:
        return self.r + self.k * delta


DR_ZERO = DeltaRational(ZERO, ZERO)


# ----------------------------------------------------------------------
# integer-triple arithmetic
# ----------------------------------------------------------------------
#: delta-rational as integers: (rn, kn, d) denotes (rn + kn*delta)/d, d > 0
Triple = Tuple[int, int, int]

T_ZERO: Triple = (0, 0, 1)

#: denominators are only GCD-normalized once they exceed this, keeping
#: the common case at machine-word width without a gcd per operation
_NORM_LIMIT = 1 << 64

#: pivots one ``check`` makes by the sparse-column rule before it falls
#: back to Bland's smallest-index rule (0 would be Bland's rule alone)
_BLAND_AFTER = 50

#: pivots between deferred refactorization sweeps
_REFACTOR_INTERVAL = 64

#: a refactorization sweep renormalizes rows/assignments whose
#: denominator exceeds this (well below _NORM_LIMIT, so the sweep picks
#: up growth the per-operation lazy GCD has not yet paid for)
_SPARSE_NORM_LIMIT = 1 << 32


def _triple_of(value: DeltaRational) -> Triple:
    """Exact conversion ``DeltaRational -> (rn, kn, d)``."""
    rd = value.r.denominator
    kd = value.k.denominator
    d = rd * kd // gcd(rd, kd)
    return (value.r.numerator * (d // rd), value.k.numerator * (d // kd), d)


def _delta_of(t: Triple) -> DeltaRational:
    """Exact conversion ``(rn, kn, d) -> DeltaRational``."""
    return DeltaRational(Fraction(t[0], t[2]), Fraction(t[1], t[2]))


def _tnorm(rn: int, kn: int, d: int) -> Triple:
    if d > _NORM_LIMIT:
        g = gcd(gcd(rn, kn), d)
        if g > 1:
            return (rn // g, kn // g, d // g)
    return (rn, kn, d)


def _tadd(a: Triple, b: Triple) -> Triple:
    ad = a[2]
    bd = b[2]
    if ad == bd:
        return _tnorm(a[0] + b[0], a[1] + b[1], ad)
    return _tnorm(a[0] * bd + b[0] * ad, a[1] * bd + b[1] * ad, ad * bd)


def _tsub(a: Triple, b: Triple) -> Triple:
    ad = a[2]
    bd = b[2]
    if ad == bd:
        return _tnorm(a[0] - b[0], a[1] - b[1], ad)
    return _tnorm(a[0] * bd - b[0] * ad, a[1] * bd - b[1] * ad, ad * bd)


def _tscale(t: Triple, num: int, den: int) -> Triple:
    """``t * num / den`` with ``den > 0``."""
    return _tnorm(t[0] * num, t[1] * num, t[2] * den)


def _tlt(a: Triple, b: Triple) -> bool:
    x = a[0] * b[2]
    y = b[0] * a[2]
    if x != y:
        return x < y
    return a[1] * b[2] < b[1] * a[2]


def _tle(a: Triple, b: Triple) -> bool:
    x = a[0] * b[2]
    y = b[0] * a[2]
    if x != y:
        return x < y
    return a[1] * b[2] <= b[1] * a[2]


def _teq(a: Triple, b: Triple) -> bool:
    return a[0] * b[2] == b[0] * a[2] and a[1] * b[2] == b[1] * a[2]


class _TripleView:
    """Read-only DeltaRational view over a list of internal triples.

    Keeps the public surface of the Fraction engine (``simplex.assign[x]
    == DeltaRational(...)``, ``simplex.lower[x] is None``) while the hot
    path works on raw triples.
    """

    __slots__ = ("_items",)

    def __init__(self, items: List) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, var: int) -> Optional[DeltaRational]:
        t = self._items[var]
        return None if t is None else _delta_of(t)


class Simplex:
    """The incremental simplex engine.

    Variables are dense integer indices allocated via :meth:`new_var`.
    Definitional rows (slack variables for linear forms) are installed
    with :meth:`add_row` before the search starts; bound assertions and
    retractions then drive the search.

    Internally each row ``basic -> {var: numerator}`` is scaled by
    ``row_den[basic] > 0``, with a column index ``cols[var]`` naming the
    rows that mention ``var``, so every row operation touches only
    nonzeros (~3 per row on real grids).  Every assignment/bound is a
    ``(rn, kn, d)`` triple; :attr:`assign`, :attr:`lower` and
    :attr:`upper` are read-only views converting back to
    :class:`DeltaRational` for callers and tests.

    * ``_violated`` is exactly the set of basic variables whose
      assignment lies outside their bounds.  :meth:`check` takes
      ``min(_violated)`` as the leaving variable without a full scan,
      so the no-pivot case — the common one — is O(1) instead of
      O(rows).
    * every ``_REFACTOR_INTERVAL`` pivots, :meth:`_refactorize` sweeps
      rows and assignment triples whose denominators outgrew
      ``_SPARSE_NORM_LIMIT`` and GCD-renormalizes them (deferred row
      maintenance in the eta-file spirit).  Counted in
      :attr:`refactorizations`.

    Both are value-preserving, so this engine stays bit-identical to
    :class:`ReferenceSimplex` — enforced by
    ``tests/smt/test_kernel_equivalence.py``.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # tableau: basic var -> {nonbasic var: integer numerator}
        self.rows: Dict[int, Dict[int, int]] = {}
        # per-row positive denominator shared by all numerators in a row
        self.row_den: Dict[int, int] = {}
        # column index: var -> set of basic vars whose row mentions it
        self.cols: Dict[int, set] = {}
        self._val: List[Triple] = []
        self._lb: List[Optional[Triple]] = []
        self._ub: List[Optional[Triple]] = []
        self.lower_reason: List[Optional[int]] = []
        self.upper_reason: List[Optional[int]] = []
        # undo trail: (var, 'L'|'U', old_bound_triple, old_reason)
        self.trail: List[Tuple[int, str, Optional[Triple], Optional[int]]] = []
        #: vars whose bounds tightened since the propagation layer last
        #: drained this set (consumed by LraTheory.propagate)
        self.bound_dirty: set = set()
        #: total pivot operations (perf counter, surfaced in Solver.stats)
        self.pivots = 0
        #: when True, check() self-validates with check_invariants()
        self.debug_invariants = False
        #: basic vars currently outside their bounds (exact, incremental)
        self._violated: set = set()
        #: deferred-maintenance sweeps that actually renormalized
        self.refactorizations = 0
        self._pivots_since_refactor = 0

    # read-only DeltaRational views over the internal triples
    @property
    def assign(self) -> _TripleView:
        return _TripleView(self._val)

    @property
    def lower(self) -> _TripleView:
        return _TripleView(self._lb)

    @property
    def upper(self) -> _TripleView:
        return _TripleView(self._ub)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        var = self.num_vars
        self.num_vars += 1
        self._val.append(T_ZERO)
        self._lb.append(None)
        self._ub.append(None)
        self.lower_reason.append(None)
        self.upper_reason.append(None)
        self.cols.setdefault(var, set())
        return var

    def add_row(self, slack: int, coeffs: Dict[int, Fraction]) -> None:
        """Install the definition ``slack == sum(coeff * var)``.

        Must be called before any bounds are asserted; ``slack`` becomes
        a basic variable.  Accepts ``Fraction`` (or int) coefficients;
        the row is stored as integer numerators over one common
        denominator.  An all-integer row over nonbasic variables (the
        theory layer's canonical rows, before any pivot) is stored as
        given, over denominator 1.
        """
        assert slack not in self.rows, "slack already defined"
        assert not self.trail, "rows must be installed before bound assertions"
        rows = self.rows
        if all(type(c) is int and var not in rows for var, c in coeffs.items()):
            row = {var: coeff for var, coeff in coeffs.items() if coeff}
            den = 1
        else:
            row, den = self._integer_row(coeffs)
        value = T_ZERO
        vals = self._val
        cols = self.cols
        for var, num in row.items():
            # adding a T_ZERO term leaves the sum's triple as it is
            if vals[var] != T_ZERO:
                value = _tadd(value, _tscale(vals[var], num, 1))
            cols[var].add(slack)
        self.rows[slack] = row
        self.row_den[slack] = den
        self._val[slack] = _tscale(value, 1, den)

    def _integer_row(self, coeffs: Dict[int, Fraction]) -> Tuple[Dict[int, int], int]:
        """``coeffs`` over nonbasic variables, as numerators and their
        common denominator: basic variables are replaced by their rows."""
        frac_row: Dict[int, Fraction] = {}
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            if var in self.rows:
                # substitute the definition of a basic variable
                bden = self.row_den[var]
                for v2, c2 in self.rows[var].items():
                    frac_row[v2] = frac_row.get(v2, ZERO) + coeff * Fraction(c2, bden)
                    if frac_row[v2] == 0:
                        del frac_row[v2]
            else:
                frac_row[var] = frac_row.get(var, ZERO) + coeff
                if frac_row[var] == 0:
                    del frac_row[var]
        den = 1
        for coeff in frac_row.values():
            den = den * coeff.denominator // gcd(den, coeff.denominator)
        return {var: int(coeff * den) for var, coeff in frac_row.items()}, den

    # ------------------------------------------------------------------
    # violated-set maintenance
    # ------------------------------------------------------------------
    def _refresh_basic(self, var: int) -> None:
        """Recompute ``var``'s membership in ``_violated`` (basic only)."""
        val = self._val[var]
        lo = self._lb[var]
        if lo is not None:
            # val < lo, inlined _tlt
            x = val[0] * lo[2]
            y = lo[0] * val[2]
            if x < y or (x == y and val[1] * lo[2] < lo[1] * val[2]):
                self._violated.add(var)
                return
        hi = self._ub[var]
        if hi is not None:
            # val > hi, inlined _tlt
            x = val[0] * hi[2]
            y = hi[0] * val[2]
            if x > y or (x == y and val[1] * hi[2] > hi[1] * val[2]):
                self._violated.add(var)
                return
        self._violated.discard(var)

    # ------------------------------------------------------------------
    # assignment maintenance
    # ------------------------------------------------------------------
    def _update_nonbasic(self, var: int, value: Triple) -> None:
        old = self._val[var]
        od = old[2]
        vd = value[2]
        delta = (value[0] * od - old[0] * vd, value[1] * od - old[1] * vd, vd * od)
        rows = self.rows
        dens = self.row_den
        vals = self._val
        touched = self.cols[var]
        for basic in touched:
            vals[basic] = _tadd(vals[basic], _tscale(delta, rows[basic][var], dens[basic]))
        vals[var] = value
        for basic in touched:
            self._refresh_basic(basic)

    def _pivot_and_update(self, basic: int, nonbasic: int, value: Triple) -> None:
        num = self.rows[basic][nonbasic]
        den = self.row_den[basic]
        old = self._val[basic]
        od = old[2]
        vd = value[2]
        dr = value[0] * od - old[0] * vd
        dk = value[1] * od - old[1] * vd
        dd = vd * od
        # theta = (value - assign[basic]) * den / num, with positive denom
        if num > 0:
            theta = _tnorm(dr * den, dk * den, dd * num)
        else:
            theta = _tnorm(-dr * den, -dk * den, dd * -num)
        vals = self._val
        vals[basic] = value
        vals[nonbasic] = _tadd(vals[nonbasic], theta)
        rows = self.rows
        dens = self.row_den
        touched = [other for other in self.cols[nonbasic] if other != basic]
        for other in touched:
            vals[other] = _tadd(
                vals[other], _tscale(theta, rows[other][nonbasic], dens[other])
            )
        self._pivot(basic, nonbasic)
        # `basic` left the basis pinned exactly at its bound; `nonbasic`
        # entered with a moved assignment; every other touched row's
        # value changed — only these can change violation status
        self._violated.discard(basic)
        self._refresh_basic(nonbasic)
        for other in touched:
            self._refresh_basic(other)

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Swap roles: ``nonbasic`` enters the basis, ``basic`` leaves."""
        self.pivots += 1
        row = self.rows.pop(basic)
        den = self.row_den.pop(basic)
        p = row.pop(nonbasic)
        # basic == (p*nonbasic + rest)/den  =>  nonbasic == (den*basic - rest)/p
        if p > 0:
            new_den = p
            new_row = {basic: den}
            for var, c in row.items():
                new_row[var] = -c
                self.cols[var].discard(basic)
        else:
            new_den = -p
            new_row = {basic: -den}
            for var, c in row.items():
                new_row[var] = c
                self.cols[var].discard(basic)
        self.cols[nonbasic].discard(basic)
        self.cols[basic].add(nonbasic)
        for var in new_row:
            if var != basic:
                self.cols[var].add(nonbasic)
        self.rows[nonbasic] = new_row
        self.row_den[nonbasic] = new_den
        # substitute into every other row that mentions `nonbasic`
        cols = self.cols
        for other in list(cols[nonbasic]):
            if other == nonbasic:
                continue
            orow = self.rows[other]
            factor = orow.pop(nonbasic)
            if new_den != 1:
                for var in orow:
                    orow[var] *= new_den
                d = self.row_den[other] * new_den
            else:
                d = self.row_den[other]
            for var, c in new_row.items():
                newc = orow.get(var, 0) + factor * c
                if newc == 0:
                    if var in orow:
                        del orow[var]
                    cols[var].discard(other)
                else:
                    orow[var] = newc
                    cols[var].add(other)
            if d > _NORM_LIMIT:
                g = d
                for c in orow.values():
                    g = gcd(g, c)
                    if g == 1:
                        break
                if g > 1:
                    for var in orow:
                        orow[var] //= g
                    d //= g
            self.row_den[other] = d
        # after substitution no row mentions the (now basic) variable
        cols[nonbasic] = set()
        self._pivots_since_refactor += 1
        if self._pivots_since_refactor >= _REFACTOR_INTERVAL:
            self._refactorize()

    def _refactorize(self) -> None:
        """Deferred row maintenance: GCD-renormalize grown denominators.

        Representation-only (every row and assignment keeps its exact
        value), so verdicts, pivot sequences and models are unaffected;
        it just keeps numerators near machine-word width between the
        per-operation lazy normalizations.
        """
        self._pivots_since_refactor = 0
        swept = False
        for basic, den in self.row_den.items():
            if den <= _SPARSE_NORM_LIMIT:
                continue
            row = self.rows[basic]
            g = den
            for c in row.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                for var in row:
                    row[var] //= g
                self.row_den[basic] = den // g
                swept = True
        vals = self._val
        for var, t in enumerate(vals):
            if t[2] > _SPARSE_NORM_LIMIT:
                g = gcd(gcd(t[0], t[1]), t[2])
                if g > 1:
                    vals[var] = (t[0] // g, t[1] // g, t[2] // g)
                    swept = True
        if swept:
            self.refactorizations += 1

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def assert_lower(self, var: int, value, reason: int) -> Optional[List[int]]:
        """Assert ``var >= value``; returns conflicting reasons or None.

        ``value`` may be a :class:`DeltaRational` (public surface) or an
        internal triple (the theory layer's precomputed hot path).
        """
        if type(value) is not tuple:
            value = _triple_of(value)
        lo = self._lb[var]
        if lo is not None and _tle(value, lo):
            return None
        hi = self._ub[var]
        if hi is not None and _tlt(hi, value):
            return [reason, self.upper_reason[var]]
        self.trail.append((var, "L", lo, self.lower_reason[var]))
        self._lb[var] = value
        self.lower_reason[var] = reason
        self.bound_dirty.add(var)
        if var in self.rows:
            # basic: the assignment stays put, but the tightened bound
            # alone can push the row into violation
            if _tlt(self._val[var], value):
                self._violated.add(var)
        elif _tlt(self._val[var], value):
            self._update_nonbasic(var, value)
        return None

    def assert_upper(self, var: int, value, reason: int) -> Optional[List[int]]:
        """Assert ``var <= value``; returns conflicting reasons or None."""
        if type(value) is not tuple:
            value = _triple_of(value)
        hi = self._ub[var]
        if hi is not None and _tle(hi, value):
            return None
        lo = self._lb[var]
        if lo is not None and _tlt(value, lo):
            return [reason, self.lower_reason[var]]
        self.trail.append((var, "U", hi, self.upper_reason[var]))
        self._ub[var] = value
        self.upper_reason[var] = reason
        self.bound_dirty.add(var)
        if var in self.rows:
            if _tlt(value, self._val[var]):
                self._violated.add(var)
        elif _tlt(value, self._val[var]):
            self._update_nonbasic(var, value)
        return None

    def mark(self) -> int:
        """Current undo-trail position, for later :meth:`backtrack`."""
        return len(self.trail)

    def backtrack(self, mark: int) -> None:
        """Retract all bound assertions made after ``mark``."""
        touched = set()
        while len(self.trail) > mark:
            var, which, old_value, old_reason = self.trail.pop()
            if which == "L":
                self._lb[var] = old_value
                self.lower_reason[var] = old_reason
            else:
                self._ub[var] = old_value
                self.upper_reason[var] = old_reason
            touched.add(var)
        rows = self.rows
        for var in touched:
            if var in rows:
                self._refresh_basic(var)

    # ------------------------------------------------------------------
    # the check procedure
    # ------------------------------------------------------------------
    def check(self) -> Optional[List[int]]:
        """Restore feasibility; returns a conflicting reason set or None.

        Nonbasic variables are always within their bounds; this pivots
        until every basic variable is too (SAT) or some row proves a
        bound conflict (UNSAT, with the reasons of all involved bounds).

        The violating row is ``min(_violated)``.  The entering variable
        is the movable one in that row whose column has the fewest
        entries, ties to the smaller index, so a pivot substitutes into
        as few rows as it can.  Once this call has made ``_BLAND_AFTER``
        pivots, it is the smallest movable index instead: Bland's rule,
        which guarantees termination (no cycling) from any basis.
        """
        rows = self.rows
        cols = self.cols
        vals = self._val
        lbs = self._lb
        ubs = self._ub
        violated = self._violated
        made = 0
        while True:
            if not violated:
                if self.debug_invariants:
                    self.check_invariants()
                return None
            violating = min(violated)
            val = vals[violating]
            lo = lbs[violating]
            # active bounds never cross, so the violated side is
            # unambiguous: below the lower bound means increase
            increase = lo is not None and _tlt(val, lo)
            row = rows[violating]
            # the key (column entries, index) as one integer, since every
            # index is below num_vars; past the budget, weight 0 leaves
            # the index alone, which is Bland's rule
            weight = self.num_vars if made < _BLAND_AFTER else 0
            pivot_var = -1
            best = 0
            for var in row:
                coeff = row[var]
                if increase:
                    movable = (
                        coeff > 0
                        and (ubs[var] is None or _tlt(vals[var], ubs[var]))
                    ) or (
                        coeff < 0
                        and (lbs[var] is None or _tlt(lbs[var], vals[var]))
                    )
                else:
                    movable = (
                        coeff > 0
                        and (lbs[var] is None or _tlt(lbs[var], vals[var]))
                    ) or (
                        coeff < 0
                        and (ubs[var] is None or _tlt(vals[var], ubs[var]))
                    )
                if movable:
                    key = len(cols[var]) * weight + var
                    if pivot_var == -1 or key < best:
                        pivot_var = var
                        best = key
            if pivot_var == -1:
                # conflict: the row pins `violating` strictly outside its bound
                reasons = []
                if increase:
                    reasons.append(self.lower_reason[violating])
                    for var, coeff in row.items():
                        reasons.append(
                            self.upper_reason[var] if coeff > 0 else self.lower_reason[var]
                        )
                else:
                    reasons.append(self.upper_reason[violating])
                    for var, coeff in row.items():
                        reasons.append(
                            self.lower_reason[var] if coeff > 0 else self.upper_reason[var]
                        )
                if self.debug_invariants:
                    self.check_invariants()
                return sorted({r for r in reasons if r is not None})
            target = lbs[violating] if increase else ubs[violating]
            assert target is not None
            self._pivot_and_update(violating, pivot_var, target)
            made += 1

    # ------------------------------------------------------------------
    # theory-aware bound propagation support
    # ------------------------------------------------------------------
    def row_implied_bounds(self, basic: int):
        """Bounds on ``basic`` implied by its row and the nonbasic bounds.

        With ``basic == sum(num_i * x_i) / den``, a finite lower bound
        follows when every positively-signed ``x_i`` has a lower bound
        and every negatively-signed one an upper bound (dually for the
        upper bound).  Returns ``(lo, lo_expl, hi, hi_expl)`` where the
        bounds are triples (or None) and the explanations are the lists
        of bound-reason literals each derived bound rests on.
        """
        row = self.rows[basic]
        den = self.row_den[basic]
        lbs = self._lb
        ubs = self._ub
        lo_r = lo_k = 0
        lo_d = 1
        hi_r = hi_k = 0
        hi_d = 1
        lo_expl: List[int] = []
        hi_expl: List[int] = []
        have_lo = have_hi = True
        for var, num in row.items():
            if num > 0:
                blo, bhi = lbs[var], ubs[var]
                lo_reason = self.lower_reason[var]
                hi_reason = self.upper_reason[var]
            else:
                blo, bhi = ubs[var], lbs[var]
                lo_reason = self.upper_reason[var]
                hi_reason = self.lower_reason[var]
            if have_lo:
                if blo is None or lo_reason is None:
                    have_lo = False
                else:
                    br, bk, bd = blo
                    lo_r = lo_r * bd + br * num * lo_d
                    lo_k = lo_k * bd + bk * num * lo_d
                    lo_d *= bd
                    lo_expl.append(lo_reason)
            if have_hi:
                if bhi is None or hi_reason is None:
                    have_hi = False
                else:
                    br, bk, bd = bhi
                    hi_r = hi_r * bd + br * num * hi_d
                    hi_k = hi_k * bd + bk * num * hi_d
                    hi_d *= bd
                    hi_expl.append(hi_reason)
            if not (have_lo or have_hi):
                return None, None, None, None
        lo = _tnorm(lo_r, lo_k, lo_d * den) if have_lo else None
        hi = _tnorm(hi_r, hi_k, hi_d * den) if have_hi else None
        return (
            lo,
            lo_expl if have_lo else None,
            hi,
            hi_expl if have_hi else None,
        )

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------
    def check_invariants(self) -> bool:
        """Validate tableau / column-index / assignment / bound coherence
        and the exactness of the ``_violated`` set.

        Raises ``AssertionError`` on the first violation; returns True
        when everything holds.  Intended for the randomized tests and
        the ``debug_invariants`` flag — quadratic, never on by default.
        """
        basics = set(self.rows)
        for basic, row in self.rows.items():
            den = self.row_den[basic]
            assert den > 0, f"row {basic}: non-positive denominator {den}"
            assert basic not in row, f"row {basic} mentions itself"
            value = T_ZERO
            for var, num in row.items():
                assert num != 0, f"row {basic} stores a zero coefficient for {var}"
                assert var not in basics, f"row {basic} mentions basic var {var}"
                assert basic in self.cols[var], f"cols[{var}] misses row {basic}"
                value = _tadd(value, _tscale(self._val[var], num, 1))
            value = _tscale(value, 1, den)
            assert _teq(self._val[basic], value), (
                f"assignment of basic {basic} out of sync with its row"
            )
        for var, col in self.cols.items():
            expect = {b for b, row in self.rows.items() if var in row}
            assert col == expect, f"cols[{var}] stale: {col} != {expect}"
        for var in range(self.num_vars):
            lo = self._lb[var]
            hi = self._ub[var]
            if lo is not None and hi is not None:
                assert _tle(lo, hi), f"var {var}: bounds cross"
            if var not in self.rows:
                val = self._val[var]
                assert lo is None or _tle(lo, val), f"nonbasic {var} below lower bound"
                assert hi is None or _tle(val, hi), f"nonbasic {var} above upper bound"
        expect = set()
        for basic in self.rows:
            val = self._val[basic]
            lo = self._lb[basic]
            hi = self._ub[basic]
            if (lo is not None and _tlt(val, lo)) or (
                hi is not None and _tlt(hi, val)
            ):
                expect.add(basic)
        assert self._violated == expect, (
            f"violated set stale: {sorted(self._violated)} != {sorted(expect)}"
        )
        return True

    # ------------------------------------------------------------------
    # model extraction
    # ------------------------------------------------------------------
    def concrete_values(self) -> List[Fraction]:
        """Concretize delta-rationals into plain rationals.

        Chooses a positive rational value for delta small enough that
        all asserted bounds remain satisfied, by the reference engine's
        rule, so models are bit-identical.  Delta is found on the
        integer triples, and each value is then one ``Fraction``.
        """
        # delta = dn/dd, the least (diff_r / -diff_k) / 2 over the bounds
        # whose slack diff_r + diff_k*delta shrinks as delta grows
        dn = dd = 1
        vals = self._val
        for bounds, sign in ((self._lb, 1), (self._ub, -1)):
            for var, bound in enumerate(bounds):
                if bound is None:
                    continue
                rn, kn, d = vals[var]
                bn, bk, bd = bound
                # sign * (value - bound), both parts over d * bd
                diff_k = sign * (kn * bd - bk * d)
                if diff_k < 0:
                    diff_r = sign * (rn * bd - bn * d)
                    assert diff_r >= 0, "bound violated at concretization"
                    if diff_r > 0 and diff_r * dd < -2 * diff_k * dn:
                        dn, dd = diff_r, -2 * diff_k
        return [Fraction(rn * dd + kn * dn, d * dd) for rn, kn, d in vals]


class ReferenceSimplex:
    """The original per-operation ``Fraction`` engine (property oracle).

    The pre-overhaul implementation, with the production pivot rule,
    kept as the reference against which :class:`Simplex` must stay
    bit-identical (same pivot sequence, same verdicts, same models).
    Selected with ``Solver(kernel="reference")`` /
    ``REPRO_THEORY_KERNEL=reference``.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # tableau: basic var -> {nonbasic var: coefficient}
        self.rows: Dict[int, Dict[int, Fraction]] = {}
        # column index: var -> set of basic vars whose row mentions it
        self.cols: Dict[int, set] = {}
        self.assign: List[DeltaRational] = []
        self.lower: List[Optional[DeltaRational]] = []
        self.upper: List[Optional[DeltaRational]] = []
        self.lower_reason: List[Optional[int]] = []
        self.upper_reason: List[Optional[int]] = []
        # undo trail: (var, 'L'|'U', old_bound, old_reason)
        self.trail: List[Tuple[int, str, Optional[DeltaRational], Optional[int]]] = []
        self.bound_dirty: set = set()
        self.pivots = 0
        self.debug_invariants = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        var = self.num_vars
        self.num_vars += 1
        self.assign.append(DR_ZERO)
        self.lower.append(None)
        self.upper.append(None)
        self.lower_reason.append(None)
        self.upper_reason.append(None)
        self.cols.setdefault(var, set())
        return var

    def add_row(self, slack: int, coeffs: Dict[int, Fraction]) -> None:
        """Install the definition ``slack == sum(coeff * var)``."""
        assert slack not in self.rows, "slack already defined"
        assert not self.trail, "rows must be installed before bound assertions"
        row: Dict[int, Fraction] = {}
        value = DR_ZERO
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            if var in self.rows:
                # substitute the definition of a basic variable
                for v2, c2 in self.rows[var].items():
                    row[v2] = row.get(v2, ZERO) + coeff * c2
                    if row[v2] == 0:
                        del row[v2]
            else:
                row[var] = row.get(var, ZERO) + coeff
                if row[var] == 0:
                    del row[var]
        for var, coeff in row.items():
            value = value + self.assign[var].scale(coeff)
            self.cols[var].add(slack)
        self.rows[slack] = row
        self.assign[slack] = value

    # ------------------------------------------------------------------
    # assignment maintenance
    # ------------------------------------------------------------------
    def _update_nonbasic(self, var: int, value: DeltaRational) -> None:
        delta = value - self.assign[var]
        for basic in self.cols[var]:
            self.assign[basic] = self.assign[basic] + delta.scale(self.rows[basic][var])
        self.assign[var] = value

    def _pivot_and_update(self, basic: int, nonbasic: int, value: DeltaRational) -> None:
        coeff = self.rows[basic][nonbasic]
        theta = (value - self.assign[basic]).scale(Fraction(1) / coeff)
        self.assign[basic] = value
        self.assign[nonbasic] = self.assign[nonbasic] + theta
        for other in self.cols[nonbasic]:
            if other != basic:
                self.assign[other] = self.assign[other] + theta.scale(
                    self.rows[other][nonbasic]
                )
        self._pivot(basic, nonbasic)

    def _pivot(self, basic: int, nonbasic: int) -> None:
        """Swap roles: ``nonbasic`` enters the basis, ``basic`` leaves."""
        self.pivots += 1
        row = self.rows.pop(basic)
        coeff = row.pop(nonbasic)
        inv = Fraction(1) / coeff
        new_row = {basic: inv}
        for var, c in row.items():
            new_row[var] = -c * inv
            self.cols[var].discard(basic)
        self.cols[nonbasic].discard(basic)
        self.cols[basic].add(nonbasic)
        for var in new_row:
            if var != basic:
                self.cols[var].add(nonbasic)
        self.rows[nonbasic] = new_row
        # substitute into every other row that mentions `nonbasic`
        for other in list(self.cols[nonbasic]):
            if other == nonbasic:
                continue
            orow = self.rows[other]
            factor = orow.pop(nonbasic)
            for var, c in new_row.items():
                newc = orow.get(var, ZERO) + factor * c
                if newc == 0:
                    if var in orow:
                        del orow[var]
                    self.cols[var].discard(other)
                else:
                    orow[var] = newc
                    self.cols[var].add(other)
        self.cols[nonbasic] = {
            b for b in self.cols[nonbasic] if b in self.rows and nonbasic in self.rows[b]
        }

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def assert_lower(self, var: int, value: DeltaRational, reason: int) -> Optional[List[int]]:
        """Assert ``var >= value``; returns conflicting reasons or None."""
        if self.lower[var] is not None and value <= self.lower[var]:
            return None
        upper = self.upper[var]
        if upper is not None and value > upper:
            return [reason, self.upper_reason[var]]
        self.trail.append((var, "L", self.lower[var], self.lower_reason[var]))
        self.lower[var] = value
        self.lower_reason[var] = reason
        self.bound_dirty.add(var)
        if var not in self.rows and self.assign[var] < value:
            self._update_nonbasic(var, value)
        return None

    def assert_upper(self, var: int, value: DeltaRational, reason: int) -> Optional[List[int]]:
        """Assert ``var <= value``; returns conflicting reasons or None."""
        if self.upper[var] is not None and value >= self.upper[var]:
            return None
        lower = self.lower[var]
        if lower is not None and value < lower:
            return [reason, self.lower_reason[var]]
        self.trail.append((var, "U", self.upper[var], self.upper_reason[var]))
        self.upper[var] = value
        self.upper_reason[var] = reason
        self.bound_dirty.add(var)
        if var not in self.rows and self.assign[var] > value:
            self._update_nonbasic(var, value)
        return None

    def mark(self) -> int:
        """Current undo-trail position, for later :meth:`backtrack`."""
        return len(self.trail)

    def backtrack(self, mark: int) -> None:
        """Retract all bound assertions made after ``mark``."""
        while len(self.trail) > mark:
            var, which, old_value, old_reason = self.trail.pop()
            if which == "L":
                self.lower[var] = old_value
                self.lower_reason[var] = old_reason
            else:
                self.upper[var] = old_value
                self.upper_reason[var] = old_reason

    # ------------------------------------------------------------------
    # the check procedure
    # ------------------------------------------------------------------
    def check(self) -> Optional[List[int]]:
        """Restore feasibility; returns a conflicting reason set or None.

        Same pivot rule as :meth:`Simplex.check`: the smallest violated
        basic variable leaves, and the movable variable with the fewest
        column entries enters until ``_BLAND_AFTER`` pivots, the
        smallest movable one after.
        """
        made = 0
        while True:
            violating = -1
            increase = False
            for basic in self.rows:
                val = self.assign[basic]
                lo = self.lower[basic]
                if lo is not None and val < lo:
                    if violating == -1 or basic < violating:
                        violating, increase = basic, True
                    continue
                hi = self.upper[basic]
                if hi is not None and val > hi:
                    if violating == -1 or basic < violating:
                        violating, increase = basic, False
            if violating == -1:
                if self.debug_invariants:
                    self.check_invariants()
                return None
            row = self.rows[violating]
            weight = self.num_vars if made < _BLAND_AFTER else 0
            pivot_var = -1
            best = 0
            for var in row:
                coeff = row[var]
                if increase:
                    movable = (
                        coeff > 0
                        and (self.upper[var] is None or self.assign[var] < self.upper[var])
                    ) or (
                        coeff < 0
                        and (self.lower[var] is None or self.assign[var] > self.lower[var])
                    )
                else:
                    movable = (
                        coeff > 0
                        and (self.lower[var] is None or self.assign[var] > self.lower[var])
                    ) or (
                        coeff < 0
                        and (self.upper[var] is None or self.assign[var] < self.upper[var])
                    )
                if movable:
                    key = len(self.cols[var]) * weight + var
                    if pivot_var == -1 or key < best:
                        pivot_var = var
                        best = key
            if pivot_var == -1:
                # conflict: the row pins `violating` strictly outside its bound
                reasons = []
                if increase:
                    reasons.append(self.lower_reason[violating])
                    for var, coeff in row.items():
                        reasons.append(
                            self.upper_reason[var] if coeff > 0 else self.lower_reason[var]
                        )
                else:
                    reasons.append(self.upper_reason[violating])
                    for var, coeff in row.items():
                        reasons.append(
                            self.lower_reason[var] if coeff > 0 else self.upper_reason[var]
                        )
                if self.debug_invariants:
                    self.check_invariants()
                return sorted({r for r in reasons if r is not None})
            target = self.lower[violating] if increase else self.upper[violating]
            assert target is not None
            self._pivot_and_update(violating, pivot_var, target)
            made += 1

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------
    def check_invariants(self) -> bool:
        """Fraction-engine twin of :meth:`Simplex.check_invariants`."""
        basics = set(self.rows)
        for basic, row in self.rows.items():
            assert basic not in row, f"row {basic} mentions itself"
            value = DR_ZERO
            for var, coeff in row.items():
                assert coeff != 0, f"row {basic} stores a zero coefficient for {var}"
                assert var not in basics, f"row {basic} mentions basic var {var}"
                assert basic in self.cols[var], f"cols[{var}] misses row {basic}"
                value = value + self.assign[var].scale(coeff)
            assert self.assign[basic] == value, (
                f"assignment of basic {basic} out of sync with its row"
            )
        for var, col in self.cols.items():
            expect = {b for b, row in self.rows.items() if var in row}
            assert col == expect, f"cols[{var}] stale: {col} != {expect}"
        for var in range(self.num_vars):
            lo = self.lower[var]
            hi = self.upper[var]
            if lo is not None and hi is not None:
                assert lo <= hi, f"var {var}: bounds cross"
            if var not in self.rows:
                val = self.assign[var]
                assert lo is None or lo <= val, f"nonbasic {var} below lower bound"
                assert hi is None or val <= hi, f"nonbasic {var} above upper bound"
        return True

    # ------------------------------------------------------------------
    # model extraction
    # ------------------------------------------------------------------
    def concrete_values(self) -> List[Fraction]:
        """Concretize delta-rationals into plain rationals."""
        delta = Fraction(1)
        for var in range(self.num_vars):
            val = self.assign[var]
            for bound, is_lower in ((self.lower[var], True), (self.upper[var], False)):
                if bound is None:
                    continue
                diff_r = val.r - bound.r if is_lower else bound.r - val.r
                diff_k = val.k - bound.k if is_lower else bound.k - val.k
                # need diff_r + diff_k * delta >= 0
                if diff_k < 0:
                    assert diff_r >= 0, "bound violated at concretization"
                    if diff_r > 0:
                        delta = min(delta, Fraction(diff_r, -diff_k) / 2)
        return [self.assign[var].concretize(delta) for var in range(self.num_vars)]
