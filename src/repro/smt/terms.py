"""Term language for the QF_LRA solver.

Terms come in two sorts:

* *Real* terms are affine expressions over :class:`RealVar` variables with
  exact :class:`fractions.Fraction` coefficients (:class:`LinExpr`).
* *Boolean* terms are built from :class:`BoolVar`, the constants
  :data:`TRUE`/:data:`FALSE`, linear-arithmetic atoms (:class:`Atom`) and
  the connectives :class:`Not`, :class:`And`, :class:`Or` (with
  :func:`implies` and :func:`iff` as sugar).

Equality over reals is *not* an atom: :func:`eq` expands ``e == c`` into
``(e <= c) and (e >= c)`` so that negation yields an honest disjunction of
strict inequalities, which the simplex theory solver handles through
delta-rationals.  Disequality against a tolerance is provided by
:func:`neq_with_eps`, which is the encoding used throughout the UFDI
models (sound there because the constraint systems are homogeneous; see
``repro.core.verification``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Number = Union[int, float, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_fraction(value: Number) -> Fraction:
    """Convert a number to an exact :class:`Fraction`.

    Floats are converted through their shortest decimal representation
    (``Fraction(str(x))``) so that literals such as ``16.90`` become the
    exact rational ``169/10`` rather than the binary-float neighbour.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class RealVar:
    """A real-valued unknown, identified by a dense integer index."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index

    def __repr__(self) -> str:
        return f"RealVar({self.name!r})"

    # Arithmetic sugar delegates to LinExpr.
    def _expr(self) -> "LinExpr":
        return LinExpr({self.index: _ONE}, _ZERO)

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-self._expr()) + other

    def __mul__(self, other: Number):
        return self._expr() * other

    __rmul__ = __mul__

    def __neg__(self):
        return -self._expr()


class LinExpr:
    """An immutable affine expression ``sum(coeff_i * var_i) + const``.

    ``coeffs`` maps :attr:`RealVar.index` to a nonzero Fraction.
    ``_form`` caches the expression's primitive integer row, computed
    once by :func:`repro.smt.cnf.canonical_form` and shared by every
    atom over this expression.
    """

    __slots__ = ("coeffs", "const", "_form")

    def __init__(self, coeffs: Mapping[int, Fraction], const: Fraction) -> None:
        self.coeffs = {v: c for v, c in coeffs.items() if c}
        self.const = const
        self._form = None

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        return LinExpr({}, to_fraction(value))

    @staticmethod
    def of(term: Union["LinExpr", RealVar, Number]) -> "LinExpr":
        if isinstance(term, LinExpr):
            return term
        if isinstance(term, RealVar):
            return term._expr()
        return LinExpr.constant(term)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        other = LinExpr.of(other)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            mine = coeffs.get(v)
            coeffs[v] = c if mine is None else mine + c
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-LinExpr.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other: Number):
        factor = to_fraction(other)
        return LinExpr(
            {v: c * factor for v, c in self.coeffs.items()}, self.const * factor
        )

    __rmul__ = __mul__

    def __neg__(self):
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __repr__(self) -> str:
        parts = [f"{c}*x{v}" for v, c in sorted(self.coeffs.items())]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def linear_sum(terms: Iterable[Union[LinExpr, RealVar, Number]]) -> LinExpr:
    """Sum an iterable of reals/expressions/constants into one LinExpr."""
    acc = LinExpr({}, Fraction(0))
    for term in terms:
        acc = acc + LinExpr.of(term)
    return acc


class BoolTerm:
    """Base class for boolean terms; provides operator sugar."""

    __slots__ = ()

    def __and__(self, other: "BoolTerm") -> "BoolTerm":
        return And(self, other)

    def __or__(self, other: "BoolTerm") -> "BoolTerm":
        return Or(self, other)

    def __invert__(self) -> "BoolTerm":
        return Not(self)


class BoolConst(BoolTerm):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolVar(BoolTerm):
    """A boolean unknown, identified by a dense integer index."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index

    def __repr__(self) -> str:
        return f"BoolVar({self.name!r})"


class Not(BoolTerm):
    __slots__ = ("arg",)

    def __init__(self, arg: BoolTerm) -> None:
        if not isinstance(arg, BoolTerm):
            raise TypeError(f"Not() expects a boolean term, got {arg!r}")
        self.arg = arg

    def __repr__(self) -> str:
        return f"Not({self.arg!r})"


class _Nary(BoolTerm):
    __slots__ = ("args",)

    def __init__(self, *args: BoolTerm) -> None:
        for arg in args:
            if not isinstance(arg, BoolTerm):
                break
        else:
            self.args = args
            return
        flattened = []
        for arg in args:
            if isinstance(arg, (list, tuple)):
                flattened.extend(arg)
            else:
                flattened.append(arg)
        for arg in flattened:
            if not isinstance(arg, BoolTerm):
                raise TypeError(f"{type(self).__name__} expects boolean terms, got {arg!r}")
        self.args = tuple(flattened)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"


class And(_Nary):
    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class Atom(BoolTerm):
    """A linear-arithmetic atom ``expr <= bound`` or ``expr >= bound``.

    ``op`` is the string ``"<="`` or ``">="``.  The expression's constant
    part is folded into ``bound`` at construction so that ``expr`` is a
    pure linear form.  A pure linear form is kept as given, so the atoms
    built over one expression share its canonical form.
    """

    __slots__ = ("expr", "op", "bound")

    def __init__(self, expr: LinExpr, op: str, bound: Fraction) -> None:
        if op not in ("<=", ">="):
            raise ValueError(f"unsupported atom operator {op!r}")
        self.op = op
        if expr.const:
            self.expr = LinExpr(expr.coeffs, _ZERO)
            self.bound = bound - expr.const
        else:
            self.expr = expr
            self.bound = bound

    def __repr__(self) -> str:
        return f"Atom({self.expr!r} {self.op} {self.bound})"


def _le(e: LinExpr, b: Fraction) -> BoolTerm:
    if e.coeffs:
        return Atom(e, "<=", b)
    return TRUE if e.const <= b else FALSE


def _ge(e: LinExpr, b: Fraction) -> BoolTerm:
    if e.coeffs:
        return Atom(e, ">=", b)
    return TRUE if e.const >= b else FALSE


def le(expr, bound: Number = 0) -> BoolTerm:
    """``expr <= bound``.  Constant expressions fold to TRUE/FALSE."""
    return _le(LinExpr.of(expr), to_fraction(bound))


def ge(expr, bound: Number = 0) -> BoolTerm:
    """``expr >= bound``.  Constant expressions fold to TRUE/FALSE."""
    return _ge(LinExpr.of(expr), to_fraction(bound))


def eq(expr, bound: Number = 0) -> BoolTerm:
    """``expr == bound`` as the conjunction of the two weak inequalities.

    Both atoms share one expression, so its canonical form is computed
    once.
    """
    e = LinExpr.of(expr)
    b = to_fraction(bound)
    return And(_le(e, b), _ge(e, b))


def neq_with_eps(expr, eps: Number) -> BoolTerm:
    """``|expr| >= eps`` — the tolerance encoding of ``expr != 0``.

    For homogeneous constraint systems (every satisfying assignment can be
    rescaled by a positive factor) this encoding is satisfiability-
    equivalent to the exact disequality for any ``eps > 0``.
    """
    e = to_fraction(eps)
    if e <= 0:
        raise ValueError("eps must be positive")
    form = LinExpr.of(expr)
    return Or(_le(form, -e), _ge(form, e))


def implies(antecedent: BoolTerm, consequent: BoolTerm) -> BoolTerm:
    """``antecedent -> consequent``."""
    return Or(Not(antecedent), consequent)


def iff(left: BoolTerm, right: BoolTerm) -> BoolTerm:
    """``left <-> right``."""
    return And(implies(left, right), implies(right, left))
