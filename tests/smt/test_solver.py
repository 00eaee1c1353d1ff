"""Facade-level tests for the SMT solver, including differential tests
against boolean enumeration + linprog on random mixed formulas."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.smt import (
    And,
    Atom,
    LinExpr,
    Not,
    Or,
    Result,
    Solver,
    eq,
    ge,
    iff,
    implies,
    le,
    neq_with_eps,
)

F = Fraction


class TestBooleanLayer:
    def test_sat_and_model(self):
        s = Solver()
        a, b = s.bool_var("a"), s.bool_var("b")
        s.add(Or(a, b), Not(a))
        assert s.check() is Result.SAT
        m = s.model()
        assert not m.value(a) and m.value(b)

    def test_unsat(self):
        s = Solver()
        a = s.bool_var("a")
        s.add(a, Not(a))
        assert s.check() is Result.UNSAT

    def test_model_requires_sat(self):
        s = Solver()
        a = s.bool_var("a")
        s.add(a, Not(a))
        s.check()
        with pytest.raises(RuntimeError):
            s.model()

    def test_iff(self):
        s = Solver()
        a, b = s.bool_var("a"), s.bool_var("b")
        s.add(iff(a, b), a)
        assert s.check() is Result.SAT
        assert s.model().value(b)

    def test_unconstrained_bool_defaults_false_in_model(self):
        s = Solver()
        a = s.bool_var("a")
        b = s.bool_var("b")
        s.add(a)
        assert s.check() is Result.SAT
        assert s.model().value(b) in (True, False)  # defined either way


class TestArithmeticLayer:
    def test_equality_chain(self):
        s = Solver()
        x, y, z = s.real_var("x"), s.real_var("y"), s.real_var("z")
        s.add(eq(x + y, 10), eq(y + z, 5), eq(z, 1), ge(x, 0))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.real_value(z) == 1
        assert m.real_value(y) == 4
        assert m.real_value(x) == 6

    def test_exact_rationals(self):
        s = Solver()
        x = s.real_var("x")
        s.add(eq(x * 3, 1))
        assert s.check() is Result.SAT
        assert s.model().real_value(x) == F(1, 3)

    def test_integer_coefficients(self):
        # 2x + 3y <= 1 with x >= 1, y >= 0: the int coefficients reach
        # the simplex as an exact integer row
        s = Solver()
        x, y = s.real_var("x"), s.real_var("y")
        two_x_three_y = LinExpr({x.index: 2, y.index: 3}, F(0))
        s.add(Atom(two_x_three_y, "<=", F(1)), ge(x, 1), ge(y, 0))
        assert s.check() is Result.UNSAT

    def test_float_coefficient_rejected(self):
        s = Solver()
        x = s.real_var("x")
        with pytest.raises(TypeError, match="0.5"):
            s.add(Atom(LinExpr({x.index: 0.5}, F(0)), "<=", F(1)))

    def test_strict_via_negation(self):
        s = Solver()
        x = s.real_var("x")
        s.add(Not(le(x, 5)), le(x, 6))
        assert s.check() is Result.SAT
        v = s.model().real_value(x)
        assert 5 < v <= 6

    def test_strict_window_conflict(self):
        s = Solver()
        x = s.real_var("x")
        s.add(Not(le(x, 5)), Not(ge(x, 5)))
        assert s.check() is Result.UNSAT

    def test_neq_with_eps_both_branches(self):
        for force in ("pos", "neg"):
            s = Solver()
            x = s.real_var("x")
            s.add(neq_with_eps(x, 1))
            if force == "pos":
                s.add(ge(x, 0))
                assert s.check() is Result.SAT
                assert s.model().real_value(x) >= 1
            else:
                s.add(le(x, 0))
                assert s.check() is Result.SAT
                assert s.model().real_value(x) <= -1

    def test_eval_expr(self):
        s = Solver()
        x, y = s.real_var("x"), s.real_var("y")
        s.add(eq(x, 2), eq(y, 3))
        s.check()
        assert s.model().eval_expr(2 * x + y - 1) == 6


class TestMixed:
    def test_implication_into_arithmetic(self):
        s = Solver()
        p = s.bool_var("p")
        x = s.real_var("x")
        s.add(implies(p, ge(x, 10)), implies(Not(p), le(x, -10)), ge(x, 0))
        assert s.check() is Result.SAT
        m = s.model()
        assert m.value(p) and m.real_value(x) >= 10

    def test_arithmetic_forces_boolean(self):
        s = Solver()
        p = s.bool_var("p")
        x = s.real_var("x")
        s.add(iff(p, ge(x, 5)), eq(x, 7))
        assert s.check() is Result.SAT
        assert s.model().value(p)

    def test_cardinality_with_arithmetic(self):
        s = Solver()
        xs = s.real_vars("x", 5)
        bs = s.bool_vars("b", 5)
        for x, b in zip(xs, bs):
            s.add(implies(b, ge(x, 1)), implies(Not(b), eq(x, 0)))
        total = xs[0] + xs[1] + xs[2] + xs[3] + xs[4]
        s.add(ge(total, 3))
        s.add_at_most(bs, 3)
        assert s.check() is Result.SAT
        m = s.model()
        assert sum(m.value(b) for b in bs) <= 3
        assert m.eval_expr(total) >= 3

    def test_at_most_zero(self):
        s = Solver()
        bs = s.bool_vars("b", 3)
        s.add_at_most(bs, 0)
        s.add(Or(*bs))
        assert s.check() is Result.UNSAT

    def test_add_exactly(self):
        s = Solver()
        bs = s.bool_vars("b", 4)
        s.add_exactly(bs, 2)
        assert s.check() is Result.SAT
        assert sum(s.model().value(b) for b in bs) == 2


class TestIncremental:
    def test_push_pop_restores_sat(self):
        s = Solver()
        x = s.real_var("x")
        s.add(ge(x, 0))
        assert s.check() is Result.SAT
        s.push()
        s.add(le(x, -1))
        assert s.check() is Result.UNSAT
        s.pop()
        assert s.check() is Result.SAT

    def test_nested_push_pop(self):
        s = Solver()
        a, b = s.bool_var("a"), s.bool_var("b")
        s.add(Or(a, b))
        s.push()
        s.add(Not(a))
        s.push()
        s.add(Not(b))
        assert s.check() is Result.UNSAT
        s.pop()
        assert s.check() is Result.SAT
        assert s.model().value(b)
        s.pop()
        assert s.check() is Result.SAT

    def test_pop_without_push(self):
        s = Solver()
        with pytest.raises(RuntimeError):
            s.pop()

    def test_assumptions(self):
        s = Solver()
        a = s.bool_var("a")
        x = s.real_var("x")
        s.add(implies(a, ge(x, 5)), le(x, 3))
        assert s.check(assumptions=[a]) is Result.UNSAT
        assert s.check(assumptions=[Not(a)]) is Result.SAT
        assert s.check() is Result.SAT  # assumptions don't persist

    def test_adding_after_check(self):
        s = Solver()
        x = s.real_var("x")
        s.add(ge(x, 0))
        assert s.check() is Result.SAT
        s.add(le(x, -1))
        assert s.check() is Result.UNSAT

    def test_statistics_shape(self):
        s = Solver()
        x = s.real_var("x")
        s.add(ge(x, 0))
        s.check()
        stats = s.statistics()
        for key in ("sat_variables", "clauses", "simplex_rows", "conflicts"):
            assert key in stats


class TestTheoryPropagation:
    def test_entails_an_atom_only_in_a_clause_true_at_level_zero(self):
        # (b or x+y <= 1) is already true when it is added, so no clause
        # the SAT core keeps mentions the atom; propagation still entails
        # x+y <= 1 from x, y <= 0, and the core must have its variable
        s = Solver(theory_propagation=True)
        x, y = s.real_var("x"), s.real_var("y")
        b = s.bool_var("b")
        s.add(le(x, 0), le(y, 0), b)
        s.add(Or(b, le(x + y, 1)))
        assert s.check() is Result.SAT
        assert s.statistics()["theory_props"] == 1
        assert s.model().real_value(x) + s.model().real_value(y) <= 1


class TestDifferentialMixed:
    """Random mixed bool+LRA formulas vs enumeration + linprog."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_guarded_systems(self, seed):
        rng = random.Random(1000 + seed)
        nv, nb = rng.randint(1, 3), rng.randint(1, 3)
        s = Solver()
        xs = s.real_vars("x", nv)
        bs = s.bool_vars("b", nb)
        guarded = []
        for _ in range(rng.randint(2, 7)):
            bi = rng.randrange(nb)
            pol = rng.random() < 0.5
            coeffs = [rng.randint(-2, 2) for _ in range(nv)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            bound = rng.randint(-4, 4)
            use_le = rng.random() < 0.5
            expr = sum((c * x for c, x in zip(coeffs, xs)), start=0 * xs[0])
            atom = le(expr, bound) if use_le else ge(expr, bound)
            antecedent = bs[bi] if pol else Not(bs[bi])
            s.add(implies(antecedent, atom))
            guarded.append((bi, pol, coeffs, bound, use_le))
        got = s.check()
        feasible = False
        for bits in itertools.product([False, True], repeat=nb):
            a_ub, b_ub = [], []
            for bi, pol, coeffs, bound, use_le in guarded:
                if bits[bi] == pol:
                    if use_le:
                        a_ub.append(coeffs)
                        b_ub.append(bound)
                    else:
                        a_ub.append([-c for c in coeffs])
                        b_ub.append(-bound)
            if not a_ub:
                feasible = True
                break
            res = linprog(
                c=[0.0] * nv,
                A_ub=np.array(a_ub, dtype=float),
                b_ub=np.array(b_ub, dtype=float),
                bounds=[(None, None)] * nv,
                method="highs",
            )
            if res.status == 0:
                feasible = True
                break
        assert (got is Result.SAT) == feasible
