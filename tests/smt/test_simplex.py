"""Unit and property tests for the incremental simplex engine."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.smt import simplex as simplex_module
from repro.smt.simplex import DeltaRational, ReferenceSimplex, Simplex

F = Fraction


def dr(r, k=0):
    return DeltaRational(F(r), F(k))


class TestDeltaRational:
    def test_ordering_on_rational_part(self):
        assert dr(1) < dr(2)

    def test_delta_breaks_ties(self):
        assert dr(1, 0) < dr(1, 1)
        assert dr(1, -1) < dr(1, 0)

    def test_arithmetic(self):
        assert (dr(1, 2) + dr(3, -1)) == dr(4, 1)
        assert (dr(5, 1) - dr(2, 1)) == dr(3, 0)
        assert dr(2, 3).scale(F(2)) == dr(4, 6)

    def test_concretize(self):
        assert dr(1, 2).concretize(F(1, 4)) == F(3, 2)


class TestSimplexBasics:
    def test_single_variable_bounds(self):
        s = Simplex()
        x = s.new_var()
        assert s.assert_lower(x, dr(1), 10) is None
        assert s.assert_upper(x, dr(5), 11) is None
        assert s.check() is None
        assert dr(1) <= s.assign[x] <= dr(5)

    def test_direct_bound_conflict(self):
        s = Simplex()
        x = s.new_var()
        assert s.assert_lower(x, dr(3), 10) is None
        conflict = s.assert_upper(x, dr(2), 11)
        assert conflict is not None
        assert set(conflict) == {10, 11}

    def test_row_conflict_with_explanation(self):
        # x + y = s; x >= 2, y >= 2, s <= 3  -> conflict
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        slack = s.new_var()
        s.add_row(slack, {x: F(1), y: F(1)})
        assert s.assert_lower(x, dr(2), 1) is None
        assert s.assert_lower(y, dr(2), 2) is None
        assert s.assert_upper(slack, dr(3), 3) is None
        conflict = s.check()
        assert conflict is not None
        assert set(conflict) == {1, 2, 3}

    def test_equalities_via_double_bounds(self):
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        slack = s.new_var()
        s.add_row(slack, {x: F(1), y: F(2)})
        for var, val, tag in ((x, dr(1), 1), (slack, dr(7), 2)):
            assert s.assert_lower(var, val, tag) is None
            assert s.assert_upper(var, val, tag) is None
        assert s.check() is None
        # y must be 3
        assert s.assign[y] == dr(3)

    def test_strict_bounds_through_delta(self):
        # x > 1 and x < 1 + something tiny is still satisfiable exactly
        s = Simplex()
        x = s.new_var()
        assert s.assert_lower(x, dr(1, 1), 1) is None  # x > 1
        assert s.assert_upper(x, dr(2, -1), 2) is None  # x < 2
        assert s.check() is None
        val = s.assign[x]
        assert dr(1, 1) <= val <= dr(2, -1)

    def test_strict_conflict(self):
        # x > 1 and x < 1
        s = Simplex()
        x = s.new_var()
        assert s.assert_lower(x, dr(1, 1), 1) is None
        conflict = s.assert_upper(x, dr(1, -1), 2)
        assert conflict is not None

    def test_backtracking_restores_bounds(self):
        s = Simplex()
        x = s.new_var()
        assert s.assert_lower(x, dr(0), 1) is None
        mark = s.mark()
        assert s.assert_lower(x, dr(10), 2) is None
        assert s.assert_upper(x, dr(20), 3) is None
        s.backtrack(mark)
        assert s.lower[x] == dr(0)
        assert s.upper[x] is None
        # and a previously-conflicting bound is fine now
        assert s.assert_upper(x, dr(5), 4) is None
        assert s.check() is None

    def test_concrete_values_respect_strict_bounds(self):
        s = Simplex()
        x = s.new_var()
        s.assert_lower(x, dr(1, 1), 1)  # x > 1
        s.assert_upper(x, dr(1, 2), 2)  # x < 1 + 2 delta (tight window)
        assert s.check() is None
        values = s.concrete_values()
        assert values[x] > F(1)

    def test_chain_of_rows(self):
        # a = x + y, b = a + z; bounds force a unique solution
        s = Simplex()
        x, y, z = (s.new_var() for _ in range(3))
        a, b = s.new_var(), s.new_var()
        s.add_row(a, {x: F(1), y: F(1)})
        s.add_row(b, {a: F(1), z: F(1)})  # substitutes a's definition
        for var, val in ((x, 1), (y, 2), (b, 10)):
            s.assert_lower(var, dr(val), var * 2)
            s.assert_upper(var, dr(val), var * 2 + 1)
        assert s.check() is None
        assert s.assign[a] == dr(3)
        assert s.assign[z] == dr(7)


class TestPivotRule:
    """The entering variable has the fewest column entries, ties to the
    smaller index, until one check has made ``_BLAND_AFTER`` pivots;
    from then on it is the smallest movable index (Bland's rule)."""

    @staticmethod
    def tableau(kernel, bodies, nvars):
        s = kernel()
        xs = [s.new_var() for _ in range(nvars)]
        slacks = []
        for body in bodies:
            slack = s.new_var()
            s.add_row(slack, {xs[i]: F(1) for i in body})
            slacks.append(slack)
        return s, xs, slacks

    @pytest.mark.parametrize("kernel", (Simplex, ReferenceSimplex))
    def test_sparsest_column_enters(self, kernel):
        # x0 is in all three rows, x1 in two, x2 only in s0: Bland's rule
        # would enter x0, the sparse rule enters x2
        s, xs, (s0, _, _) = self.tableau(kernel, ((0, 1, 2), (0, 1), (0,)), 3)
        assert s.assert_lower(s0, dr(1), 1) is None
        assert s.check() is None
        assert s.pivots == 1
        assert xs[2] in s.rows and xs[0] not in s.rows

    @pytest.mark.parametrize("kernel", (Simplex, ReferenceSimplex))
    def test_ties_go_to_the_smaller_index(self, kernel):
        # x1 and x2 are in two rows each, x0 in three
        s, xs, (s0, _, _) = self.tableau(kernel, ((0, 1, 2), (0, 1), (0, 2)), 3)
        assert s.assert_lower(s0, dr(1), 1) is None
        assert s.check() is None
        assert s.pivots == 1
        assert xs[1] in s.rows and xs[2] not in s.rows

    @pytest.mark.parametrize("kernel", (Simplex, ReferenceSimplex))
    @pytest.mark.parametrize(
        "bland_after, entered",
        # one check makes two pivots: s0 by x0 or x2, then s1 by x1 or
        # x3, where x2 and x3 are the sparse columns
        ((50, (2, 3)), (2, (2, 3)), (1, (2, 1)), (0, (0, 1))),
    )
    def test_bland_rule_after_the_pivot_budget(
        self, kernel, bland_after, entered, monkeypatch
    ):
        monkeypatch.setattr(simplex_module, "_BLAND_AFTER", bland_after)
        s, xs, (s0, s1, _) = self.tableau(kernel, ((0, 2), (1, 3), (0, 1)), 4)
        assert s.assert_lower(s0, dr(1), 1) is None
        assert s.assert_lower(s1, dr(1), 2) is None
        assert s.check() is None
        assert s.pivots == 2
        assert {x for x in xs if x in s.rows} == {xs[i] for i in entered}
        s.check_invariants()


class TestAgainstLinprog:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_systems(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 5)
        nc = rng.randint(2, 10)
        s = Simplex()
        s.debug_invariants = True  # tableau checked at every check() exit
        problem_vars = [s.new_var() for _ in range(nv)]
        rows = []
        # build constraint rows: coeffs . x <= / >= bound
        a_ub, b_ub = [], []
        tag = 100
        conflict = None
        for _ in range(nc):
            coeffs = [rng.randint(-3, 3) for _ in range(nv)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(nv)] = 1
            bound = rng.randint(-6, 6)
            slack = s.new_var()
            s.add_row(slack, {v: F(c) for v, c in zip(problem_vars, coeffs) if c})
            rows.append((slack, coeffs, bound))
        for slack, coeffs, bound in rows:
            tag += 1
            if rng.random() < 0.5:
                conflict = conflict or s.assert_upper(slack, dr(bound), tag)
                a_ub.append(coeffs)
                b_ub.append(bound)
            else:
                conflict = conflict or s.assert_lower(slack, dr(bound), tag)
                a_ub.append([-c for c in coeffs])
                b_ub.append(-bound)
        if conflict is None:
            conflict = s.check()
        res = linprog(
            c=[0.0] * nv,
            A_ub=np.array(a_ub, dtype=float),
            b_ub=np.array(b_ub, dtype=float),
            bounds=[(None, None)] * nv,
            method="highs",
        )
        assert (conflict is None) == (res.status == 0)
        if conflict is None:
            s.check_invariants()
            values = s.concrete_values()
            for coeffs, bound in zip(a_ub, b_ub):
                total = sum(F(c) * values[v] for c, v in zip(coeffs, problem_vars))
                assert total <= F(bound)
