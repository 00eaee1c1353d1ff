"""Direct tests for the LRA theory adapter."""

from fractions import Fraction

import pytest

from repro.smt.cnf import CnfBuilder
from repro.smt.terms import RealVar, ge, le
from repro.smt.theory import LraTheory

F = Fraction


def make_atom(builder, term):
    sat_var = builder.literal_for(term)
    return sat_var, builder.atom_of_var[sat_var]


class TestRegistration:
    def test_single_variable_atom_binds_directly(self):
        builder = CnfBuilder()
        theory = LraTheory()
        x = RealVar("x", 0)
        sat_var, atom = make_atom(builder, le(x, 5))
        theory.register_atom(sat_var, atom)
        # one simplex variable (the real), no rows
        assert theory.simplex.num_vars == 1
        assert theory.simplex.rows == {}

    def test_multi_variable_atom_creates_slack_row(self):
        builder = CnfBuilder()
        theory = LraTheory()
        x, y = RealVar("x", 0), RealVar("y", 1)
        sat_var, atom = make_atom(builder, le(x + y, 5))
        theory.register_atom(sat_var, atom)
        assert theory.simplex.num_vars == 3  # x, y, slack
        assert len(theory.simplex.rows) == 1

    def test_same_form_shares_slack(self):
        builder = CnfBuilder()
        theory = LraTheory()
        x, y = RealVar("x", 0), RealVar("y", 1)
        v1, a1 = make_atom(builder, le(x + y, 5))
        v2, a2 = make_atom(builder, ge(x + y, 1))
        theory.register_atom(v1, a1)
        theory.register_atom(v2, a2)
        assert len(theory.simplex.rows) == 1

    def test_scaled_form_shares_slack(self):
        builder = CnfBuilder()
        theory = LraTheory()
        x, y = RealVar("x", 0), RealVar("y", 1)
        v1, a1 = make_atom(builder, le(x + y, 5))
        v2, a2 = make_atom(builder, le(2 * x + 2 * y, 10))
        assert v1 == v2  # interned at the CNF layer already


class TestAssertions:
    def setup_method(self):
        self.builder = CnfBuilder()
        self.theory = LraTheory()
        x = RealVar("x", 0)
        self.x = x
        self.le5_var, atom = make_atom(self.builder, le(x, 5))
        self.theory.register_atom(self.le5_var, atom)
        self.ge3_var, atom = make_atom(self.builder, ge(x, 3))
        self.theory.register_atom(self.ge3_var, atom)

    def test_compatible_bounds(self):
        assert self.theory.assert_lit(self.le5_var, 0) is None
        assert self.theory.assert_lit(self.ge3_var, 1) is None
        assert self.theory.check() is None
        values = self.theory.real_values()
        assert F(3) <= values[0] <= F(5)

    def test_conflicting_bounds_explained(self):
        # x <= 5 and not (x >= 3) is fine; x >= 3 and not (x <= 5)... use
        # a real conflict: x <= 5 asserted, then x >= 6 via negated le
        assert self.theory.assert_lit(self.le5_var, 0) is None
        ge6_var, atom = make_atom(self.builder, ge(self.x, 6))
        self.theory.register_atom(ge6_var, atom)
        conflict = self.theory.assert_lit(ge6_var, 1)
        assert conflict is not None
        assert set(conflict) == {self.le5_var, ge6_var}

    def test_negated_literal_asserts_strict_opposite(self):
        # not (x <= 5)  =>  x > 5; with x <= 5 already asserted: conflict
        assert self.theory.assert_lit(self.le5_var, 0) is None
        conflict = self.theory.assert_lit(-self.le5_var, 1)
        assert conflict is not None

    def test_backtracking_releases_bounds(self):
        assert self.theory.assert_lit(self.le5_var, 0) is None
        assert self.theory.assert_lit(self.ge3_var, 1) is None
        self.theory.backtrack_to(1)  # keep only trail index 0
        ge6_var, atom = make_atom(self.builder, ge(self.x, 6))
        self.theory.register_atom(ge6_var, atom)
        # x >= 6 conflicts with x <= 5 (still asserted at index 0)
        assert self.theory.assert_lit(ge6_var, 2) is not None
        self.theory.backtrack_to(0)
        # now nothing is asserted: x >= 6 is fine
        assert self.theory.assert_lit(ge6_var, 3) is None
        assert self.theory.check() is None

    def test_is_theory_var(self):
        assert self.theory.is_theory_var(self.le5_var)
        assert not self.theory.is_theory_var(99)


class TestPropagation:
    """Row-implied bound propagation (production kernel only)."""

    def setup_method(self):
        self.builder = CnfBuilder()
        self.theory = LraTheory(propagate=True)
        x, y = RealVar("x", 0), RealVar("y", 1)
        self.a_var, atom = make_atom(self.builder, ge(x, 1))
        self.theory.register_atom(self.a_var, atom)
        self.b_var, atom = make_atom(self.builder, ge(y, 1))
        self.theory.register_atom(self.b_var, atom)
        # two atoms over the shared slack row  s = x + y
        self.c_var, atom = make_atom(self.builder, ge(x + y, 2))
        self.theory.register_atom(self.c_var, atom)
        self.d_var, atom = make_atom(self.builder, le(x + y, 1))
        self.theory.register_atom(self.d_var, atom)

    def _value_fn(self, assigned):
        return lambda lit: assigned.get(abs(lit), 0) * (1 if lit > 0 else -1)

    def _assert_bounds(self):
        assert self.theory.assert_lit(self.a_var, 0) is None
        assert self.theory.assert_lit(self.b_var, 1) is None
        assert self.theory.check() is None

    def test_entailed_atoms_with_explanations(self):
        # x >= 1 and y >= 1 imply x + y >= 2 and refute x + y <= 1
        self._assert_bounds()
        implied, conflict = self.theory.propagate(
            self._value_fn({self.a_var: 1, self.b_var: 1})
        )
        assert conflict is None
        by_lit = {lit: expl for lit, expl in implied}
        assert set(by_lit) == {self.c_var, -self.d_var}
        for expl in by_lit.values():
            assert set(expl) == {self.a_var, self.b_var}
        assert self.theory.stats["implied_bounds"] == 2
        assert self.theory.stats["prop_calls"] == 1

    def test_false_entailed_literal_becomes_conflict(self):
        self._assert_bounds()
        implied, conflict = self.theory.propagate(
            self._value_fn({self.a_var: 1, self.b_var: 1, self.c_var: -1})
        )
        assert implied == []
        assert conflict is not None
        assert conflict[0] == self.c_var  # reason[0] is the implied lit
        assert set(conflict[1:]) == {-self.a_var, -self.b_var}

    def test_already_true_literals_are_skipped(self):
        self._assert_bounds()
        implied, __ = self.theory.propagate(
            self._value_fn({self.a_var: 1, self.b_var: 1, self.c_var: 1})
        )
        assert {lit for lit, _ in implied} == {-self.d_var}

    def test_budget_requeues_rows_for_the_next_call(self):
        self._assert_bounds()
        self.theory.propagation_budget = 0
        value = self._value_fn({self.a_var: 1, self.b_var: 1})
        assert self.theory.propagate(value) == ([], None)
        # the starved row stays dirty and is picked up once budget allows
        self.theory.propagation_budget = 8
        implied, __ = self.theory.propagate(value)
        assert {lit for lit, _ in implied} == {self.c_var, -self.d_var}

    def test_clean_state_propagates_nothing(self):
        self._assert_bounds()
        value = self._value_fn({self.a_var: 1, self.b_var: 1})
        self.theory.propagate(value)
        assert self.theory.propagate(value) == ([], None)

    def test_reference_kernel_never_propagates(self):
        theory = LraTheory(kernel="reference", propagate=True)
        assert not theory.propagation
        x = RealVar("x", 0)
        builder = CnfBuilder()
        a_var, atom = make_atom(builder, ge(x, 1))
        theory.register_atom(a_var, atom)
        assert theory.assert_lit(a_var, 0) is None
        assert theory.check() is None
        assert theory.propagate(lambda lit: 0) == ([], None)
