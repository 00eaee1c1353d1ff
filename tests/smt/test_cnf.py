"""Unit tests for the Tseitin CNF builder."""

from fractions import Fraction
from math import gcd

import pytest

from repro.smt import cnf
from repro.smt.cnf import CnfBuilder, canonical_form, canonicalize_atom
from repro.smt.terms import (
    And,
    Atom,
    BoolVar,
    FALSE,
    LinExpr,
    Not,
    Or,
    RealVar,
    TRUE,
    eq,
    ge,
    le,
    neq_with_eps,
)

F = Fraction


def expr(coeffs):
    return LinExpr({k: F(v) for k, v in coeffs.items()}, F(0))


class TestCanonicalization:
    def test_scaling_merges_equivalent_atoms(self):
        a1 = le(expr({0: 2, 1: -2}), 4)
        a2 = le(expr({0: 1, 1: -1}), 2)
        assert canonicalize_atom(a1) == canonicalize_atom(a2)

    def test_negative_lead_flips_operator(self):
        # -x <= -1  is  x >= 1
        a1 = le(expr({0: -1}), -1)
        a2 = ge(expr({0: 1}), 1)
        assert canonicalize_atom(a1) == canonicalize_atom(a2)

    def test_distinct_bounds_stay_distinct(self):
        a1 = le(expr({0: 1}), 1)
        a2 = le(expr({0: 1}), 2)
        assert canonicalize_atom(a1) != canonicalize_atom(a2)


class TestIntegerRows:
    def test_admittance_form_becomes_a_unit_row(self):
        # a line flow (dθ_x - dθ_y) * 400/23: the row is x - y and the
        # bound is scaled by the same 23/400
        x, y = RealVar("x", 3), RealVar("y", 7)
        flow = (x - y) * F(400, 23)
        assert canonical_form(flow) == (((3, 1), (7, -1)), F(23, 400))
        row, op, bound = canonicalize_atom(le(flow, F(1, 2)))
        assert row == ((3, 1), (7, -1))
        assert op == "<=" and bound == F(1, 2) * F(23, 400)
        assert all(type(c) is int for _, c in row)

    def test_negative_first_coefficient_flips_op_and_row_is_primitive(self):
        form = expr({0: F(-4, 3), 1: F(2, 5), 2: 6})
        row, scale = canonical_form(form)
        assert row == ((0, 10), (1, -3), (2, -45))
        assert scale == F(-15, 2)
        assert gcd(*(c for _, c in row)) == 1
        assert canonicalize_atom(le(form, 1)) == (row, ">=", F(-15, 2))
        assert canonicalize_atom(ge(form, 1)) == (row, "<=", F(-15, 2))

    def test_form_computed_once_per_expression(self, monkeypatch):
        # the four atoms the encoder puts on one measurement delta
        calls = []
        real_lcm = cnf.lcm
        monkeypatch.setattr(cnf, "lcm", lambda *a: calls.append(a) or real_lcm(*a))
        d = (RealVar("a", 0) - RealVar("b", 1)) * F(400, 23)
        atoms = [*eq(d, 0).args, *neq_with_eps(d, F(1, 1000)).args]
        assert all(atom.expr is d for atom in atoms)
        builder = CnfBuilder()
        lits = {builder.literal_for(atom) for atom in atoms}
        assert len(calls) == 1
        assert len(lits) == 4
        rows = {builder.atom_of_var[lit][0] for lit in lits}
        assert rows == {((0, 1), (1, -1))}

    def test_integer_coefficients_stay_exact(self):
        # int coefficients are exact and stay ints in the row (dividing
        # them by a leading coefficient would make floats)
        atom = Atom(LinExpr({0: 2, 1: 3}, F(0)), "<=", F(1))
        assert canonicalize_atom(atom) == (((0, 2), (1, 3)), "<=", F(1))

    def test_float_coefficient_is_a_type_error_naming_it(self):
        atom = Atom(LinExpr({0: F(1), 1: 0.25}, F(0)), "<=", F(1))
        with pytest.raises(TypeError, match="0.25"):
            canonicalize_atom(atom)


class TestBuilder:
    def test_true_literal_reserved(self):
        builder = CnfBuilder()
        assert builder.clauses[0] == [CnfBuilder.TRUE_LIT]

    def test_bool_var_interned(self):
        builder = CnfBuilder()
        v = BoolVar("a", 0)
        assert builder.literal_for(v) == builder.literal_for(v)

    def test_atom_interned_across_syntactic_variants(self):
        builder = CnfBuilder()
        a1 = le(expr({0: 2}), 4)
        a2 = le(expr({0: 1}), 2)
        assert builder.literal_for(a1) == builder.literal_for(a2)

    def test_negation_is_negative_literal(self):
        builder = CnfBuilder()
        v = BoolVar("a", 0)
        assert builder.literal_for(Not(v)) == -builder.literal_for(v)

    def test_constants(self):
        builder = CnfBuilder()
        assert builder.literal_for(TRUE) == CnfBuilder.TRUE_LIT
        assert builder.literal_for(FALSE) == -CnfBuilder.TRUE_LIT

    def test_and_gate_clauses(self):
        builder = CnfBuilder()
        a, b = BoolVar("a", 0), BoolVar("b", 1)
        before = len(builder.clauses)
        g = builder.literal_for(And(a, b))
        # 2 implication clauses + 1 reverse clause
        assert len(builder.clauses) == before + 3
        # same gate reused
        assert builder.literal_for(And(b, a)) == g

    def test_and_with_complement_is_false(self):
        builder = CnfBuilder()
        a = BoolVar("a", 0)
        assert builder.literal_for(And(a, Not(a))) == -CnfBuilder.TRUE_LIT

    def test_or_with_complement_is_true(self):
        builder = CnfBuilder()
        a = BoolVar("a", 0)
        assert builder.literal_for(Or(a, Not(a))) == CnfBuilder.TRUE_LIT

    def test_singleton_gate_collapses(self):
        builder = CnfBuilder()
        a = BoolVar("a", 0)
        assert builder.literal_for(And(a, a)) == builder.literal_for(a)

    def test_assert_top_level_and_splits(self):
        builder = CnfBuilder()
        a, b = BoolVar("a", 0), BoolVar("b", 1)
        before = len(builder.clauses)
        builder.assert_term(And(a, b))
        # two unit clauses, no gate variable
        added = builder.clauses[before:]
        assert sorted(len(c) for c in added) == [1, 1]

    def test_assert_top_level_or_is_one_clause(self):
        builder = CnfBuilder()
        a, b = BoolVar("a", 0), BoolVar("b", 1)
        before = len(builder.clauses)
        builder.assert_term(Or(a, b))
        added = builder.clauses[before:]
        assert len(added) == 1 and len(added[0]) == 2

    def test_guard_prepended(self):
        builder = CnfBuilder()
        a = BoolVar("a", 0)
        guard = builder.new_var()
        before = len(builder.clauses)
        builder.assert_term(a, guard=guard)
        assert builder.clauses[before][0] == -guard

    def test_atom_registry_exposed(self):
        builder = CnfBuilder()
        atom = le(expr({0: 1}), 2)
        lit = builder.literal_for(atom)
        assert lit in builder.atom_of_var
        coeffs, op, bound = builder.atom_of_var[lit]
        assert op == "<=" and bound == F(2)

    def test_constant_atom_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_atom(Atom(LinExpr({}, F(0)), "<=", F(1)))
