"""Tests for the sequential-counter and totalizer cardinality encodings."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.cardinality import (
    IncrementalAtMost,
    encode_at_least,
    encode_at_most,
    encode_exactly,
    encode_totalizer,
)
from repro.smt.sat import SatSolver


def count_models(n, k, encoder):
    """Count assignments to the first n vars accepted by the encoding."""
    solver = SatSolver()
    solver.ensure_vars(n)
    aux = {"next": n}

    def new_var():
        aux["next"] += 1
        solver.ensure_vars(aux["next"])
        return aux["next"]

    ok = {"value": True}

    def add_clause(clause):
        if not solver.add_clause(clause):
            ok["value"] = False

    encoder(list(range(1, n + 1)), k, new_var, add_clause)
    models = 0
    for bits in itertools.product([False, True], repeat=n):
        if not ok["value"]:
            break
        assumptions = [v if bits[v - 1] else -v for v in range(1, n + 1)]
        if solver.solve(assumptions=assumptions):
            models += 1
    return models


def comb_sum(n, lo, hi):
    from math import comb

    return sum(comb(n, i) for i in range(lo, hi + 1))


class TestAtMost:
    @pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (4, 2), (5, 3), (5, 5), (6, 0)])
    def test_model_count(self, n, k):
        assert count_models(n, k, encode_at_most) == comb_sum(n, 0, min(k, n))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            encode_at_most([1], -1, lambda: 2, lambda c: None)


class TestAtLeast:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (5, 5), (4, 0)])
    def test_model_count(self, n, k):
        assert count_models(n, k, encode_at_least) == comb_sum(n, k, n)

    def test_k_above_n_is_unsat(self):
        assert count_models(3, 4, encode_at_least) == 0


class TestExactly:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 0), (5, 5)])
    def test_model_count(self, n, k):
        from math import comb

        assert count_models(n, k, encode_exactly) == comb(n, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6))
def test_hypothesis_at_most_counts(n, k):
    assert count_models(n, k, encode_at_most) == comb_sum(n, 0, min(k, n))


# ----------------------------------------------------------------------
# assumption-selectable totalizer
# ----------------------------------------------------------------------
def totalizer_instance(n, cap=None):
    """A solver holding the totalizer over vars 1..n; returns (solver, counter)."""
    solver = SatSolver()
    solver.ensure_vars(n)
    aux = {"next": n}

    def new_var():
        aux["next"] += 1
        solver.ensure_vars(aux["next"])
        return aux["next"]

    counter = IncrementalAtMost(
        list(range(1, n + 1)), new_var, solver.add_clause, cap
    )
    return solver, counter


def count_models_under_threshold(solver, counter, n, k):
    selector = counter.at_most(k)
    models = 0
    for bits in itertools.product([False, True], repeat=n):
        assumptions = [v if bits[v - 1] else -v for v in range(1, n + 1)]
        if selector is not None:
            assumptions.append(selector)
        if solver.solve(assumptions=assumptions):
            models += 1
    return models


class TestTotalizer:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_encoding_answers_every_threshold(self, n):
        # a single totalizer instance must agree with a fresh
        # sequential-counter encoding at every k
        solver, counter = totalizer_instance(n)
        for k in range(n + 1):
            expected = comb_sum(n, 0, min(k, n))
            assert count_models_under_threshold(solver, counter, n, k) == expected

    def test_outputs_count_upward(self):
        n = 5
        solver, counter = totalizer_instance(n)
        assert len(counter.outputs) == n
        for true_count in range(n + 1):
            assumptions = [
                v if v <= true_count else -v for v in range(1, n + 1)
            ]
            assert solver.solve(assumptions=assumptions)
            # outputs[j-1] forced true for every j <= true_count
            for j in range(1, true_count + 1):
                assert solver.value(counter.outputs[j - 1]) == 1

    def test_trivial_threshold_is_none(self):
        _, counter = totalizer_instance(3)
        assert counter.at_most(3) is None
        assert counter.at_most(7) is None

    def test_negative_threshold_rejected(self):
        _, counter = totalizer_instance(3)
        with pytest.raises(ValueError):
            counter.at_most(-1)

    def test_empty_input(self):
        solver = SatSolver()
        counter = IncrementalAtMost([], lambda: 1, solver.add_clause)
        assert counter.size == 0
        assert counter.outputs == []
        assert counter.at_most(0) is None


SIZED = [(n, cap) for n in range(1, 7) for cap in range(1, n + 1)]


class TestSizedTotalizer:
    @pytest.mark.parametrize("n,cap", SIZED)
    def test_thresholds_below_the_cap_are_exact(self, n, cap):
        # a counter truncated at `cap` outputs must still admit exactly
        # the assignments of weight <= k for every k below the cap
        solver, counter = totalizer_instance(n, cap)
        assert len(counter.outputs) == counter.cap == cap
        for k in range(cap):
            expected = comb_sum(n, 0, k)
            assert count_models_under_threshold(solver, counter, n, k) == expected

    @pytest.mark.parametrize("n,cap", SIZED)
    def test_thresholds_past_the_cap_raise(self, n, cap):
        # no output of the truncated count can enforce these budgets
        _, counter = totalizer_instance(n, cap)
        for k in range(cap, n):
            with pytest.raises(ValueError, match="cap"):
                counter.at_most(k)
        assert counter.at_most(n) is None

    def test_cap_above_size_keeps_every_output(self):
        _, counter = totalizer_instance(4, cap=10)
        assert counter.cap == 4
        assert len(counter.outputs) == 4

    def test_clauses_grow_with_the_cap_not_the_square(self):
        def clauses(n, cap):
            count = {"n": 0}
            aux = {"next": n}

            def new_var():
                aux["next"] += 1
                return aux["next"]

            def add_clause(clause):
                count["n"] += 1

            encode_totalizer(list(range(1, n + 1)), new_var, add_clause, cap)
            return count["n"]

        assert clauses(256, 4) <= 2 * 256 * 4
        assert clauses(256, 4) < clauses(256, None) / 10


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6))
def test_hypothesis_totalizer_matches_sequential_counter(n, k):
    solver, counter = totalizer_instance(n)
    assert count_models_under_threshold(solver, counter, n, k) == count_models(
        n, k, encode_at_most
    )
