"""Property tests pinning the production simplex to the Fraction oracle.

The shipped :class:`~repro.smt.simplex.Simplex` must be
**bit-identical** to the retained
:class:`~repro.smt.simplex.ReferenceSimplex`: same verdicts, same
models, same search trace.  These tests exercise the contract two ways
— random mixed formulas through the full :class:`~repro.smt.Solver`
under both kernels, and random bound/pivot scripts replayed directly on
both engines with invariant checking enabled (which on the production
engine also cross-checks the incrementally maintained violated-basic
set against a full recompute).  The contract must also survive the
production engine's refactorization sweeps, forced after every pivot,
and every search configuration the portfolio races, and the pivot
rule's fallback to Bland's rule.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from repro.smt import Not, Or, Result, Solver, ge, le
from repro.smt import simplex as simplex_module
from repro.smt.sat import SolverConfig, diversified_configs
from repro.smt.simplex import DeltaRational, ReferenceSimplex, Simplex

F = Fraction


# ----------------------------------------------------------------------
# solver-level equivalence on random mixed formulas
# ----------------------------------------------------------------------
def build_formula(solver, seed, nreal=3, nbool=2, natoms=6, nclauses=8):
    """Assert a seed-determined random formula; returns its skeleton.

    Calling this with the same seed on two solvers asserts literally
    identical formulas, so any divergence is the kernel's fault.
    """
    rng = random.Random(seed)
    xs = [solver.real_var(f"x{i}") for i in range(nreal)]
    bs = [solver.bool_var(f"b{i}") for i in range(nbool)]
    atoms = []  # (term, coeffs, op, bound)
    for _ in range(natoms):
        coeffs = [rng.randint(-3, 3) for _ in range(nreal)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(nreal)] = 1
        expr = reduce(
            lambda acc, cx: acc + cx[0] * cx[1] if cx[0] else acc,
            zip(coeffs, xs),
            0 * xs[0],
        )
        bound = rng.randint(-6, 6)
        op = rng.choice(("<=", ">="))
        term = le(expr, bound) if op == "<=" else ge(expr, bound)
        atoms.append((term, coeffs, op, bound))
    clauses = []
    skeleton = []  # per clause: (positive, kind, payload-index) literals
    for _ in range(nclauses):
        lits = []
        shape = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                kind, idx = "atom", rng.randrange(natoms)
                term = atoms[idx][0]
            else:
                kind, idx = "bool", rng.randrange(nbool)
                term = bs[idx]
            positive = rng.random() >= 0.5
            lits.append(term if positive else Not(term))
            shape.append((positive, kind, idx))
        clauses.append(Or(*lits))
        skeleton.append(shape)
    solver.add(*clauses)
    return xs, bs, atoms, skeleton


def solve_with(kernel, seed, propagation=False, sat_config=None):
    solver = Solver(
        kernel=kernel, theory_propagation=propagation, sat_config=sat_config
    )
    xs, bs, atoms, skeleton = build_formula(solver, seed)
    result = solver.check()
    model = solver.model() if result is Result.SAT else None
    return solver, xs, bs, atoms, skeleton, result, model


def assert_bit_identical(ref, fast):
    """Same verdict, same model and the same search for two solve_with runs."""
    _, xs, bs, _, _, ref_result, ref_model = ref
    _, _, _, _, _, fast_result, fast_model = fast
    assert fast_result is ref_result
    if ref_result is Result.SAT:
        for x in xs:
            assert fast_model.real_value(x) == ref_model.real_value(x)
        for b in bs:
            assert fast_model.value(b) == ref_model.value(b)
    # the search itself must be identical, not just the answer: the
    # whole stats dicts agree except the kernel name and the
    # production-only refactorization counter
    ref_stats = ref[0].statistics()
    fast_stats = fast[0].statistics()
    for stats in (ref_stats, fast_stats):
        stats.pop("refactorizations")
        stats.pop("kernel")
    assert fast_stats == ref_stats


def assert_model_satisfies(solved):
    """A SAT solve_with run's model makes every asserted clause true."""
    _, xs, bs, atoms, skeleton, result, model = solved
    assert result is Result.SAT
    values = [model.real_value(x) for x in xs]

    def atom_holds(idx):
        _, coeffs, op, bound = atoms[idx]
        total = sum(F(c) * v for c, v in zip(coeffs, values))
        return total <= bound if op == "<=" else total >= bound

    for shape in skeleton:
        satisfied = any(
            (atom_holds(idx) if kind == "atom" else model.value(bs[idx]))
            == positive
            for positive, kind, idx in shape
        )
        assert satisfied, f"model falsifies an asserted clause: {shape}"


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_verdict_model_and_trace(self, seed):
        assert_bit_identical(
            solve_with("reference", seed), solve_with("sparse", seed)
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_models_satisfy_asserted_clauses(self, seed):
        solved = solve_with("sparse", seed)
        if solved[5] is Result.SAT:
            assert_model_satisfies(solved)

    @pytest.mark.parametrize("seed", range(40))
    def test_propagation_preserves_verdicts(self, seed):
        # seed 39 asserts an atom only inside a clause that is already
        # true at level 0, so the SAT core never sees the atom's
        # variable until propagation entails it
        ref_result = solve_with("reference", seed)[5]
        solved = solve_with("sparse", seed, propagation=True)
        assert solved[5] is ref_result
        if ref_result is Result.SAT:
            assert_model_satisfies(solved)


class TestSatConfigs:
    """Every search configuration the portfolio races, through DPLL(T).

    A configuration changes the search, never the answer, and the
    production simplex must stay bit-identical to the oracle under each
    one, not just under the default.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_configs_keep_verdicts_and_oracle_identity(self, seed):
        verdict = solve_with("reference", seed)[5]
        for config in diversified_configs(4)[1:]:
            ref = solve_with("reference", seed, sat_config=config)
            fast = solve_with("sparse", seed, sat_config=config)
            assert_bit_identical(ref, fast)
            assert fast[5] is verdict
            if verdict is Result.SAT:
                assert_model_satisfies(fast)

    @pytest.mark.parametrize("seed", range(8))
    def test_configs_with_theory_propagation(self, seed):
        verdict = solve_with("reference", seed)[5]
        for config in diversified_configs(4)[1:]:
            solved = solve_with(
                "sparse", seed, propagation=True, sat_config=config
            )
            assert solved[5] is verdict
            if verdict is Result.SAT:
                assert_model_satisfies(solved)

    def test_config_from_its_token_reaches_the_sat_engine(self):
        # a race winner is replayed from its token: the rebuilt config
        # must reach the SAT core and repeat the search exactly
        config = diversified_configs(4)[2]
        from_token = solve_with(
            "sparse", 3, sat_config=SolverConfig.from_token(config.token())
        )
        assert from_token[0]._sat.config == config
        assert_bit_identical(solve_with("sparse", 3, sat_config=config), from_token)


class TestUnsatCores:
    @pytest.mark.parametrize("seed", range(15))
    def test_cores_agree_and_are_unsat(self, seed):
        rng = random.Random(1000 + seed)
        # a batch of unit bound assumptions over few vars forces overlap
        bounds = []
        for _ in range(10):
            var = rng.randrange(2)
            op = rng.choice(("<=", ">="))
            bounds.append((var, op, rng.randint(-3, 3)))
        cores = {}
        for kernel in ("reference", "sparse"):
            solver = Solver(kernel=kernel)
            xs = [solver.real_var(f"x{i}") for i in range(2)]
            terms = [
                le(xs[v], b) if op == "<=" else ge(xs[v], b)
                for v, op, b in bounds
            ]
            result = solver.check(assumptions=terms)
            cores[kernel] = (
                None
                if result is not Result.UNSAT
                else [terms.index(t) for t in solver.unsat_core()]
            )
        assert cores["sparse"] == cores["reference"]
        if cores["sparse"] is None:
            return
        # the named subset must itself be UNSAT
        solver = Solver()
        xs = [solver.real_var(f"x{i}") for i in range(2)]
        for idx in cores["sparse"]:
            var, op, b = bounds[idx]
            solver.add(le(xs[var], b) if op == "<=" else ge(xs[var], b))
        assert solver.check() is Result.UNSAT


# ----------------------------------------------------------------------
# direct engine-vs-engine script replay with invariants on
# ----------------------------------------------------------------------
def random_script(rng, nv=4, nrows=3, nops=25):
    """A seed-determined sequence of simplex operations."""
    rows = []
    for _ in range(nrows):
        coeffs = {
            i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(nv)
        }
        rows.append({i: c for i, c in coeffs.items() if c})
    ops = []
    total = nv + nrows
    for tag in range(nops):
        kind = rng.random()
        if kind < 0.35:
            ops.append(("lower", rng.randrange(total), rng.randint(-5, 5),
                        rng.choice((-1, 0, 1)), tag))
        elif kind < 0.7:
            ops.append(("upper", rng.randrange(total), rng.randint(-5, 5),
                        rng.choice((-1, 0, 1)), tag))
        elif kind < 0.85:
            ops.append(("check",))
        elif kind < 0.95:
            ops.append(("mark",))
        else:
            ops.append(("backtrack",))
    ops.append(("check",))
    return rows, ops


def replay(engine, rows, ops, nv):
    engine.debug_invariants = True
    for _ in range(nv):
        engine.new_var()
    for body in rows:
        engine.add_row(engine.new_var(), dict(body))
    marks = []
    trace = []
    dead = False
    for op in ops:
        if op[0] in ("lower", "upper"):
            _, var, r, k, tag = op
            value = DeltaRational(F(r), F(k))
            assert_fn = (
                engine.assert_lower if op[0] == "lower" else engine.assert_upper
            )
            conflict = None if dead else assert_fn(var, value, tag)
            trace.append(("bound", None if conflict is None else list(conflict)))
            dead = dead or conflict is not None
        elif op[0] == "check":
            conflict = None if dead else engine.check()
            trace.append(("check", None if conflict is None else list(conflict)))
            dead = dead or conflict is not None
            if not dead:
                trace.append(("model", list(engine.concrete_values())))
        elif op[0] == "mark":
            marks.append(engine.mark())
        elif op[0] == "backtrack" and marks:
            engine.backtrack(marks.pop())
            dead = False
    engine.check_invariants()
    return trace


class TestScriptReplay:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_scripts_bit_identical(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 4)
        rows, ops = random_script(rng, nv=nv)
        ref_trace = replay(ReferenceSimplex(), rows, ops, nv)
        trace = replay(Simplex(), rows, ops, nv)
        assert trace == ref_trace

    @pytest.mark.parametrize("seed", range(30, 50))
    def test_sparse_invariants_on_larger_scripts(self, seed):
        # bigger scripts drive more pivot/backtrack interleavings through
        # the incremental violated-set maintenance; replay() runs with
        # debug_invariants=True, so every check() and the final
        # check_invariants() cross-check the set against a full
        # recompute
        rng = random.Random(seed)
        nv = rng.randint(4, 6)
        rows, ops = random_script(rng, nv=nv, nrows=5, nops=60)
        trace = replay(Simplex(), rows, ops, nv)
        ref_trace = replay(ReferenceSimplex(), rows, ops, nv)
        assert trace == ref_trace


# ----------------------------------------------------------------------
# refactorization sweeps are representation-only
# ----------------------------------------------------------------------
@pytest.fixture
def sweep_every_pivot(monkeypatch):
    # at the shipped interval and limit the small formulas and scripts
    # here never reach a sweep; force one after every pivot, over every
    # row and value with a denominator above 1
    monkeypatch.setattr(simplex_module, "_REFACTOR_INTERVAL", 1)
    monkeypatch.setattr(simplex_module, "_SPARSE_NORM_LIMIT", 1)


@pytest.mark.usefixtures("sweep_every_pivot")
class TestRefactorization:
    @pytest.mark.parametrize("seed", range(40))
    def test_sweeps_keep_the_solver_bit_identical(self, seed):
        fast = solve_with("sparse", seed)
        stats = fast[0].statistics()
        if stats["pivots"] > 0 and stats["refactorizations"] == 0:
            # canonical rows are integer rows over denominator 1; a pivot
            # on a unit coefficient keeps every denominator at 1, and one
            # on another coefficient can leave rows whose denominator
            # shares no factor with their numerators (seed 13 pivots on
            # a 3), so the forced sweep had nothing to renormalize: one
            # more changes no row, denominator or value
            engine = fast[0]._theory.simplex
            rows = {basic: dict(row) for basic, row in engine.rows.items()}
            dens = dict(engine.row_den)
            vals = list(engine._val)
            engine._refactorize()
            assert engine.rows == rows
            assert engine.row_den == dens
            assert engine._val == vals
            assert engine.refactorizations == 0
        else:
            assert (stats["refactorizations"] > 0) == (stats["pivots"] > 0)
        assert_bit_identical(solve_with("reference", seed), fast)

    @pytest.mark.parametrize("seed", range(30, 50))
    def test_sweeps_keep_script_replays_bit_identical(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(4, 6)
        rows, ops = random_script(rng, nv=nv, nrows=5, nops=60)
        engine = Simplex()
        trace = replay(engine, rows, ops, nv)
        assert (engine.refactorizations > 0) == (engine.pivots > 0)
        assert trace == replay(ReferenceSimplex(), rows, ops, nv)


# ----------------------------------------------------------------------
# the pivot rule's fallback to Bland's rule
# ----------------------------------------------------------------------
@pytest.fixture
def bland_after_one_pivot(monkeypatch):
    # at the shipped _BLAND_AFTER no check here makes enough pivots to
    # fall back; enter by the sparse column only at each check's first
    # pivot, and by Bland's rule after it
    monkeypatch.setattr(simplex_module, "_BLAND_AFTER", 1)


@pytest.mark.usefixtures("bland_after_one_pivot")
class TestBlandFallback(
    TestSolverEquivalence, TestSatConfigs, TestUnsatCores, TestScriptReplay
):
    """The bit-identity tests above, with the fallback on both kernels."""


# ----------------------------------------------------------------------
# kernel selection validation
# ----------------------------------------------------------------------
class TestKernelValidation:
    def test_unknown_kernel_argument_rejected(self):
        with pytest.raises(ValueError, match="unknown theory kernel 'bogus'"):
            Solver(kernel="bogus")

    # a typo'd (or retired: "int") REPRO_THEORY_KERNEL must fail loudly
    # at Solver construction, naming the env var and the valid kernels,
    # not silently fall back or crash deep in the theory layer
    @pytest.mark.parametrize("value", ("sprase", "int"))
    def test_unknown_kernel_env_rejected(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_THEORY_KERNEL", value)
        with pytest.raises(ValueError) as exc:
            Solver()
        message = str(exc.value)
        assert f"unknown theory kernel {value!r}" in message
        assert "REPRO_THEORY_KERNEL" in message
        for kernel in ("sparse", "reference"):
            assert kernel in message

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_THEORY_KERNEL", "")
        assert Solver().statistics()["kernel"] == "sparse"

    @pytest.mark.parametrize("kernel", ("sparse", "reference"))
    def test_valid_kernels_accepted(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_THEORY_KERNEL", kernel)
        assert Solver().statistics()["kernel"] == kernel
