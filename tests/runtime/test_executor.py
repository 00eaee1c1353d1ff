"""Batch executor: parallel == serial, dedup, timeouts, cache wiring."""

import pytest

import repro.runtime.executor as executor_module
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.grid.cases import ieee14
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.runtime import (
    ResultCache,
    RuntimeOptions,
    synthesize_many,
    verify_many,
    verify_one,
)


def batch_specs():
    grid = ieee14()
    return [
        AttackSpec.default(grid, goal=AttackGoal.states(bus))
        for bus in (4, 9, 13)
    ]


class TestResultMetrics:
    def test_solver_stats_fold_into_registry(self):
        fill_gauge = executor_module._M_SOLVER_FILL_RATIO
        conflict_counter = executor_module._M_SOLVER_CONFLICTS
        before = conflict_counter.value()
        results = verify_many(batch_specs()[:1], RuntimeOptions(jobs=1))
        stats = results[0].statistics
        # the tableau sparsity stats travel home in the result and land
        # in the registry: fill ratio as a last-solve gauge, conflicts
        # (and friends) as running counters
        assert 0.0 < stats["fill_ratio"] <= 1.0
        assert stats["rows_nnz"] > 0
        assert fill_gauge.value() == stats["fill_ratio"]
        assert conflict_counter.value() == before + stats["conflicts"]

    def test_theory_props_reach_the_registry_and_the_solve_span(self):
        props_counter = executor_module._M_SOLVER_THEORY_PROPS
        before = props_counter.value()
        previous = set_tracer(Tracer())
        try:
            results = verify_many(batch_specs()[:1], RuntimeOptions(jobs=1))
            spans = get_tracer().finished_spans()
        finally:
            set_tracer(previous)
        props = results[0].statistics["theory_props"]
        # the default engine propagates row-implied bounds on real grids
        assert props > 0
        assert props_counter.value() == before + props
        solve = next(s for s in spans if s["name"] == "verify.solve")
        assert solve["attributes"]["theory_props"] == props


class TestOptions:
    def test_effective_jobs_clamps_to_tasks(self):
        assert RuntimeOptions(jobs=8).effective_jobs(3) == 3
        assert RuntimeOptions(jobs=2).effective_jobs(10) == 2

    def test_zero_means_all_cores(self):
        import os

        assert RuntimeOptions(jobs=0).effective_jobs(128) == (os.cpu_count() or 1)

    def test_backend_label(self):
        assert RuntimeOptions().backend_label() == "smt"
        assert RuntimeOptions(portfolio=True).backend_label() == "portfolio-configs4"


class TestVerifyMany:
    def test_preserves_input_order(self):
        specs = batch_specs()
        results = verify_many(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            alone = verify_one(spec)
            assert result.outcome == alone.outcome
            assert result.attack == alone.attack

    def test_parallel_matches_serial_bit_for_bit(self):
        specs = batch_specs()
        serial = verify_many(specs, RuntimeOptions(jobs=1))
        parallel = verify_many(specs, RuntimeOptions(jobs=2))
        for a, b in zip(serial, parallel):
            assert a.outcome == b.outcome
            assert a.backend == b.backend
            assert a.attack == b.attack
            assert a.statistics["conflicts"] == b.statistics["conflicts"]
            assert a.statistics["decisions"] == b.statistics["decisions"]
            assert a.statistics["propagations"] == b.statistics["propagations"]

    def test_identical_specs_solved_once(self, monkeypatch):
        calls = []
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        results = verify_many([spec, spec, spec])
        assert len(calls) == 1
        assert len(results) == 3
        assert results[0].outcome == results[1].outcome == results[2].outcome
        # statistics dicts are per-result copies, never shared
        results[1].statistics["marker"] = 1
        assert "marker" not in results[0].statistics
        assert "marker" not in results[2].statistics

    def test_task_timeout_yields_unknown(self):
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        (result,) = verify_many(
            [spec], RuntimeOptions(task_timeout=1e-4)
        )
        assert result.outcome.value == "unknown"
        assert result.statistics.get("task_timeout") == 1

    def test_empty_batch(self):
        assert verify_many([]) == []


class TestCacheWiring:
    def test_second_sweep_hits_cache(self):
        specs = batch_specs()
        cache = ResultCache()
        options = RuntimeOptions(cache=cache)
        first = verify_many(specs, options)
        assert all("cache_hit" not in r.statistics for r in first)
        assert cache.stats.stores == len(specs)

        second = verify_many(specs, options)
        assert all(r.statistics.get("cache_hit") == 1 for r in second)
        assert cache.stats.hits == len(specs)
        for a, b in zip(first, second):
            assert a.outcome == b.outcome
            assert a.attack == b.attack

    def test_unknown_results_not_cached(self):
        cache = ResultCache()
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        verify_many([spec], RuntimeOptions(cache=cache, task_timeout=1e-4))
        assert cache.stats.stores == 0

    def test_backends_do_not_share_entries(self):
        # a solo run and a configuration race are different backend
        # labels, so different fingerprints
        cache = ResultCache()
        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        verify_many([spec], RuntimeOptions(cache=cache))
        (raced,) = verify_many(
            [spec], RuntimeOptions(cache=cache, portfolio="configs:2")
        )
        assert "cache_hit" not in raced.statistics
        assert cache.stats.stores == 2


class TestSynthesizeMany:
    @pytest.fixture(scope="class")
    def problems(self):
        grid = ieee14()
        settings = SynthesisSettings(max_secured_buses=6)
        return [
            (
                AttackSpec.default(
                    grid,
                    goal=AttackGoal.states(bus),
                    limits=ResourceLimits(max_measurements=10),
                ),
                settings,
            )
            for bus in (9, 13)
        ]

    def test_matches_direct_calls(self, problems):
        batched = synthesize_many(problems, jobs=1)
        for (spec, settings), result in zip(problems, batched):
            direct = synthesize_architecture(spec, settings)
            assert result.feasible == direct.feasible
            assert result.architecture == direct.architecture

    def test_parallel_matches_serial(self, problems):
        serial = synthesize_many(problems, jobs=1)
        parallel = synthesize_many(problems, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.feasible == b.feasible
            assert a.architecture == b.architecture
            assert a.iterations == b.iterations

    def test_empty(self):
        assert synthesize_many([], jobs=4) == []
