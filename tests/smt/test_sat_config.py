"""SolverConfig: diversification, restart schedules, seeds.

Covers the search-configuration layer: token round-trips, the
restart-base lift out of the hardcoded ``* 100`` (with a regression
pinning the default schedule to the historical one), reproducible
seeded tie-breaking, and how the configuration reaches the solver (as
an argument, never the environment) and is reported.
"""

import random

import pytest

from repro.core.casestudy import attack_objective_1
from repro.core.spec import AttackSpec
from repro.core.verification import UfdiEncoder, verify_attack
from repro.grid.cases import ieee14
from repro.smt.sat import (
    SatSolver,
    SolverConfig,
    diversified_configs,
    luby,
)
from repro.smt.solver import Solver, engine_signature

from tests.smt.test_sat_internals import hard_random_instance
from tests.smt.test_sat_watches import GOLDEN_SEARCH_STATS


def random_instance(seed, config=None, n=40, ratio=4.2):
    """hard_random_instance, but on a configurable solver."""
    rng = random.Random(seed)
    solver = SatSolver(config=config)
    solver.ensure_vars(n)
    for _ in range(int(n * ratio)):
        clause = []
        while len(clause) < 3:
            lit = rng.choice([1, -1]) * rng.randint(1, n)
            if lit not in clause and -lit not in clause:
                clause.append(lit)
        if not solver.add_clause(clause):
            break
    return solver


class TestConfigValidation:
    def test_default_reproduces_historical_knobs(self):
        config = SolverConfig()
        assert config.restart == "luby"
        assert config.restart_base == 100
        assert config.phase is False
        assert config.decay == 0.95
        assert config.seed is None

    def test_unknown_restart_policy_rejected(self):
        with pytest.raises(ValueError, match="restart policy"):
            SolverConfig(restart="fibonacci")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restart_base": 0},
            {"restart_growth": 1.0},
            {"decay": 0.0},
            {"decay": 1.5},
        ],
    )
    def test_out_of_range_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestTokens:
    def test_round_trip_over_diversified_configs(self):
        for config in diversified_configs(12):
            assert SolverConfig.from_token(config.token()) == config

    def test_default_and_empty_tokens(self):
        assert SolverConfig.from_token("") == SolverConfig()
        assert SolverConfig.from_token("default") == SolverConfig()
        assert SolverConfig().token() == "luby@100/p0/d0.95"

    def test_geometric_token_carries_growth(self):
        config = SolverConfig(
            restart="geometric", restart_base=64, restart_growth=1.5, seed=7
        )
        assert config.token() == "geometric@64x1.5/p0/d0.95/s7"

    @pytest.mark.parametrize(
        "text", ["warp@9", "luby@", "luby@100/x3", "luby@100/dfoo"]
    )
    def test_bad_tokens_name_the_format(self, text):
        with pytest.raises(ValueError, match="bad solver config token"):
            SolverConfig.from_token(text)


class TestDiversification:
    def test_first_config_is_the_production_default(self):
        assert diversified_configs(1) == [SolverConfig()]

    def test_configs_are_pairwise_distinct(self):
        configs = diversified_configs(10)
        tokens = [c.token() for c in configs]
        assert len(set(tokens)) == len(tokens)

    def test_generation_is_deterministic(self):
        assert diversified_configs(9) == diversified_configs(9)

    def test_need_at_least_one(self):
        with pytest.raises(ValueError):
            diversified_configs(0)


class TestRestartSchedule:
    def test_default_schedule_matches_historical_hardcoded_base(self):
        # the schedule that used to be luby(restart_count + 1) * 100
        config = SolverConfig()
        for count in range(12):
            assert config.restart_limit(count) == luby(count + 1) * 100

    def test_geometric_schedule_grows_by_factor(self):
        config = SolverConfig(
            restart="geometric", restart_base=64, restart_growth=1.5
        )
        assert [config.restart_limit(i) for i in range(4)] == [64, 96, 144, 216]

    @pytest.mark.parametrize("seed,expected", GOLDEN_SEARCH_STATS)
    def test_default_config_search_is_byte_identical(self, seed, expected):
        # the restart-base lift must not move a single statistic of the
        # default engine: same golden trace as before SolverConfig
        sat, conflicts, decisions, propagations, learned = expected
        solver = random_instance(seed, config=SolverConfig())
        assert solver.solve() is sat
        assert solver.stats["conflicts"] == conflicts
        assert solver.stats["decisions"] == decisions
        assert solver.stats["propagations"] == propagations
        assert solver.stats["learned_literals"] == learned

    def test_default_config_equals_argless_solver(self):
        for seed in range(6):
            a = hard_random_instance(seed)
            b = random_instance(seed, config=SolverConfig())
            assert a.solve() == b.solve()
            assert a.stats == b.stats

    def test_small_restart_base_restarts_more(self):
        default = random_instance(4, config=SolverConfig())
        eager = random_instance(4, config=SolverConfig(restart_base=5))
        default.solve()
        eager.solve()
        assert eager.stats["restarts"] >= default.stats["restarts"]


class TestDiversifiedSearch:
    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_diversified_configs_agree_on_verdict(self, index):
        config = diversified_configs(4)[index]
        for seed in range(8):
            base = random_instance(seed)
            other = random_instance(seed, config=config)
            assert base.solve() == other.solve()

    def test_seeded_tie_breaking_is_reproducible(self):
        config = SolverConfig(seed=11)
        a = random_instance(2, config=config)
        b = random_instance(2, config=config)
        assert a.solve() == b.solve()
        assert a.stats == b.stats

    def test_different_seeds_change_the_search(self):
        # not guaranteed per instance, but across a handful of seeds at
        # least one must diverge — otherwise the RNG is not wired in
        diverged = False
        base = random_instance(2, config=SolverConfig(seed=1))
        base.solve()
        for seed in range(2, 8):
            other = random_instance(2, config=SolverConfig(seed=seed))
            other.solve()
            if other.stats != base.stats:
                diverged = True
                break
        assert diverged

    def test_phase_flip_still_sound(self):
        for seed in range(6):
            base = random_instance(seed)
            flipped = random_instance(seed, config=SolverConfig(phase=True))
            assert base.solve() == flipped.solve()


class TestFacadeResolution:
    def test_encoder_config_reaches_the_sat_engine(self):
        config = SolverConfig.from_token("luby@32/p1/d0.9/s5")
        encoder = UfdiEncoder(AttackSpec.default(ieee14()), sat_config=config)
        assert encoder.solver._sat.config == config
        assert encoder.statistics()["sat_config"] == "luby@32/p1/d0.9/s5"

    def test_encoder_defaults_to_the_default_config(self):
        encoder = UfdiEncoder(AttackSpec.default(ieee14()))
        assert encoder.solver._sat.config == SolverConfig()

    def test_environment_does_not_configure_the_search(self, monkeypatch):
        # the retired REPRO_SAT_CONFIG variable has no reader left, so
        # even a malformed value neither fails nor changes the search
        monkeypatch.setenv("REPRO_SAT_CONFIG", "bogus@@")
        assert Solver().statistics()["sat_config"] == SolverConfig().token()

    def test_engine_signature_pins_the_default_config(self, monkeypatch):
        # existing cache entries are keyed by this exact string
        monkeypatch.delenv("REPRO_THEORY_KERNEL", raising=False)
        monkeypatch.setenv("REPRO_SAT_CONFIG", "geometric@64x1.5/p1/d0.92/s1")
        assert engine_signature() == "v10/kernel=sparse/cfg=luby@100/p0/d0.95"

    def test_environment_does_not_switch_theory_propagation(self, monkeypatch):
        # the retired REPRO_THEORY_PROPAGATION variable has no reader
        # left: row-implied bounds propagate in every production solve
        monkeypatch.delenv("REPRO_THEORY_KERNEL", raising=False)
        signature = engine_signature()
        monkeypatch.setenv("REPRO_THEORY_PROPAGATION", "0")
        result = verify_attack(attack_objective_1(16, 7))
        assert result.statistics["theory_props"] > 0
        assert engine_signature() == signature

    def test_reference_signature_claims_no_propagation(self, monkeypatch):
        # the oracle never propagates, and its signature says nothing else
        monkeypatch.setenv("REPRO_THEORY_KERNEL", "reference")
        monkeypatch.setenv("REPRO_THEORY_PROPAGATION", "1")
        assert engine_signature() == "v10/kernel=reference/cfg=luby@100/p0/d0.95"
        assert not Solver()._theory.propagation

    def test_solver_statistics_expose_config(self):
        solver = Solver(sat_config=SolverConfig(seed=3))
        assert solver.statistics()["sat_config"] == "luby@100/p0/d0.95/s3"
