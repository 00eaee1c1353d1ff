"""Cooperative configuration race: winners, determinism, metrics, knobs."""

import os

import pytest

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import VerificationOutcome, verify_attack
from repro.grid.cases import ieee14
from repro.runtime import (
    RuntimeOptions,
    attack_to_payload,
    parse_portfolio_mode,
    race_configs,
    replay_config_solo,
    verify_many,
)
from repro.runtime.executor import _M_PORTFOLIO_CLAUSES, _M_PORTFOLIO_CONFIG_WINS
from repro.runtime.portfolio import _sequential_config_race
from repro.smt.sat import SolverConfig, diversified_configs

SEARCH_STATS = ("conflicts", "decisions", "propagations", "learned_literals")


def sat_spec():
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(9))


def unsat_spec():
    return AttackSpec.default(
        ieee14(),
        goal=AttackGoal.states(9),
        limits=ResourceLimits(max_measurements=1),
    )


def assert_replay_matches(spec, result, capture):
    """The determinism contract: winner == solo replay, bit for bit."""
    replay = replay_config_solo(
        spec, capture["winner_config"], capture["import_log"]
    )
    assert replay.outcome is result.outcome
    if result.attack is None:
        assert replay.attack is None
    else:
        assert attack_to_payload(replay.attack) == attack_to_payload(
            result.attack
        )
    for key in SEARCH_STATS:
        assert replay.statistics[key] == result.statistics[key], key
    assert (
        replay.statistics["clauses_imported"]
        == result.statistics["clauses_imported"]
    )


class TestParsePortfolioMode:
    @pytest.mark.parametrize("value", [False, None, "", 0])
    def test_falsy_disables(self, value):
        assert parse_portfolio_mode(value) == (None, 0)

    def test_true_is_the_default_config_race(self):
        assert parse_portfolio_mode(True) == ("configs", 4)

    def test_configs_forms(self):
        assert parse_portfolio_mode("configs") == ("configs", 4)
        assert parse_portfolio_mode("configs:2") == ("configs", 2)
        assert parse_portfolio_mode("configs:8") == ("configs", 8)

    @pytest.mark.parametrize("value", ["configs:0", "configs:-1", "configs:x"])
    def test_bad_sizes_rejected(self, value):
        with pytest.raises(ValueError, match="bad portfolio size"):
            parse_portfolio_mode(value)

    @pytest.mark.parametrize("value", ["turbo", "backends"])
    def test_unknown_mode_rejected(self, value):
        with pytest.raises(ValueError, match="unknown portfolio mode"):
            parse_portfolio_mode(value)


class TestRaceConfigs:
    def test_winner_is_conclusive_and_marked(self):
        result = race_configs(sat_spec(), n=2)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        stats = result.statistics
        assert stats["portfolio"] == 1
        assert stats["portfolio_mode"] == "configs"
        assert stats["portfolio_size"] == 2
        assert stats["portfolio_winner"] == "smt"
        tokens = {c.token() for c in diversified_configs(2)}
        assert stats["portfolio_winner_config"] in tokens
        assert stats["portfolio_clauses_exchanged"] >= 0

    def test_verdict_agrees_with_direct_verification(self):
        spec = sat_spec()
        raced = race_configs(spec, n=2)
        direct = verify_attack(spec)
        assert raced.outcome == direct.outcome

    def test_unsat_verdict_agrees_with_direct_verification(self):
        spec = unsat_spec()
        direct = verify_attack(spec)
        assert direct.outcome is VerificationOutcome.SECURE
        raced = race_configs(spec, n=2)
        assert raced.outcome is VerificationOutcome.SECURE
        assert raced.attack is None

    def test_single_config_degenerates_to_solo_solve(self):
        spec = sat_spec()
        result = race_configs(spec, n=1)
        direct = verify_attack(spec)
        assert result.outcome == direct.outcome
        assert result.attack == direct.attack
        assert result.statistics["portfolio"] == 1
        assert result.statistics["portfolio_size"] == 1
        assert result.statistics["portfolio_winner_config"] == (
            SolverConfig().token()
        )

    def test_duplicate_config_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            race_configs(
                sat_spec(), configs=[SolverConfig(), SolverConfig()]
            )

    def test_explicit_config_list_is_honored(self):
        configs = [SolverConfig(), SolverConfig(seed=5)]
        result = race_configs(sat_spec(), configs=configs)
        assert result.statistics["portfolio_size"] == 2
        assert result.statistics["portfolio_winner_config"] in {
            c.token() for c in configs
        }

    def test_parent_environment_is_untouched(self):
        # configurations travel as arguments, never through os.environ
        before = dict(os.environ)
        race_configs(sat_spec(), n=2)
        race_configs(sat_spec(), n=1)
        assert dict(os.environ) == before

    def test_collect_all_reports_every_contender(self):
        capture = {}
        result = race_configs(
            sat_spec(), n=2, capture=capture, collect_all=True
        )
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert len(capture["details"]) == 2
        for meta in capture["details"].values():
            assert "runtime_seconds" in meta
            assert "clauses_exported" in meta


class TestDeterminismContract:
    def test_sat_winner_replays_bit_identically(self):
        spec = sat_spec()
        capture = {}
        result = race_configs(spec, n=3, capture=capture)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert_replay_matches(spec, result, capture)

    def test_unsat_winner_replays_bit_identically(self):
        spec = unsat_spec()
        capture = {}
        result = race_configs(spec, n=3, capture=capture)
        assert result.outcome is VerificationOutcome.SECURE
        assert_replay_matches(spec, result, capture)


class TestSequentialFallback:
    def test_first_conclusive_config_wins(self):
        result = _sequential_config_race(
            sat_spec(), diversified_configs(2), None, None
        )
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_mode"] == "configs"
        assert result.statistics["portfolio_winner_config"] == (
            SolverConfig().token()
        )


class TestExecutorIntegration:
    @pytest.mark.parametrize("value", ["turbo", "backends"])
    def test_runtime_options_validate_portfolio_eagerly(self, value):
        with pytest.raises(ValueError):
            RuntimeOptions(portfolio=value)

    def test_backend_label_and_describe(self):
        options = RuntimeOptions(portfolio="configs:3")
        assert options.portfolio_mode() == "configs"
        assert options.portfolio_size() == 3
        assert options.backend_label() == "portfolio-configs3"
        described = options.describe()
        assert described["portfolio"] == "configs"
        assert described["portfolio_size"] == 3

    def test_verify_many_routes_to_config_race_and_counts_metrics(self):
        wins_before = {}
        clauses_before = _M_PORTFOLIO_CLAUSES.value()
        results = verify_many(
            [sat_spec()],
            RuntimeOptions(jobs=1, portfolio="configs:2", cache=None),
        )
        assert results[0].outcome is VerificationOutcome.ATTACK_EXISTS
        stats = results[0].statistics
        assert stats["portfolio_mode"] == "configs"
        winner = stats["portfolio_winner_config"]
        assert (
            _M_PORTFOLIO_CONFIG_WINS.value(config=winner)
            >= wins_before.get(winner, 0) + 1
        )
        assert (
            _M_PORTFOLIO_CLAUSES.value()
            == clauses_before + stats["portfolio_clauses_exchanged"]
        )

    def test_config_race_inside_pool_workers(self):
        # `--jobs N --portfolio` starts one race in each pool worker
        specs = [sat_spec(), unsat_spec()]
        serial = verify_many(specs, RuntimeOptions(jobs=1))
        pooled = verify_many(specs, RuntimeOptions(jobs=2, portfolio="configs:2"))
        assert [r.outcome for r in pooled] == [r.outcome for r in serial]
        for result in pooled:
            assert result.statistics["portfolio_mode"] == "configs"
            assert "portfolio_errors" not in result.statistics
