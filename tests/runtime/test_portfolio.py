"""Portfolio racing: conclusive winners, fallbacks, inconclusive runs."""

import pytest

import repro.runtime.portfolio as portfolio_module
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationOutcome, VerificationResult
from repro.grid.cases import ieee14
from repro.runtime import race_configs
from repro.runtime.portfolio import _sequential_config_race
from repro.smt.sat import diversified_configs


def sat_spec():
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(9))


class TestRace:
    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            race_configs(sat_spec(), configs=[])

    def test_timeout_returns_unknown(self):
        result = race_configs(sat_spec(), n=2, timeout=1e-6)
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.backend == "portfolio"
        assert result.statistics.get("portfolio_inconclusive") == 1
        assert result.attack is None


class TestSequentialFallback:
    def test_skips_inconclusive_config(self, monkeypatch):
        # the first contender gives up; the fallback must move on to
        # the second and return its conclusive answer
        configs = diversified_configs(2)
        real = portfolio_module._solve_config

        def first_gives_up(spec, config, epsilon, exchange=None):
            if config == configs[0]:
                return None, VerificationResult(
                    VerificationOutcome.UNKNOWN, None, "smt", 0.0
                )
            return real(spec, config, epsilon, exchange)

        monkeypatch.setattr(portfolio_module, "_solve_config", first_gives_up)
        result = _sequential_config_race(sat_spec(), configs, None, None)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner_config"] == configs[1].token()

    def test_all_inconclusive_is_marked(self, monkeypatch):
        monkeypatch.setattr(
            portfolio_module,
            "_solve_config",
            lambda spec, config, epsilon, exchange=None: (
                None,
                VerificationResult(VerificationOutcome.UNKNOWN, None, "smt", 0.0),
            ),
        )
        result = _sequential_config_race(
            sat_spec(), diversified_configs(2), None, None
        )
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.statistics["portfolio_inconclusive"] == 1
        assert "portfolio_winner_config" not in result.statistics
