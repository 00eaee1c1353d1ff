"""Portfolio racing edge cases: total failure, cancellation, attribution."""

from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import VerificationOutcome
from repro.grid.cases import ieee14
from repro.runtime import RuntimeOptions, race_configs, verify_many
from repro.runtime.executor import _M_PORTFOLIO_CONFIG_WINS, _M_PORTFOLIO_RACES
from repro.smt.sat import diversified_configs


def sat_spec():
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(9))


def tokens(n):
    return [c.token() for c in diversified_configs(n)]


class TestTotalFailure:
    def test_every_contender_crashing_is_inconclusive_not_fatal(self):
        # a non-positive epsilon makes every contender's encoder raise
        result = race_configs(sat_spec(), n=2, epsilon=-1)
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.backend == "portfolio"
        assert result.statistics["portfolio_inconclusive"] == 1
        assert result.attack is None
        assert result.statistics["portfolio_crashed"] == 2
        errors = result.statistics["portfolio_errors"]
        assert sorted(errors) == sorted(tokens(2))
        for error in errors.values():
            assert error == "ValueError: epsilon must be positive"


class TestLoserCancellation:
    def test_stalled_loser_is_terminated_and_counted(self, monkeypatch):
        # the hook parks contender 1, so contender 0 must win and the
        # parked one must be observed getting cancelled
        monkeypatch.setenv("REPRO_RACE_STALL", "config:1")
        result = race_configs(sat_spec(), n=2)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner_config"] == tokens(2)[0]
        assert result.statistics["portfolio_losers_cancelled"] >= 1

    def test_winner_attribution_survives_role_swap(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_STALL", "config:0")
        result = race_configs(sat_spec(), n=2)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner_config"] == tokens(2)[1]
        assert result.statistics["portfolio_losers_cancelled"] >= 1


class TestCrashReporting:
    def test_config_race_crash_is_attributed_to_the_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_RACE_CRASH", "config:0")
        result = race_configs(sat_spec(), n=2)
        # the surviving contender still settles the instance
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert result.statistics["portfolio_winner_config"] == tokens(2)[1]
        errors = result.statistics.get("portfolio_errors", {})
        if errors:  # the crash may land after the winner already broke out
            assert errors[tokens(2)[0]].startswith("_UnprintableError")

    def test_config_race_total_crash_is_inconclusive(self, monkeypatch):
        # one contender crashes unprintably, the other is parked; the
        # race must time out inconclusive with the crash attributed
        monkeypatch.setenv("REPRO_RACE_CRASH", "config:0")
        monkeypatch.setenv("REPRO_RACE_STALL", "config:1")
        result = race_configs(sat_spec(), n=2, timeout=2.0)
        assert result.outcome is VerificationOutcome.UNKNOWN
        assert result.statistics["portfolio_inconclusive"] == 1
        assert result.statistics["portfolio_crashed"] == 1
        assert result.statistics["portfolio_errors"][tokens(2)[0]] == (
            "_UnprintableError: <unprintable exception>"
        )
        assert result.statistics["portfolio_losers_cancelled"] >= 1


class TestDeterministicTie:
    def test_simultaneous_finishers_attribute_a_single_winner(self):
        # both contenders solve the same easy instance near-instantly; the
        # parent must pick exactly one winner and label it consistently
        for _ in range(3):
            result = race_configs(sat_spec(), n=2)
            assert result.outcome is VerificationOutcome.ATTACK_EXISTS
            assert result.backend == "smt"
            assert result.statistics["portfolio_winner"] == "smt"
            assert result.statistics["portfolio_winner_config"] in tokens(2)

    def test_config_tie_winner_matches_replayable_config(self):
        capture = {}
        result = race_configs(sat_spec(), n=2, capture=capture)
        assert result.outcome is VerificationOutcome.ATTACK_EXISTS
        assert (
            result.statistics["portfolio_winner_config"]
            == capture["winner_config"]
        )
        assert capture["winner_config"] in tokens(2)


class TestWinnerAttributionMetrics:
    def test_executor_counts_races_and_wins_by_config(self, monkeypatch):
        # a bare portfolio=True is the four-config race
        monkeypatch.setenv("REPRO_RACE_STALL", "config:1")
        races_before = _M_PORTFOLIO_RACES.value()
        wins_before = {
            token: _M_PORTFOLIO_CONFIG_WINS.value(config=token)
            for token in tokens(4)
        }
        results = verify_many(
            [sat_spec()], RuntimeOptions(jobs=1, portfolio=True, cache=None)
        )
        stats = results[0].statistics
        assert results[0].outcome is VerificationOutcome.ATTACK_EXISTS
        assert stats["portfolio_size"] == 4
        winner = stats["portfolio_winner_config"]
        assert winner != tokens(4)[1]
        assert _M_PORTFOLIO_RACES.value() == races_before + 1
        assert _M_PORTFOLIO_CONFIG_WINS.value(config=winner) == (
            wins_before[winner] + 1
        )
