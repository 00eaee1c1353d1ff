"""Tests for the runtime's warm-session registry and family fingerprints."""

import pytest

from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.core.verification import verify_attack
from repro.grid.model import Grid, Line
from repro.runtime import (
    RuntimeOptions,
    clear_session_registry,
    family_fingerprint,
    family_spec,
    session_registry_stats,
    verify_many,
    verify_one,
)
from repro.runtime.cache import ResultCache


def path_spec(n=4, target=None):
    grid = Grid(n, [Line(i, i, i + 1, 2.0) for i in range(1, n)])
    return AttackSpec.default(grid, goal=AttackGoal.states(target or n))


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_session_registry()
    yield
    clear_session_registry()


class TestFamilyFingerprint:
    def test_limits_and_targets_do_not_split_families(self):
        spec = path_spec(4)
        same = [
            spec.with_limits(ResourceLimits(max_measurements=2)),
            spec.with_goal(AttackGoal.any()),
            spec.with_goal(AttackGoal.states(2, exclusive=True)),
        ]
        base = family_fingerprint(spec)
        assert all(family_fingerprint(s) == base for s in same)

    def test_structural_changes_split_families(self):
        spec = path_spec(4)
        assert family_fingerprint(spec) != family_fingerprint(path_spec(5))
        assert family_fingerprint(spec) != family_fingerprint(
            spec.with_secured_buses([2])
        )

    def test_family_spec_clears_limits_and_goal(self):
        spec = path_spec(4).with_limits(ResourceLimits(max_measurements=2))
        family = family_spec(spec)
        assert family.limits == ResourceLimits()
        assert not family.goal.target_states
        assert not family.goal.any_state


class TestWarmSessions:
    def test_same_family_batch_opens_one_session(self):
        spec = path_spec(4)
        specs = [
            spec.with_limits(ResourceLimits(max_measurements=k))
            for k in (None, 1, 2, 3, 4, 5)
        ]
        results = verify_many(specs, RuntimeOptions(sessions=True))
        cold = [verify_attack(s) for s in specs]
        assert [r.outcome for r in results] == [c.outcome for c in cold]
        stats = session_registry_stats()
        assert stats["opened"] == 1
        assert stats["reused"] == len(specs) - 1
        assert stats["probes"] == len(specs)

    def test_distinct_families_open_distinct_sessions(self):
        specs = [path_spec(4), path_spec(5)]
        verify_many(specs, RuntimeOptions(sessions=True))
        assert session_registry_stats()["opened"] == 2

    def test_disabled_by_default(self):
        verify_one(path_spec(4), RuntimeOptions())
        stats = session_registry_stats()
        assert stats["opened"] == 0 and stats["probes"] == 0

    def test_session_results_use_private_cache_keyspace(self):
        cache = ResultCache()
        spec = path_spec(4)
        verify_one(spec, RuntimeOptions(cache=cache, sessions=True))
        cold = verify_one(spec, RuntimeOptions(cache=cache))
        # the cold run must not see the session run's cache entry
        assert "cache_hit" not in cold.statistics
        warm_again = verify_one(spec, RuntimeOptions(cache=cache, sessions=True))
        assert warm_again.statistics.get("cache_hit") == 1

    def test_registry_eviction_is_lru(self):
        from repro.runtime import executor

        old_limit = executor.SESSION_REGISTRY_LIMIT
        executor.SESSION_REGISTRY_LIMIT = 2
        try:
            verify_many(
                [path_spec(3), path_spec(4), path_spec(5)],
                RuntimeOptions(sessions=True),
            )
            stats = session_registry_stats()
            assert stats["opened"] == 3
            assert stats["evicted"] == 1
            assert stats["open"] == 2
            # oldest family (n=3) was evicted: touching it re-opens
            verify_one(path_spec(3), RuntimeOptions(sessions=True))
            assert session_registry_stats()["opened"] == 4
        finally:
            executor.SESSION_REGISTRY_LIMIT = old_limit

    def test_describe_reports_sessions(self):
        assert RuntimeOptions(sessions=True).describe()["sessions"] is True
        assert RuntimeOptions().describe()["sessions"] is False
