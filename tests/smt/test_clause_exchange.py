"""Learned-clause exchange: soundness, filtering, deterministic replay.

Satellite 3 of PR 9.  The safety property is that every clause a solver
exports is *implied* by the shared formula — checked here by asserting
that formula ∧ ¬C is UNSAT for each exported clause C.  The determinism
contract is that replaying a recorded import schedule
(:class:`ScriptedExchange`) reproduces the cooperative search bit for
bit; a 40-seed sweep pins it.
"""

import random

from repro.smt.sat import SatSolver, ScriptedExchange, SolverConfig

SEED_COUNT = 40


def random_clauses(seed, n=40, ratio=4.2):
    rng = random.Random(seed)
    clauses = []
    for _ in range(int(n * ratio)):
        clause = []
        while len(clause) < 3:
            lit = rng.choice([1, -1]) * rng.randint(1, n)
            if lit not in clause and -lit not in clause:
                clause.append(lit)
        clauses.append(clause)
    return clauses


def build_solver(clauses, config=None, n=40):
    solver = SatSolver(config=config)
    solver.ensure_vars(n)
    for clause in clauses:
        if not solver.add_clause(clause):
            break
    return solver


class CollectingExchange:
    """Records everything the solver publishes; imports nothing."""

    def __init__(self):
        self.published = []

    def publish(self, clauses, conflicts):
        self.published.extend(tuple(c) for c in clauses)

    def poll(self, conflicts):
        return []


class FeedExchange:
    """Feeds a fixed queue of foreign clauses, three per poll."""

    def __init__(self, queue, batch=3):
        self.queue = [tuple(c) for c in queue]
        self.batch = batch

    def publish(self, clauses, conflicts):
        pass

    def poll(self, conflicts):
        batch, self.queue = self.queue[: self.batch], self.queue[self.batch :]
        return batch


class TestExportSoundness:
    def test_exported_clauses_are_implied_by_the_formula(self):
        # formula ∧ ¬C must be UNSAT for every exported clause C
        checked = 0
        for seed in range(8):
            clauses = random_clauses(seed)
            donor = build_solver(clauses)
            exchange = CollectingExchange()
            donor.set_exchange(exchange, interval=8)
            donor.solve()
            for clause in exchange.published[:6]:
                checker = build_solver(clauses)
                assert checker.solve([-lit for lit in clause]) is False
                checked += 1
        assert checked >= 10  # the sweep must actually exercise exports

    def test_exports_respect_size_cap(self):
        for seed in range(6):
            donor = build_solver(random_clauses(seed))
            exchange = CollectingExchange()
            donor.set_exchange(exchange, interval=8, size_cap=4)
            donor.solve()
            assert all(len(c) <= 4 for c in exchange.published)

    def test_export_counter_matches_published(self):
        donor = build_solver(random_clauses(1))
        exchange = CollectingExchange()
        donor.set_exchange(exchange, interval=8)
        donor.solve()
        assert donor.stats["clauses_exported"] == len(exchange.published)


class TestImportFiltering:
    def test_tautology_and_satisfied_imports_are_dropped(self):
        solver = SatSolver()
        solver.ensure_vars(4)
        solver.add_clause([1])  # forces 1 true at level 0
        before = len(solver.learnts)
        solver._import_clause((2, -2, 3))  # tautology
        solver._import_clause((1, 4))  # already satisfied at level 0
        assert len(solver.learnts) == before
        assert solver.ok

    def test_false_literals_are_stripped_on_import(self):
        solver = SatSolver()
        solver.ensure_vars(4)
        solver.add_clause([-1])  # 1 is false at level 0
        solver._import_clause((1, 3, 4))
        assert len(solver.learnts) == 1
        assert sorted(solver.learnts[-1]) == [3, 4]

    def test_unit_import_is_enqueued(self):
        solver = SatSolver()
        solver.ensure_vars(3)
        solver._import_clause((2,))
        assert solver.value(2) == 1

    def test_conflicting_import_makes_solver_unsat(self):
        solver = SatSolver()
        solver.ensure_vars(3)
        solver.add_clause([-2])
        solver._import_clause((2,))
        assert not solver.ok
        assert solver.solve() is False

    def test_imports_only_prune_never_flip_the_verdict(self):
        for seed in range(10):
            clauses = random_clauses(seed)
            plain = build_solver(clauses)
            expected = plain.solve()

            donor = build_solver(clauses, config=SolverConfig(seed=7))
            collector = CollectingExchange()
            donor.set_exchange(collector, interval=8)
            donor.solve()

            fed = build_solver(clauses)
            fed.set_exchange(FeedExchange(collector.published), interval=8)
            assert fed.solve() == expected


class TestScriptedExchange:
    def test_poll_pops_exactly_once_per_conflict_count(self):
        scripted = ScriptedExchange([(32, (1, 2)), (32, (-3,)), (64, (4, 5))])
        assert scripted.poll(16) == []
        assert scripted.poll(32) == [(1, 2), (-3,)]
        assert scripted.poll(32) == []
        assert scripted.poll(64) == [(4, 5)]

    def test_publish_is_a_no_op(self):
        scripted = ScriptedExchange([])
        scripted.publish([(1, 2)], 32)
        assert scripted.poll(32) == []


class TestReplayDeterminism:
    def test_forty_seed_bit_identity_sweep(self):
        """Cooperative run vs ScriptedExchange replay: identical traces."""
        total_imported = 0
        for seed in range(SEED_COUNT):
            clauses = random_clauses(seed)
            donor = build_solver(clauses, config=SolverConfig(seed=seed + 1))
            collector = CollectingExchange()
            donor.set_exchange(collector, interval=8)
            donor.solve()

            live = build_solver(clauses)
            live.set_exchange(FeedExchange(collector.published), interval=16)
            live_result = live.solve()
            total_imported += live.stats["clauses_imported"]

            replay = build_solver(clauses)
            replay.set_exchange(ScriptedExchange(live.import_log), interval=16)
            assert replay.solve() == live_result
            assert replay.stats == live.stats
            assert replay.import_log == live.import_log
            assert replay.assign == live.assign
        assert total_imported > 0  # the sweep must exercise real imports

    def test_replay_holds_for_a_fixed_donor_config(self):
        for seed in range(6):
            clauses = random_clauses(seed)
            donor = build_solver(clauses, config=SolverConfig(seed=3))
            collector = CollectingExchange()
            donor.set_exchange(collector, interval=8)
            donor.solve()

            live = build_solver(clauses)
            live.set_exchange(FeedExchange(collector.published), interval=16)
            live_result = live.solve()

            replay = SatSolver()
            replay.ensure_vars(40)
            for clause in clauses:
                if not replay.add_clause(clause):
                    break
            replay.set_exchange(ScriptedExchange(live.import_log), interval=16)
            assert replay.solve() == live_result
            assert replay.stats == live.stats
