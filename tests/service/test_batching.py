"""Batching scheduler: batch composition, dedup, retries, stats, sweep path."""

import asyncio
import threading
from fractions import Fraction

import pytest

import repro.runtime.executor as executor_module
import repro.service.batching as batching_module
from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.runtime import ResultCache, RuntimeOptions
from repro.runtime.serialize import spec_to_payload
from repro.service.batching import (
    BatchingScheduler,
    BatchStats,
    verify_specs_batched,
)
from repro.service.jobs import JobQueue, JobState


def make_spec(bus=9):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


def verify_payload(spec, **extra):
    return {"spec": spec_to_payload(spec), **extra}


async def run_jobs(scheduler, queue, jobs, timeout=60.0):
    """Start the scheduler, wait for every given job to turn terminal."""
    task = asyncio.create_task(scheduler.run())
    try:
        await asyncio.wait_for(
            asyncio.gather(*(job.done.wait() for job in jobs)), timeout
        )
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


class TestSchedulerLifecycle:
    def test_queue_batch_done(self):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            job = await queue.submit("verify", verify_payload(make_spec()))
            assert job.state is JobState.QUEUED
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.DONE
            assert job.result["outcome"] in ("sat", "unsat")
            assert scheduler.stats.batches == 1
            assert scheduler.stats.jobs == 1

        asyncio.run(body())

    def test_unknown_kind_fails_cleanly(self):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            job = await queue.submit("frobnicate", {})
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.FAILED
            assert "unknown job kind" in job.error

        asyncio.run(body())

    def test_synthesize_job(self):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            payload = verify_payload(
                make_spec(), settings={"max_secured_buses": 6, "excluded_buses": []}
            )
            job = await queue.submit("synthesize", payload)
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.DONE
            assert job.result["feasible"] is True
            assert isinstance(job.result["architecture"], list)

        asyncio.run(body())


class TestBatchComposition:
    def test_batch_is_what_was_queued(self, monkeypatch):
        real = batching_module.verify_many
        batches = []
        entered = threading.Event()
        release = threading.Event()

        def blocking(specs, options, trace_parents=None):
            batches.append([spec.goal for spec in specs])
            if len(batches) == 1:
                entered.set()
                release.wait(timeout=10.0)
            return real(specs, options, trace_parents=trace_parents)

        monkeypatch.setattr(batching_module, "verify_many", blocking)

        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            early = [
                await queue.submit("verify", verify_payload(make_spec(bus)))
                for bus in (4, 9)
            ]
            task = asyncio.create_task(scheduler.run())
            try:
                # the first batch is inside verify_many, holding the scheduler
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 10.0)
                late = [
                    await queue.submit("verify", verify_payload(make_spec(bus)))
                    for bus in (13, 14)
                ]
                release.set()
                await asyncio.wait_for(
                    asyncio.gather(*(job.done.wait() for job in early + late)), 60
                )
            finally:
                release.set()
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            assert all(job.state is JobState.DONE for job in early + late)
            return scheduler.stats

        stats = asyncio.run(body())
        assert batches == [
            [make_spec(4).goal, make_spec(9).goal],
            [make_spec(13).goal, make_spec(14).goal],
        ]
        assert stats.batches == 2
        assert stats.size_histogram == {2: 2}

    def test_max_batch_caps_a_batch(self, monkeypatch):
        monkeypatch.setattr(batching_module, "MAX_BATCH", 2)

        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            jobs = [
                await queue.submit("verify", verify_payload(make_spec(bus)))
                for bus in (4, 9, 13)
            ]
            await run_jobs(scheduler, queue, jobs)
            return scheduler.stats

        stats = asyncio.run(body())
        assert stats.size_histogram == {2: 1, 1: 1}


class TestDedup:
    def test_identical_concurrent_jobs_one_solver_call(self, monkeypatch):
        calls = []
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue, RuntimeOptions(cache=ResultCache()), stats=stats
            )
            spec = make_spec()
            jobs = [
                await queue.submit("verify", verify_payload(spec)) for _ in range(5)
            ]
            await run_jobs(scheduler, queue, jobs)
            assert all(job.state is JobState.DONE for job in jobs)
            outcomes = {job.result["outcome"] for job in jobs}
            assert len(outcomes) == 1
            return stats

        stats = asyncio.run(body())
        assert len(calls) == 1
        assert stats.solver_calls == 1
        assert stats.dedup_hits + stats.cache_hits == 4

    def test_different_specs_not_deduped(self):
        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), stats=stats)
            jobs = [
                await queue.submit("verify", verify_payload(make_spec(bus)))
                for bus in (4, 9, 13)
            ]
            await run_jobs(scheduler, queue, jobs)
            assert stats.solver_calls == 3
            assert stats.dedup_hits == 0

        asyncio.run(body())

    def test_per_job_epsilon_split_into_groups(self, monkeypatch):
        real = batching_module.verify_many
        calls = []

        def recording(specs, options, trace_parents=None):
            calls.append((len(specs), options.epsilon))
            return real(specs, options, trace_parents=trace_parents)

        monkeypatch.setattr(batching_module, "verify_many", recording)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), stats=stats)
            spec = make_spec()
            default = await queue.submit("verify", verify_payload(spec))
            tight = await queue.submit(
                "verify", verify_payload(spec, epsilon="1/1000")
            )
            await run_jobs(scheduler, queue, [default, tight])
            assert default.result["outcome"] == tight.result["outcome"]
            # different epsilons are different fingerprints: no dedup
            assert stats.solver_calls == 2

        asyncio.run(body())
        # one batch, two option groups: one verify_many call per epsilon
        assert calls == [(1, None), (1, Fraction(1, 1000))]


class TestRetry:
    def test_transient_failure_retried_then_done(self, monkeypatch):
        real = batching_module.verify_many
        failures = {"left": 1}

        def flaky(specs, options, trace_parents=None):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("worker pool died")
            return real(specs, options, trace_parents=trace_parents)

        monkeypatch.setattr(batching_module, "verify_many", flaky)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), stats=stats)
            job = await queue.submit("verify", verify_payload(make_spec()))
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.DONE
            assert job.attempts == 2
            assert stats.retries == 1

        asyncio.run(body())

    def test_persistent_failure_exhausts_retries(self, monkeypatch):
        def broken(specs, options, trace_parents=None):
            raise RuntimeError("backend permanently broken")

        monkeypatch.setattr(batching_module, "verify_many", broken)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), stats=stats)
            job = await queue.submit(
                "verify", verify_payload(make_spec()), max_retries=1
            )
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.FAILED
            assert "permanently broken" in job.error
            assert job.attempts == 2
            assert stats.failures == 1

        asyncio.run(body())


class TestDeadline:
    def test_expired_job_never_reaches_solver(self, monkeypatch):
        calls = []
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)

        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions())
            job = await queue.submit(
                "verify", verify_payload(make_spec()), deadline=0.0
            )
            await asyncio.sleep(0.005)
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.TIMEOUT

        asyncio.run(body())
        assert calls == []


class TestBatchStats:
    def test_histogram_and_percentiles(self):
        stats = BatchStats()
        stats.observe_batch(3)
        stats.observe_batch(3)
        stats.observe_batch(1)
        for latency in (0.1, 0.2, 0.3, 0.4):
            stats.observe_latency(latency)
        snap = stats.snapshot()
        assert snap["batch_size_histogram"] == {"1": 1, "3": 2}
        assert snap["jobs"] == 7
        assert snap["latency_p50"] == pytest.approx(0.2, abs=0.11)
        assert snap["latency_p95"] == pytest.approx(0.4, abs=0.11)

    def test_empty_percentiles_are_none(self):
        snap = BatchStats().snapshot()
        assert snap["latency_p50"] is None and snap["latency_p95"] is None


class TestSharedOfflinePath:
    def test_matches_verify_many(self):
        from repro.runtime import verify_many

        specs = [make_spec(bus) for bus in (4, 9, 13)]
        direct = verify_many(specs, RuntimeOptions())
        batched = verify_specs_batched(specs, RuntimeOptions())
        for a, b in zip(direct, batched):
            assert a.outcome == b.outcome
            assert a.attack == b.attack

    def test_batch_stats(self):
        specs = [make_spec(9), make_spec(9), make_spec(13)]
        stats = BatchStats()
        cache = ResultCache()
        results = verify_specs_batched(specs, RuntimeOptions(cache=cache), stats=stats)
        assert len(results) == 3
        # [9, 9, 13]: two solves + one in-batch dedup
        assert stats.solver_calls == 2
        assert stats.dedup_hits == 1

    def test_cached_duplicates_are_one_cache_hit(self):
        spec = make_spec()
        stats = BatchStats()
        cache = ResultCache()
        options = RuntimeOptions(cache=cache)
        verify_specs_batched([spec], options)
        results = verify_specs_batched([spec, spec], options, stats=stats)
        assert all(r.statistics.get("cache_hit") == 1 for r in results)
        assert results[0].statistics is not results[1].statistics
        # one lookup for the fingerprint, the copy is an in-batch dedup
        assert cache.stats.hits == stats.cache_hits == 1
        assert stats.dedup_hits == 1
        assert stats.solver_calls == 0

    def test_sweep_goes_through_batching(self):
        from repro.analysis.sweeps import verification_sweep

        rows_serial = verification_sweep(["ieee14"], targets_per_case=2)
        rows_batched = verification_sweep(
            ["ieee14"], targets_per_case=2, runtime=RuntimeOptions()
        )
        assert [(n, t, r.outcome) for n, t, r in rows_serial] == [
            (n, t, r.outcome) for n, t, r in rows_batched
        ]

    def test_empty_specs(self):
        assert verify_specs_batched([], RuntimeOptions()) == []
