"""Job queue: ordering, lifecycle, deadlines, cancellation, retry bookkeeping."""

import asyncio

import pytest

from repro.service.jobs import JobQueue, JobState, QueueFull


def run(coro):
    return asyncio.run(coro)


class TestOrdering:
    def test_fifo_within_priority(self):
        async def body():
            queue = JobQueue()
            a = await queue.submit("verify", {"n": 1})
            b = await queue.submit("verify", {"n": 2})
            assert (await queue.take()) is a
            assert (await queue.take()) is b

        run(body())

    def test_lower_priority_number_runs_first(self):
        async def body():
            queue = JobQueue()
            late = await queue.submit("verify", {}, priority=5)
            urgent = await queue.submit("verify", {}, priority=-1)
            normal = await queue.submit("verify", {}, priority=0)
            order = [await queue.take() for _ in range(3)]
            assert order == [urgent, normal, late]

        run(body())

    def test_take_nowait_on_empty_queue(self):
        async def body():
            queue = JobQueue()
            assert queue.take_nowait() is None

        run(body())


class TestLifecycle:
    def test_queued_running_done(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})
            assert job.state is JobState.QUEUED
            assert queue.depth() == 1

            taken = await queue.take()
            assert taken is job
            assert job.state is JobState.RUNNING
            assert job.attempts == 1
            assert queue.depth() == 0 and queue.running() == 1

            queue.finish(job, JobState.DONE, result={"outcome": "sat"})
            assert job.state is JobState.DONE
            assert job.done.is_set()
            assert job.finished_at is not None
            assert queue.unfinished() == 0
            assert queue.counters["done"] == 1

        run(body())

    def test_finish_requires_terminal_state(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})
            with pytest.raises(ValueError):
                queue.finish(job, JobState.RUNNING)

        run(body())

    def test_finish_is_idempotent(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})
            await queue.take()
            queue.finish(job, JobState.DONE, result={})
            queue.finish(job, JobState.FAILED, error="late failure ignored")
            assert job.state is JobState.DONE
            assert queue.counters["failed"] == 0

        run(body())

    def test_wait_returns_terminal_job(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})

            async def finisher():
                taken = await queue.take()
                await asyncio.sleep(0.01)
                queue.finish(taken, JobState.DONE, result={})

            task = asyncio.create_task(finisher())
            waited = await queue.wait(job.id, timeout=5.0)
            await task
            assert waited is job and waited.state is JobState.DONE

        run(body())

    def test_describe_is_json_view(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, priority=2)
            view = job.describe()
            assert view["state"] == "queued"
            assert view["priority"] == 2
            assert "result" not in view

        run(body())


class TestDeadlines:
    def test_expired_job_times_out_at_dispatch(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, deadline=0.0)
            await asyncio.sleep(0.005)
            assert queue.take_nowait() is None  # never dispatched
            assert job.state is JobState.TIMEOUT
            assert "deadline" in job.error
            assert queue.counters["timeout"] == 1

        run(body())

    def test_expired_job_times_out_on_get(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, deadline=0.0)
            await asyncio.sleep(0.005)
            seen = queue.get(job.id)
            assert seen is job and seen.state is JobState.TIMEOUT

        run(body())

    def test_future_deadline_does_not_expire(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, deadline=60.0)
            assert (await queue.take()) is job

        run(body())


class TestCancelAndLimits:
    def test_cancelled_job_is_skipped(self):
        async def body():
            queue = JobQueue()
            victim = await queue.submit("verify", {"n": 1})
            survivor = await queue.submit("verify", {"n": 2})
            assert queue.cancel(victim.id)
            assert victim.state is JobState.CANCELLED
            assert (await queue.take()) is survivor

        run(body())

    def test_cannot_cancel_running_job(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})
            await queue.take()
            assert not queue.cancel(job.id)
            assert job.state is JobState.RUNNING

        run(body())

    def test_queue_full(self):
        async def body():
            queue = JobQueue(max_depth=2)
            await queue.submit("verify", {})
            await queue.submit("verify", {})
            with pytest.raises(QueueFull):
                await queue.submit("verify", {})

        run(body())

    def test_finished_jobs_pruned_beyond_max_finished(self):
        async def body():
            queue = JobQueue(max_finished=2)
            ids = []
            for _ in range(4):
                job = await queue.submit("verify", {})
                await queue.take()
                queue.finish(job, JobState.DONE, result={})
                ids.append(job.id)
            assert queue.get(ids[0]) is None
            assert queue.get(ids[-1]) is not None

        run(body())


class TestFairness:
    def test_clients_interleave_instead_of_fifo_starvation(self):
        """A heavy sweep queued first must not starve an interactive
        client: dispatch interleaves the streams round-robin-by-rank."""

        async def body():
            queue = JobQueue()
            sweep = [
                await queue.submit("verify", {"n": i}, client="sweep")
                for i in range(3)
            ]
            probe = await queue.submit("verify", {}, client="interactive")
            order = [await queue.take() for _ in range(4)]
            # rank 0: sweep[0] then probe (FIFO within rank); rank 1+: rest
            assert order == [sweep[0], probe, sweep[1], sweep[2]]

        run(body())

    def test_fifo_within_one_client(self):
        async def body():
            queue = JobQueue()
            jobs = [
                await queue.submit("verify", {"n": i}, client="c") for i in range(4)
            ]
            taken = [await queue.take() for _ in range(4)]
            assert taken == jobs

        run(body())

    def test_priority_dominates_fairness(self):
        async def body():
            queue = JobQueue()
            await queue.submit("verify", {}, client="sweep")
            urgent = await queue.submit("verify", {}, priority=-10, client="monitor")
            assert (await queue.take()) is urgent

        run(body())

    def test_anonymous_submitters_share_one_bucket(self):
        async def body():
            queue = JobQueue()
            a = await queue.submit("verify", {"n": 1})
            named = await queue.submit("verify", {}, client="c")
            b = await queue.submit("verify", {"n": 2})
            # anonymous jobs rank as one client; "c" interleaves at rank 0
            assert [await queue.take() for _ in range(3)] == [a, named, b]

        run(body())

    def test_per_client_cap_is_queue_full(self):
        async def body():
            queue = JobQueue(max_per_client=2)
            await queue.submit("verify", {}, client="greedy")
            await queue.submit("verify", {}, client="greedy")
            with pytest.raises(QueueFull) as excinfo:
                await queue.submit("verify", {}, client="greedy")
            assert "max_queue_per_client" in str(excinfo.value)
            # other clients are unaffected
            other = await queue.submit("verify", {}, client="modest")
            assert other.state is JobState.QUEUED

        run(body())

    def test_per_client_count_released_on_dispatch_and_cancel(self):
        async def body():
            queue = JobQueue(max_per_client=1)
            first = await queue.submit("verify", {}, client="c")
            await queue.take()  # dispatch frees the slot
            second = await queue.submit("verify", {}, client="c")
            assert queue.cancel(second.id)  # cancellation frees it too
            third = await queue.submit("verify", {}, client="c")
            assert third.state is JobState.QUEUED
            assert first.state is JobState.RUNNING

        run(body())

    def test_snapshot_reports_per_client_depths(self):
        async def body():
            queue = JobQueue(max_per_client=5)
            await queue.submit("verify", {}, client="sweep")
            await queue.submit("verify", {}, client="sweep")
            await queue.submit("verify", {})
            snapshot = queue.snapshot()
            assert snapshot["depth_by_client"] == {"sweep": 2, "(anonymous)": 1}
            assert snapshot["max_per_client"] == 5

        run(body())

    def test_client_appears_in_describe(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, client="monitor")
            assert job.describe()["client"] == "monitor"
            anonymous = await queue.submit("verify", {})
            assert "client" not in anonymous.describe()

        run(body())


class TestRequeue:
    def test_requeue_preserves_attempts(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {}, max_retries=2)
            first = await queue.take()
            assert first.attempts == 1
            await queue.requeue(first)
            assert job.state is JobState.QUEUED
            again = await queue.take()
            assert again is job and again.attempts == 2
            assert queue.counters["retried"] == 1

        run(body())

    def test_join_waits_for_idle(self):
        async def body():
            queue = JobQueue()
            job = await queue.submit("verify", {})
            await queue.take()

            async def finisher():
                await asyncio.sleep(0.01)
                queue.finish(job, JobState.DONE, result={})

            task = asyncio.create_task(finisher())
            await asyncio.wait_for(queue.join(), timeout=5.0)
            await task
            assert queue.unfinished() == 0

        run(body())
