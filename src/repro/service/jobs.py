"""Asyncio job queue for the verification service.

Every request the HTTP layer accepts becomes a :class:`Job`: a kind
(``"verify"`` or ``"synthesize"``), a JSON-able payload, a priority, an
optional deadline, a bounded retry budget and an optional **client
identity**.  The queue hands jobs to the batching scheduler in
``(priority, client fair-rank, arrival)`` order and tracks the full
lifecycle::

    queued -> running -> done
                      -> failed      (exhausted retries)
             queued   -> cancelled   (client cancelled before dispatch)
             queued   -> timeout     (deadline expired before dispatch)
             running  -> timeout     (result arrived after the deadline)

States are deliberately terminal-or-not: a terminal job never changes
again, and its ``done`` event is set exactly once, so HTTP handlers can
``await`` completion without polling.  Deadlines and **all durations**
use ``time.monotonic`` — wall-clock jumps never expire a job, and the
queue-wait/run-latency numbers fed to the metrics histograms can never
go negative under a clock adjustment.  Wall-clock timestamps are kept
alongside purely for display in ``describe()``.

**Per-client fairness.**  The fair-rank component of the dispatch key
is the number of jobs the submitting client already had queued at
submission time, so the streams of different clients *interleave*: a
sweep that enqueues 500 jobs holds ranks 0..499 while an interactive
probe arriving later gets rank 0 and dispatches after at most one of
the sweep's jobs at the same priority.  Priorities still dominate —
the monitor's ``-10`` re-verification probes always jump the line —
and a single client's jobs stay FIFO.  ``max_per_client`` adds
admission control on top: a client at its queued-job cap is refused
with :class:`QueueFull` (the HTTP layer answers 429 ``queue_full``)
instead of monopolising the queue.  Anonymous submissions share one
fairness bucket; callers that want an independent budget identify
themselves.

Every job carries the span context of the request that submitted it
(``job.trace``) plus its own lifecycle span, so the trace tree connects
``http.request -> job -> pool.task -> solver`` across the queue hop.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.trace import context_payload, get_tracer

_M_SUBMITTED = obs_metrics.counter(
    "repro_jobs_submitted_total", "Jobs accepted by the queue", labels=("kind",)
)
_M_FINISHED = obs_metrics.counter(
    "repro_jobs_finished_total",
    "Jobs reaching a terminal state",
    labels=("kind", "state"),
)
_M_RETRIED = obs_metrics.counter(
    "repro_jobs_retried_total", "Failed attempts put back in line"
)
_M_DEPTH = obs_metrics.gauge(
    "repro_queue_depth", "Jobs waiting for dispatch right now"
)
_M_RUNNING = obs_metrics.gauge(
    "repro_queue_running", "Jobs currently executing"
)
_M_QUEUE_WAIT = obs_metrics.histogram(
    "repro_queue_wait_seconds", "Submit-to-dispatch wait (monotonic)"
)
_M_RUN = obs_metrics.histogram(
    "repro_job_run_seconds",
    "Dispatch-to-terminal runtime (monotonic)",
    labels=("kind",),
)


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}
)


class QueueFull(RuntimeError):
    """The queue is at ``max_depth``; the caller should shed load (503)."""


@dataclass
class Job:
    """One unit of service work and its observable lifecycle."""

    id: str
    kind: str
    payload: Dict[str, Any]
    priority: int = 0  # smaller runs sooner
    deadline: Optional[float] = None  # absolute time.monotonic()
    max_retries: int = 1
    client: Optional[str] = None  # fairness/admission identity
    state: JobState = JobState.QUEUED
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    # wall clocks, for human display only
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # monotonic clocks, the single source of truth for durations
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    trace: Optional[Dict[str, str]] = field(default=None, repr=False)
    span: Any = field(default=None, repr=False)
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def queue_wait_seconds(self) -> Optional[float]:
        """Submit-to-dispatch wait; None while still queued."""
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.submitted_mono)

    def run_seconds(self) -> Optional[float]:
        """Dispatch-to-terminal runtime; None before both ends exist."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return max(0.0, self.finished_mono - self.started_mono)

    def total_seconds(self) -> Optional[float]:
        """Submit-to-terminal latency; None while not terminal."""
        if self.finished_mono is None:
            return None
        return max(0.0, self.finished_mono - self.submitted_mono)

    def describe(self) -> Dict[str, Any]:
        """The JSON view served by ``GET /v1/jobs/<id>``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state.value,
            "priority": self.priority,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_wait_seconds": self.queue_wait_seconds(),
            "run_seconds": self.run_seconds(),
        }
        if self.client is not None:
            out["client"] = self.client
        if self.trace is not None:
            out["trace_id"] = self.trace.get("trace_id")
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


class JobQueue:
    """Priority FIFO with lifecycle bookkeeping and completion events.

    ``submit``/``take``/``take_nowait``/``requeue``/``finish`` must all
    run on one event loop (the service's); cross-thread callers go
    through the HTTP API or ``loop.call_soon_threadsafe``.  Terminal
    jobs stay queryable until ``max_finished`` later completions push
    them out.
    """

    def __init__(
        self,
        max_depth: int = 10_000,
        max_finished: int = 4096,
        max_per_client: Optional[int] = None,
    ) -> None:
        if max_per_client is not None and max_per_client < 1:
            raise ValueError("max_per_client must be positive (or None)")
        self.max_depth = max_depth
        self.max_finished = max_finished
        self.max_per_client = max_per_client
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, int, str]] = []
        self._queued_by_client: Dict[str, int] = {}
        self._seq = itertools.count()
        self._cond = asyncio.Condition()
        self._finished_order: Deque[str] = deque()
        self._unfinished = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: optional hook invoked as ``on_terminal(job, state_value)`` on
        #: every terminal transition (flight recorder, SLO bookkeeping);
        #: exceptions are swallowed so a hook can never wedge a job
        self.on_terminal: Optional[Callable[[Job, str], None]] = None
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "retried": 0,
            **{state.value: 0 for state in _TERMINAL},
        }

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Jobs waiting for dispatch (cancelled/expired not yet reaped count)."""
        return sum(1 for job in self._jobs.values() if job.state is JobState.QUEUED)

    def depth_by_priority(self) -> Dict[str, int]:
        """Queued-job count per priority level (str keys: JSON object).

        Smaller priorities dispatch sooner, so this shows at a glance
        whether e.g. a monitor's ``-10`` re-verification probes are
        jumping ahead of batch traffic at ``0``.
        """
        depths: Dict[str, int] = {}
        for job in self._jobs.values():
            if job.state is JobState.QUEUED:
                key = str(job.priority)
                depths[key] = depths.get(key, 0) + 1
        return dict(sorted(depths.items(), key=lambda item: int(item[0])))

    def depth_by_client(self) -> Dict[str, int]:
        """Live queued-job count per fairness bucket (``/statsz``)."""
        return {
            client or "(anonymous)": count
            for client, count in sorted(self._queued_by_client.items())
            if count > 0
        }

    def running(self) -> int:
        return sum(1 for job in self._jobs.values() if job.state is JobState.RUNNING)

    def unfinished(self) -> int:
        return self._unfinished

    def get(self, job_id: str) -> Optional[Job]:
        """Look a job up, lazily expiring it if its deadline has passed."""
        job = self._jobs.get(job_id)
        if job is not None and job.state is JobState.QUEUED and job.expired():
            self._finish(job, JobState.TIMEOUT, error="deadline expired in queue")
        return job

    # ------------------------------------------------------------------
    def _fair_rank(self, job: Job) -> int:
        """The client's current queued count, then count this job in.

        Used as the middle component of the dispatch key: a client's
        n-th queued job ranks behind every other client's first.
        """
        bucket = job.client or ""
        rank = self._queued_by_client.get(bucket, 0)
        self._queued_by_client[bucket] = rank + 1
        return rank

    def _leave_queue(self, job: Job) -> None:
        """Bookkeeping for a job transitioning out of ``QUEUED``."""
        bucket = job.client or ""
        remaining = self._queued_by_client.get(bucket, 0) - 1
        if remaining > 0:
            self._queued_by_client[bucket] = remaining
        else:
            self._queued_by_client.pop(bucket, None)

    async def submit(
        self,
        kind: str,
        payload: Dict[str, Any],
        priority: int = 0,
        deadline: Optional[float] = None,
        max_retries: int = 1,
        client: Optional[str] = None,
    ) -> Job:
        """Enqueue a job; ``deadline`` is seconds from now (monotonic).

        ``client`` names the submitting party for fairness and per-client
        admission control; anonymous jobs share one bucket.
        """
        if self.depth() >= self.max_depth:
            raise QueueFull(f"queue depth at max_depth={self.max_depth}")
        if (
            self.max_per_client is not None
            and self._queued_by_client.get(client or "", 0) >= self.max_per_client
        ):
            who = repr(client) if client else "anonymous clients"
            raise QueueFull(
                f"{who} at max_queue_per_client={self.max_per_client}"
            )
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            payload=payload,
            priority=priority,
            deadline=None if deadline is None else time.monotonic() + deadline,
            max_retries=max_retries,
            client=client,
        )
        # the job span parents to the submitting request's span (if any)
        # and lives until the job is terminal; pool tasks parent to it
        job.span = get_tracer().start_span(
            "job", kind=kind, job_id=job.id, priority=priority
        )
        job.trace = job.span.context_payload()
        self._jobs[job.id] = job
        self._unfinished += 1
        self._idle.clear()
        self.counters["submitted"] += 1
        _M_SUBMITTED.inc(kind=kind)
        _M_DEPTH.inc()
        rank = self._fair_rank(job)
        async with self._cond:
            heapq.heappush(
                self._heap, (job.priority, rank, next(self._seq), job.id)
            )
            self._cond.notify()
        return job

    async def take(self) -> Job:
        """Wait for the next runnable job and pop it (see :meth:`take_nowait`)."""
        async with self._cond:
            while True:
                job = self.take_nowait()
                if job is not None:
                    return job
                await self._cond.wait()

    def take_nowait(self) -> Optional[Job]:
        """Pop the next runnable job; ``None`` when none is queued.

        Cancelled entries are skipped; queued jobs past their deadline
        transition to ``timeout`` here instead of running.
        """
        while self._heap:
            _, _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                continue  # cancelled (or already reaped) while waiting
            if job.expired():
                self._finish(job, JobState.TIMEOUT, error="deadline expired in queue")
                continue
            self._leave_queue(job)
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.started_mono = time.monotonic()
            job.attempts += 1
            _M_DEPTH.dec()
            _M_RUNNING.inc()
            wait = job.queue_wait_seconds()
            if wait is not None:
                _M_QUEUE_WAIT.observe(wait)
            return job
        return None

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs are past cancelling."""
        job = self._jobs.get(job_id)
        if job is None or job.state is not JobState.QUEUED:
            return False
        self._finish(job, JobState.CANCELLED)
        return True

    async def requeue(self, job: Job) -> None:
        """Put a failed-attempt job back in line (retry path)."""
        job.state = JobState.QUEUED
        self.counters["retried"] += 1
        _M_RETRIED.inc()
        _M_RUNNING.dec()
        _M_DEPTH.inc()
        rank = self._fair_rank(job)
        async with self._cond:
            heapq.heappush(
                self._heap, (job.priority, rank, next(self._seq), job.id)
            )
            self._cond.notify()

    def finish(
        self,
        job: Job,
        state: JobState,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move a job to a terminal state and wake every waiter."""
        if not state.terminal:
            raise ValueError(f"finish() requires a terminal state, got {state}")
        self._finish(job, state, result=result, error=error)

    def _finish(
        self,
        job: Job,
        state: JobState,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        if job.state.terminal:
            return
        was_running = job.state is JobState.RUNNING
        if job.state is JobState.QUEUED:
            self._leave_queue(job)
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        job.done.set()
        self.counters[state.value] += 1
        _M_FINISHED.inc(kind=job.kind, state=state.value)
        if was_running:
            _M_RUNNING.dec()
            run = job.run_seconds()
            if run is not None:
                _M_RUN.observe(
                    run,
                    exemplar=(job.trace or {}).get("trace_id"),
                    kind=job.kind,
                )
        else:
            _M_DEPTH.dec()
        if job.span is not None:
            job.span.set(
                state=state.value,
                attempts=job.attempts,
                queue_wait_seconds=job.queue_wait_seconds(),
                run_seconds=job.run_seconds(),
            )
            if error is not None:
                job.span.set(error=error)
            job.span.finish(
                status="ok" if state is JobState.DONE else state.value
            )
        self._unfinished -= 1
        if self._unfinished == 0:
            self._idle.set()
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.max_finished:
            stale = self._finished_order.popleft()
            self._jobs.pop(stale, None)
        if self.on_terminal is not None:
            try:
                self.on_terminal(job, state.value)
            except Exception:
                pass

    # ------------------------------------------------------------------
    async def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Await a job's terminal state; ``None`` if still running at timeout."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        try:
            await asyncio.wait_for(job.done.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        return job

    async def join(self) -> None:
        """Block until no job is queued or running (graceful drain)."""
        await self._idle.wait()

    def snapshot(self) -> Dict[str, Any]:
        """Counters + live depth for ``/statsz``."""
        return {
            "depth": self.depth(),
            "depth_by_priority": self.depth_by_priority(),
            "depth_by_client": self.depth_by_client(),
            "max_per_client": self.max_per_client,
            "running": self.running(),
            "unfinished": self._unfinished,
            "tracked": len(self._jobs),
            **self.counters,
        }
