"""Batching scheduler: run whatever is queued as one ``verify_many`` batch.

Individually-submitted verification requests are tiny; the runtime's
batch executor is happiest with many instances at once (one pool
spin-up, in-batch dedup, one cache sweep).  The scheduler bridges the
two shapes without a timer: whenever it is free it waits for one job,
takes every other job that is already runnable (up to
:data:`MAX_BATCH`), and executes the whole batch as a single
:func:`repro.runtime.verify_many` call in a worker thread, so the event
loop keeps serving HTTP while solvers run.  Requests that arrive while
a batch runs queue up and form the next batch.

Identical concurrent requests cost one solver invocation: in-batch
duplicates collapse via the canonical spec fingerprint inside
``verify_many``, and those that miss a running batch land in the next
one as hits on the shared :class:`~repro.runtime.cache.ResultCache`.

:func:`verify_specs_batched` is the same execution path exposed as a
plain function — the offline sweeps
(:func:`repro.analysis.sweeps.verification_sweep`) run through it, so
the service and the benchmarks exercise one engine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from collections import deque
from fractions import Fraction
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.spec import AttackSpec
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.core.verification import VerificationResult
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.trace import get_tracer
from repro.runtime import RuntimeOptions, spec_fingerprint, verify_many
from repro.runtime.serialize import (
    attack_to_payload,
    payload_to_spec,
    result_to_payload,
)
from repro.service.jobs import Job, JobQueue, JobState

_LOG = get_logger("repro.service.batching")

#: most jobs one batch takes; bounds how long a priority -10 monitor
#: probe waits behind a full batch
MAX_BATCH = 64

_M_BATCH_SIZE = obs_metrics.histogram(
    "repro_batch_size",
    "Jobs coalesced into one scheduler batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
_M_BATCH_JOBS = obs_metrics.counter(
    "repro_batch_jobs_total",
    "Verify jobs by how the batch answered them",
    labels=("path",),  # dedup | cache | solver
)
_M_BATCH_RETRIES = obs_metrics.counter(
    "repro_batch_retries_total", "Batch attempts retried after a failure"
)
_M_BATCH_FAILURES = obs_metrics.counter(
    "repro_batch_failures_total", "Jobs failed after exhausting retries"
)


class BatchStats:
    """Counters the scheduler exposes through ``GET /statsz``.

    ``dedup_hits``   — jobs answered by another identical job in the
                       same batch (no extra solver work);
    ``cache_hits``   — unique specs answered by the result cache;
    ``solver_calls`` — unique specs that actually reached a solver.
    Latencies are submit-to-finish seconds over a sliding window.
    """

    def __init__(self, latency_window: int = 2048) -> None:
        self.batches = 0
        self.jobs = 0
        self.dedup_hits = 0
        self.cache_hits = 0
        self.solver_calls = 0
        self.retries = 0
        self.failures = 0
        self.size_histogram: Dict[int, int] = {}
        self._latencies: Deque[float] = deque(maxlen=latency_window)

    def observe_batch(self, size: int) -> None:
        self.batches += 1
        self.jobs += size
        self.size_histogram[size] = self.size_histogram.get(size, 0) + 1
        _M_BATCH_SIZE.observe(size)

    def observe_specs(
        self,
        specs: Sequence[AttackSpec],
        results: Sequence[VerificationResult],
        options: RuntimeOptions,
    ) -> None:
        """Attribute a finished ``verify_many`` call to dedup/cache/solver."""
        epsilon = None if options.epsilon is None else Fraction(options.epsilon)
        first_index: Dict[str, int] = {}
        for i, spec in enumerate(specs):
            key = spec_fingerprint(
                spec, backend=options.backend_label(), epsilon=epsilon
            )
            if key in first_index:
                self.dedup_hits += 1
                _M_BATCH_JOBS.inc(path="dedup")
                continue
            first_index[key] = i
            if results[i].statistics.get("cache_hit"):
                self.cache_hits += 1
                _M_BATCH_JOBS.inc(path="cache")
            else:
                self.solver_calls += 1
                _M_BATCH_JOBS.inc(path="solver")

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    @staticmethod
    def _percentile(ordered: List[float], q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self._latencies)
        return {
            "batches": self.batches,
            "jobs": self.jobs,
            "dedup_hits": self.dedup_hits,
            "cache_hits": self.cache_hits,
            "solver_calls": self.solver_calls,
            "retries": self.retries,
            "failures": self.failures,
            "batch_size_histogram": {
                str(size): count for size, count in sorted(self.size_histogram.items())
            },
            "latency_p50": self._percentile(ordered, 0.50) if ordered else None,
            "latency_p95": self._percentile(ordered, 0.95) if ordered else None,
            "latency_samples": len(ordered),
        }


def verify_specs_batched(
    specs: Sequence[AttackSpec],
    options: Optional[RuntimeOptions] = None,
    stats: Optional[BatchStats] = None,
    trace_parents: Optional[Sequence[Optional[Dict[str, str]]]] = None,
) -> List[VerificationResult]:
    """Verify ``specs`` as one :func:`verify_many` batch.

    The single shared execution path for the online scheduler and the
    offline sweeps: dedup, cache and process-pool fan-out per
    ``options``, results in input order, and ``stats`` — when provided —
    credited exactly as the service's ``/statsz`` endpoint reports it.
    ``trace_parents`` (aligned with ``specs``) carries each request's
    span context into the runtime so pool-task and solver spans join
    the right trace.
    """
    options = options or RuntimeOptions()
    results = verify_many(specs, options, trace_parents=trace_parents)
    if stats is not None:
        stats.observe_specs(specs, results, options)
    return results


def _verify_job_options(base: RuntimeOptions, payload: Dict[str, Any]) -> RuntimeOptions:
    """Per-job overrides on top of the service's base options.

    The cache object is shared deliberately: it is what turns repeated
    requests across batches into hits.
    """
    epsilon = payload.get("epsilon")
    portfolio = payload.get("portfolio", base.portfolio)
    if not isinstance(portfolio, str):
        portfolio = bool(portfolio)
    return dataclasses.replace(
        base,
        portfolio=portfolio,
        epsilon=base.epsilon if epsilon is None else Fraction(str(epsilon)),
    )


def _options_key(options: RuntimeOptions) -> Tuple[str, str]:
    epsilon = "" if options.epsilon is None else str(Fraction(options.epsilon))
    return (options.backend_label(), epsilon)


def _run_synthesis(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-thread body for one synthesis job."""
    spec = payload_to_spec(payload["spec"])
    settings_kwargs = dict(payload["settings"])
    settings_kwargs["excluded_buses"] = frozenset(
        settings_kwargs.get("excluded_buses", ())
    )
    settings = SynthesisSettings(**settings_kwargs)
    result = synthesize_architecture(spec, settings)
    return {
        "feasible": result.feasible,
        "architecture": result.architecture,
        "iterations": result.iterations,
        "runtime_seconds": result.runtime_seconds,
        "counterexamples": [
            attack_to_payload(attack) for attack in result.counterexamples
        ],
    }


class BatchingScheduler:
    """Pull jobs from a :class:`JobQueue`, execute them in batches.

    One batch at a time: the collect phase blocks until a first job
    arrives, then takes every job already runnable, up to
    :data:`MAX_BATCH`, without waiting for more; the execute phase runs
    solver work in the event loop's default thread pool executor so
    HTTP handling never blocks.  Failed attempts (a raising solver, a
    dead worker pool) are retried up to each job's ``max_retries``
    before the job goes to ``failed``.
    """

    def __init__(
        self,
        queue: JobQueue,
        options: Optional[RuntimeOptions] = None,
        stats: Optional[BatchStats] = None,
    ) -> None:
        self.queue = queue
        self.options = options or RuntimeOptions()
        self.stats = stats or BatchStats()

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Serve forever; cancel the task to stop."""
        while True:
            await self._execute(await self._collect())

    async def _collect(self) -> List[Job]:
        batch = [await self.queue.take()]
        while len(batch) < MAX_BATCH:
            job = self.queue.take_nowait()
            if job is None:
                break
            batch.append(job)
        return batch

    # ------------------------------------------------------------------
    async def _execute(self, batch: List[Job]) -> None:
        self.stats.observe_batch(len(batch))
        verify_groups: Dict[Tuple[str, str], List[Job]] = {}
        for job in batch:
            if job.kind == "verify":
                options = _verify_job_options(self.options, job.payload)
                verify_groups.setdefault(_options_key(options), []).append(job)
            elif job.kind == "synthesize":
                await self._execute_synthesis(job)
            else:
                self.queue.finish(
                    job, JobState.FAILED, error=f"unknown job kind {job.kind!r}"
                )
        for group in verify_groups.values():
            await self._execute_verify_group(group)

    async def _execute_verify_group(self, group: List[Job]) -> None:
        options = _verify_job_options(self.options, group[0].payload)
        specs = [payload_to_spec(job.payload["spec"]) for job in group]
        trace_parents = [job.trace for job in group]
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None,
                functools.partial(
                    verify_specs_batched,
                    specs,
                    options,
                    stats=self.stats,
                    trace_parents=trace_parents,
                ),
            )
        except Exception as exc:  # worker failure: retry each job, bounded
            for job in group:
                await self._retry_or_fail(job, exc)
            return
        for job, result in zip(group, results):
            self._finish(job, result_to_payload(result))

    async def _execute_synthesis(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, functools.partial(_run_synthesis, job.payload)
            )
        except Exception as exc:
            await self._retry_or_fail(job, exc)
            return
        self._finish(job, result)

    def _finish(self, job: Job, result: Dict[str, Any]) -> None:
        if job.expired():
            self.queue.finish(
                job, JobState.TIMEOUT, error="deadline expired while running"
            )
        else:
            self.queue.finish(job, JobState.DONE, result=result)
        self._observe_finish(job)

    async def _retry_or_fail(self, job: Job, exc: Exception) -> None:
        if job.attempts <= job.max_retries and not job.expired():
            self.stats.retries += 1
            _M_BATCH_RETRIES.inc()
            _LOG.warning(
                "job.retry",
                job_id=job.id,
                kind=job.kind,
                attempt=job.attempts,
                error=f"{type(exc).__name__}: {exc}",
            )
            await self.queue.requeue(job)
        else:
            self.stats.failures += 1
            _M_BATCH_FAILURES.inc()
            _LOG.error(
                "job.failed",
                job_id=job.id,
                kind=job.kind,
                attempts=job.attempts,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.queue.finish(
                job,
                JobState.FAILED,
                error=f"{type(exc).__name__}: {exc} (attempt {job.attempts})",
            )
            self._observe_finish(job)

    def _observe_finish(self, job: Job) -> None:
        # monotonic end-to-end latency: immune to wall-clock adjustment
        latency = job.total_seconds()
        if latency is not None:
            self.stats.observe_latency(latency)
