"""Verification-as-a-service over the parallel runtime.

A long-lived process amortises what the one-shot CLI pays on every
invocation — process-pool spin-up, encoder construction, cold caches —
across an arbitrary stream of requests.  The subsystem is stdlib-only
and splits into five layers:

* :mod:`repro.service.jobs` — an asyncio job queue: IDs, states
  (queued/running/done/failed/cancelled/timeout), priorities, per-job
  deadlines and bounded retry on worker failure;
* :mod:`repro.service.batching` — a batching scheduler that, whenever
  it is free, runs every verify request already queued as one
  :func:`repro.runtime.verify_many` batch, deduplicating identical
  specs via their canonical fingerprints;
* :mod:`repro.service.http` — the JSON HTTP API (``POST /v1/verify``,
  ``POST /v1/synthesize``, ``GET /v1/jobs/<id>``, ``GET /healthz``,
  ``GET /statsz``) with request validation, and the serving core
  (connection handling, lifecycle with graceful drain, SLO loop) that
  the router runs on too;
* :mod:`repro.service.router` — the sharded-cluster tier: a
  consistent-hash router that keeps each spec family on the replica
  holding its warm session, plus the replica supervisor behind
  ``repro serve --replicas N``;
* :mod:`repro.service.client` — a small blocking client (with
  transient-failure retry and endpoint failover) for tests, examples
  and scripts.

``python -m repro.cli serve`` starts the service (``--replicas N`` the
cluster); offline sweeps
(:func:`repro.analysis.sweeps.verification_sweep`) execute through the
same batching code path, so both entry points exercise one engine.
"""

from repro.service.batching import BatchingScheduler, BatchStats, verify_specs_batched
from repro.service.jobs import Job, JobQueue, JobState, QueueFull
from repro.service.router import (
    ClusterSupervisor,
    HashRing,
    ReplicaEndpoint,
    RouterApp,
)

__all__ = [
    "BatchStats",
    "BatchingScheduler",
    "ClusterSupervisor",
    "HashRing",
    "Job",
    "JobQueue",
    "JobState",
    "QueueFull",
    "ReplicaEndpoint",
    "RouterApp",
    "verify_specs_batched",
]
