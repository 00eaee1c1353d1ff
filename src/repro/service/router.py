"""Consistent-hash router + replica supervisor: the sharded service.

One ``repro serve`` process caps throughput at one machine's process
pool and loses every warm session on restart.  This module turns the
service into a small cluster with the same wire protocol:

* :class:`HashRing` — consistent hashing (sha256, virtual nodes) from a
  routing key to a *preference order* over replicas.  The first entry
  owns the key; the rest are the failover order, so a key only moves
  while its owner is down and moves straight back on recovery.
* :class:`RouterApp` — a stdlib-asyncio reverse proxy.  Submissions are
  routed by ``family_fingerprint(spec, epsilon)`` — the same key the
  runtime's warm-session registry uses — so every probe of a spec
  family lands on the replica holding that family's warm
  :class:`~repro.core.verification.VerificationSession`.  Job polls
  follow a job→owner map (with broadcast fallback), incidents live on
  the first replica in ring order, ``/statsz`` aggregates the fleet.
  It is served by the same HTTP core as a replica
  (:func:`repro.service.http.serve_app`).
* :class:`ClusterSupervisor` — spawns N ``repro serve`` subprocesses on
  free ports and restarts any that die on the same port under the same
  replica id (so the ring never changes shape).

``repro serve --replicas N`` (see :mod:`repro.cli`) wires all three
together.  Replicas share one disk cache directory (a temporary one
unless ``--cache-dir`` is given): the :class:`~repro.runtime.cache
.ResultCache` disk tier is multi-process safe, so a failed-over probe
re-asked on a survivor is answered from cache instead of re-solved.

**Failure semantics.**  A forward that cannot reach its replica marks
the replica down and fails over along the preference order within the
same request; a ~0.5 s health loop probes downed replicas back alive.
A replica that accepts a forward but does not answer within
``_FORWARD_TIMEOUT`` is slow, not dead: it stays up, the request is not
re-sent, and the caller gets 502 ``code="replica_error"``.  Requests
pinned to a replica id that is not in the ring are rejected with a
structured 503 ``code="unknown_replica"``; a router with no live
replica answers 503 ``code="no_replicas"``; admission control beyond
``max_inflight`` answers 429 ``code="queue_full"``.

**Tracing.**  The router opens a ``router.request`` span parented on
the caller's ``X-Trace-Context`` and forwards *its own* context to the
replica, so one trace id spans monitor/client → router → replica →
runtime → solver.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.io import parse_spec
from repro.obs import agg as obs_agg
from repro.obs import metrics as obs_metrics
from repro.obs.flight import get_flight_recorder
from repro.obs.logging import get_logger
from repro.obs.slo import SloConfig, SloEvaluator
from repro.obs.trace import get_tracer
from repro.runtime.serialize import (
    canonical_json,
    family_fingerprint,
    payload_to_spec,
)
from repro.service.http import (
    RequestError,
    ServerHandle,
    _cancel,
    _check_method,
    _metric_path,
    _parse_query,
    _read_message,
    _slo_summary,
    _sloz,
    configure_observability,
    slo_loop,
    serve_app,
    start_thread,
)

_LOG = get_logger("repro.router")

#: forwards in flight at once before submissions are shed with 429
_MAX_INFLIGHT = 256
#: seconds between health probes of downed replicas
_HEALTH_INTERVAL = 0.5
#: seconds a replica may take to answer one forward; a ``"wait": true``
#: submission holds its forward open for up to its ``wait_timeout``
_FORWARD_TIMEOUT = 120.0
#: seconds between the supervisor's checks for dead replica processes
_POLL_INTERVAL = 0.5

_M_REQUESTS = obs_metrics.counter(
    "repro_router_requests_total",
    "Router requests by endpoint and answer status",
    labels=("path", "status"),
)
_M_FORWARDS = obs_metrics.counter(
    "repro_router_forwards_total",
    "Requests forwarded to a replica",
    labels=("replica",),
)
_M_FAILOVERS = obs_metrics.counter(
    "repro_router_failovers_total",
    "Forwards retried on another replica after a replica failure, and "
    "submissions answered past a ring owner already marked down",
)


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------
def _hash_point(material: str) -> int:
    return int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes over a fixed member set.

    Membership is static for the life of a cluster (the supervisor
    restarts a dead replica under the same id), so failover is
    expressed as a *preference order* per key rather than ring surgery:
    a key served by its second choice while the owner is down snaps
    back to the owner on recovery — which is exactly what warm-session
    affinity wants.
    """

    def __init__(self, members: Sequence[str], vnodes: int = 64) -> None:
        if not members:
            raise ValueError("HashRing needs at least one member")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.members = sorted(set(members))
        self.vnodes = vnodes
        ring: List[Tuple[int, str]] = []
        for member in self.members:
            for vnode in range(vnodes):
                ring.append((_hash_point(f"{member}#{vnode}"), member))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    def preference(self, key: str) -> List[str]:
        """All members in ring order from ``key``'s position.

        ``preference(key)[0]`` owns the key; the tail is the failover
        order.  Deterministic for a given (members, vnodes, key).
        """
        start = bisect.bisect_right(self._points, _hash_point(key)) % len(self._ring)
        order: List[str] = []
        seen: set = set()
        for offset in range(len(self._ring)):
            member = self._ring[(start + offset) % len(self._ring)][1]
            if member not in seen:
                seen.add(member)
                order.append(member)
                if len(order) == len(self.members):
                    break
        return order

    def owner(self, key: str) -> str:
        return self.preference(key)[0]


# ----------------------------------------------------------------------
# replica endpoints
# ----------------------------------------------------------------------
@dataclass
class ReplicaEndpoint:
    """Where one replica listens, and what the router believes about it."""

    replica_id: str
    host: str
    port: int
    pid: Optional[int] = None
    alive: bool = True
    last_error: Optional[str] = None
    forwarded: int = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "replica_id": self.replica_id,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "alive": self.alive,
            "forwarded": self.forwarded,
            "last_error": self.last_error,
        }


class ReplicaDown(ConnectionError):
    """A forward could not reach (or lost) its replica."""


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class RouterApp:
    """Routing, admission and failover over a fixed set of replicas."""

    role = "router"

    def __init__(
        self,
        replicas: Sequence[ReplicaEndpoint],
        slo_config: Optional[SloConfig] = None,
    ) -> None:
        if not replicas:
            raise ValueError("RouterApp needs at least one replica")
        self.replicas: Dict[str, ReplicaEndpoint] = {
            replica.replica_id: replica for replica in replicas
        }
        if len(self.replicas) != len(replicas):
            raise ValueError("replica ids must be unique")
        self.ring = HashRing(list(self.replicas))
        self.max_inflight = _MAX_INFLIGHT
        self.draining = False
        self.inflight = 0
        self.started_mono = time.monotonic()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "forwarded": 0,
            "failovers": 0,
            "rejected": 0,
            "routed_by_family": 0,
            "routed_by_body": 0,
        }
        # job id -> owning replica id, bounded so a long-lived router
        # cannot grow without bound; misses fall back to broadcast
        self._job_owner: "OrderedDict[str, str]" = OrderedDict()
        self._job_owner_limit = 65_536
        # cluster-level SLO evaluation runs on the router (over the
        # merged scrape) so each burn alert fires exactly once for the
        # whole fleet, not once per replica
        self.slo: Optional[SloEvaluator] = (
            SloEvaluator(slo_config) if slo_config is not None else None
        )
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._tasks.append(asyncio.create_task(self._health_loop()))
        if self.slo is not None:
            self._tasks.append(
                asyncio.create_task(
                    slo_loop(self.slo, self.cluster_metrics, self._file_incident)
                )
            )

    async def drain(self) -> None:
        """Refuse new submissions; stop the health and SLO loops.  The
        replicas drain their own queues when the supervisor stops them."""
        self.draining = True
        await _cancel(self._tasks)

    def log_fields(self) -> Dict[str, Any]:
        """Self-identification stamped on lifecycle log events."""
        return {"replicas": sorted(self.replicas), "counters": dict(self.counters)}

    async def _health_loop(self) -> None:
        """Probe downed replicas back alive (forwards mark them down)."""
        while True:
            await asyncio.sleep(_HEALTH_INTERVAL)
            for replica in list(self.replicas.values()):
                if replica.alive:
                    continue
                try:
                    status, _ = await self._forward(
                        replica, "GET", "/healthz", b"", None
                    )
                except (ReplicaDown, asyncio.TimeoutError):
                    continue
                if status == 200:
                    replica.alive = True
                    replica.last_error = None
                    _LOG.info("router.replica_up", replica=replica.replica_id)

    async def _file_incident(self, payload: Dict[str, Any]) -> None:
        """Post an SLO burn incident to the incident home replica."""
        body = json.dumps(payload).encode("utf-8")
        await self._route_incidents("POST", "/v1/incidents", body, {}, None)

    # ------------------------------------------------------------------
    def _mark_down(self, replica: ReplicaEndpoint, error: Exception) -> ReplicaDown:
        """Record ``replica`` as down; returns the error to raise."""
        detail = f"{type(error).__name__}: {error}"
        if replica.alive:
            _LOG.info("router.replica_down", replica=replica.replica_id, error=detail)
        replica.alive = False
        replica.last_error = detail
        return ReplicaDown(f"replica {replica.replica_id}: {error}")

    async def _forward(
        self,
        replica: ReplicaEndpoint,
        method: str,
        target: str,
        body: bytes,
        parent: Optional[Dict[str, str]],
    ) -> Tuple[int, Any]:
        """One proxied exchange: (status, decoded payload).

        Raises :class:`ReplicaDown`, marking the replica down, when it
        cannot be reached or its answer is torn; raises
        ``asyncio.TimeoutError`` when it stays silent past
        ``_FORWARD_TIMEOUT``.
        """
        try:
            reader, writer = await asyncio.open_connection(replica.host, replica.port)
        except OSError as exc:
            raise self._mark_down(replica, exc) from exc
        try:
            head = (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {replica.host}:{replica.port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
            )
            if parent is not None:
                head += "X-Trace-Context: " + json.dumps(parent) + "\r\n"
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
            answer = await asyncio.wait_for(
                _read_message(reader), timeout=_FORWARD_TIMEOUT
            )
        except asyncio.TimeoutError:
            # a slow replica is alive: it stays up and the request is not
            # re-sent elsewhere (this clause must precede OSError, which
            # TimeoutError subclasses since Python 3.11)
            raise asyncio.TimeoutError(
                f"replica {replica.replica_id}: no answer within "
                f"{_FORWARD_TIMEOUT:g} s"
            ) from None
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            raise self._mark_down(replica, exc) from exc
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        if answer is None or not answer[0][1].isdigit():
            raise self._mark_down(replica, ValueError("truncated/invalid response"))
        status_line, headers, raw = answer
        replica.forwarded += 1
        self.counters["forwarded"] += 1
        _M_FORWARDS.inc(replica=replica.replica_id)
        return int(status_line[1]), _decode_payload(
            raw, headers.get("content-type", "")
        )

    # ------------------------------------------------------------------
    def _route_key(self, raw_body: bytes) -> Tuple[str, str]:
        """(routing key, mode): the spec's family fingerprint when the
        body parses — same key as the warm-session registry, so probes
        of one family share a replica — else a hash of the raw body."""
        try:
            body = json.loads(raw_body)
            if not isinstance(body, dict):
                raise ValueError("not an object")
            if body.get("spec") is not None:
                spec = payload_to_spec(body["spec"])
            elif body.get("spec_text") is not None:
                spec = parse_spec(body["spec_text"])
            else:
                raise ValueError("no spec")
            epsilon = body.get("epsilon")
            fraction = Fraction(str(epsilon)) if epsilon is not None else None
            return family_fingerprint(spec, epsilon=fraction), "family"
        except Exception:
            # malformed bodies still route *somewhere* deterministic so
            # the replica can answer its structured 400
            try:
                material = canonical_json(json.loads(raw_body))
            except Exception:
                material = raw_body.decode("latin-1")
            return hashlib.sha256(material.encode("utf-8")).hexdigest(), "body"

    def _record_owner(self, job_id: str, replica_id: str) -> None:
        self._job_owner[job_id] = replica_id
        self._job_owner.move_to_end(job_id)
        while len(self._job_owner) > self._job_owner_limit:
            self._job_owner.popitem(last=False)

    def _candidates(self, order: Sequence[str]) -> List[ReplicaEndpoint]:
        """Preference order, live replicas first; downed ones kept as a
        last resort (they may have restarted since being marked)."""
        live = [self.replicas[rid] for rid in order if self.replicas[rid].alive]
        down = [self.replicas[rid] for rid in order if not self.replicas[rid].alive]
        return live + down

    def _pinned(self, query: Dict[str, str]) -> Optional[ReplicaEndpoint]:
        pin = query.get("replica")
        if pin is None:
            return None
        replica = self.replicas.get(pin)
        if replica is None:
            raise RequestError(
                f"unknown replica: {pin!r} (cluster has {sorted(self.replicas)})",
                503,
                "unknown_replica",
            )
        return replica

    async def _try_each(
        self,
        candidates: Sequence[ReplicaEndpoint],
        method: str,
        target: str,
        body: bytes,
        parent: Optional[Dict[str, str]],
        past_404: bool = False,
    ) -> Tuple[int, Any, str]:
        """Forward to the first candidate that answers, failing over on
        replica loss — and, with ``past_404``, past candidates that
        answer 404.  Dict answers are stamped with the answering
        ``replica``.  Returns (status, payload, replica id)."""
        answer: Optional[Tuple[int, Any, str]] = None
        last_error: Optional[str] = None
        for index, replica in enumerate(candidates):
            try:
                status, payload = await self._forward(
                    replica, method, target, body, parent
                )
            except ReplicaDown as exc:
                last_error = str(exc)
                if index + 1 < len(candidates):
                    self.counters["failovers"] += 1
                    _M_FAILOVERS.inc()
                continue
            if isinstance(payload, dict):
                payload.setdefault("replica", replica.replica_id)
            answer = (status, payload, replica.replica_id)
            if not (past_404 and status == 404):
                return answer
        if answer is not None:
            return answer
        detail = f" (last error: {last_error})" if last_error else ""
        raise RequestError(f"no live replicas{detail}", 503, "no_replicas")

    async def fan_out(
        self, target: str, parent: Optional[Dict[str, str]]
    ) -> Dict[str, Any]:
        """``GET target`` on every replica at once: replica id -> its
        decoded 200 answer, or ``{"error": ...}`` when it failed."""

        async def one(replica: ReplicaEndpoint) -> Any:
            try:
                status, payload = await self._forward(
                    replica, "GET", target, b"", parent
                )
            except (ReplicaDown, asyncio.TimeoutError) as exc:
                return {"error": str(exc)}
            return payload if status == 200 else {"error": payload}

        replicas = [self.replicas[rid] for rid in sorted(self.replicas)]
        answers = await asyncio.gather(*(one(replica) for replica in replicas))
        return {
            replica.replica_id: answer for replica, answer in zip(replicas, answers)
        }

    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        target: str,
        raw_body: bytes,
        parent: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """Route one request; returns (status, JSON-able payload)."""
        path, _, raw_query = target.partition("?")
        endpoint = _metric_path(path)
        self.counters["requests"] += 1
        with get_tracer().span(
            "router.request", parent=parent, method=method, path=path
        ) as span:
            # forward the router span's own context (fall back to the
            # caller's when tracing is off) so replica http.request
            # spans join the same trace, one hop deeper
            downstream = span.context_payload() or parent
            try:
                status, payload = await self._route(
                    method,
                    endpoint,
                    path,
                    target,
                    raw_body,
                    _parse_query(raw_query),
                    downstream,
                )
            except RequestError as exc:
                self.counters["rejected"] += 1
                status, payload = exc.status, {"error": str(exc), "code": exc.code}
            except asyncio.TimeoutError as exc:
                status, payload = 502, {
                    "error": f"replica failure: {exc}",
                    "code": "replica_error",
                }
            span.set(status=status)
        _M_REQUESTS.inc(path=endpoint, status=status)
        return status, payload

    async def _route(
        self,
        method: str,
        endpoint: str,
        path: str,
        target: str,
        raw_body: bytes,
        query: Dict[str, str],
        parent: Optional[Dict[str, str]],
    ) -> Tuple[int, Any]:
        _check_method(endpoint, method)
        if endpoint == "/healthz":
            return self._healthz()
        if endpoint == "/clusterz":
            return 200, self.clusterz()
        if endpoint == "/clusterz/metrics":
            return 200, await self.cluster_metrics(parent)
        if endpoint == "/statsz":
            return 200, await self.statsz(parent)
        if endpoint == "/metricsz":
            return 200, obs_metrics.get_registry().render_prometheus()
        if endpoint == "/sloz":
            return 200, _sloz(self.slo)
        if endpoint == "/debugz/flight":
            replicas = await self.fan_out(target, parent)
            return 200, {
                "role": "router",
                "router": get_flight_recorder().payload(query.get("trace_id")),
                "replicas": replicas,
            }
        if endpoint in ("/v1/verify", "/v1/synthesize"):
            return await self._route_submission(method, target, raw_body, query, parent)
        if endpoint == "/v1/jobs/:id":
            return await self._route_job_poll(path, target, raw_body, query, parent)
        if endpoint == "/v1/incidents":
            return await self._route_incidents(method, target, raw_body, query, parent)
        raise RequestError(f"no such endpoint: {path}", 404, "not_found")

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        live = sorted(r.replica_id for r in self.replicas.values() if r.alive)
        payload = {
            "status": "draining" if self.draining else ("ok" if live else "down"),
            "role": "router",
            "uptime_seconds": time.monotonic() - self.started_mono,
            "replicas": {rid: r.alive for rid, r in sorted(self.replicas.items())},
            "live_replicas": len(live),
        }
        if not live:
            # keep wait_until_ready() polling until a replica answers
            payload["code"] = "no_replicas"
            return 503, payload
        return 200, payload

    def clusterz(self) -> Dict[str, Any]:
        """Cluster topology: replicas (with pids, for chaos tests) + ring."""
        return {
            "role": "router",
            "replicas": [
                replica.describe()
                for _, replica in sorted(self.replicas.items())
            ],
            "ring": {"members": self.ring.members, "vnodes": self.ring.vnodes},
            "counters": dict(self.counters),
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "draining": self.draining,
            "job_owners": len(self._job_owner),
            "slo": _slo_summary(self.slo),
            "flight": get_flight_recorder().enabled,
        }

    async def statsz(self, parent: Optional[Dict[str, str]]) -> Dict[str, Any]:
        """Router counters plus every replica's ``/statsz``."""
        replicas = await self.fan_out("/statsz", parent)
        return {
            "role": "router",
            "uptime_seconds": time.monotonic() - self.started_mono,
            "counters": dict(self.counters),
            "inflight": self.inflight,
            "replicas": replicas,
        }

    async def cluster_metrics(self, parent: Optional[Dict[str, str]] = None) -> str:
        """``GET /clusterz/metrics``: one merged Prometheus exposition.

        Every reachable replica's ``/metricsz`` is scraped and merged
        (counters summed, gauges last-write in replica-id order,
        histograms re-bucketed onto the union of bounds) with the
        router's own registry included as replica ``router``; per-series
        provenance is preserved under a ``replica`` label.
        """
        scrapes = {
            replica_id: answer
            for replica_id, answer in (await self.fan_out("/metricsz", parent)).items()
            if isinstance(answer, str)
        }
        scrapes["router"] = obs_metrics.get_registry().render_prometheus()
        return obs_agg.merge_exposition(scrapes)

    # ------------------------------------------------------------------
    async def _route_submission(
        self,
        method: str,
        target: str,
        raw_body: bytes,
        query: Dict[str, str],
        parent: Optional[Dict[str, str]],
    ) -> Tuple[int, Any]:
        if self.draining:
            raise RequestError(
                "router is draining; not accepting jobs", 503, "draining"
            )
        if self.inflight >= self.max_inflight:
            # counted once, where handle() answers the RequestError
            raise RequestError(
                f"router at max_inflight={self.max_inflight}", 429, "queue_full"
            )
        pinned = self._pinned(query)
        owner: Optional[str] = None
        if pinned is not None:
            candidates: List[ReplicaEndpoint] = [pinned]
        else:
            key, mode = self._route_key(raw_body)
            self.counters[f"routed_by_{mode}"] += 1
            order = self.ring.preference(key)
            owner = order[0]
            candidates = self._candidates(order)
        self.inflight += 1
        try:
            status, payload, replica_id = await self._try_each(
                candidates, method, target, raw_body, parent
            )
        finally:
            self.inflight -= 1
        if owner not in (None, candidates[0].replica_id, replica_id):
            # the owner was already marked down, so the walk passed it
            # without a failed forward: the same failover, counted once
            self.counters["failovers"] += 1
            _M_FAILOVERS.inc()
        if (
            status in (200, 202)
            and isinstance(payload, dict)
            and isinstance(payload.get("id"), str)
        ):
            self._record_owner(payload["id"], replica_id)
        return status, payload

    async def _route_job_poll(
        self,
        path: str,
        target: str,
        raw_body: bytes,
        query: Dict[str, str],
        parent: Optional[Dict[str, str]],
    ) -> Tuple[int, Any]:
        job_id = path[len("/v1/jobs/") :]
        pinned = self._pinned(query)
        if pinned is not None:
            candidates: List[ReplicaEndpoint] = [pinned]
        else:
            # owner first; the rest as broadcast fallback (the owner may
            # have restarted and lost the job from memory)
            order = sorted(self.replicas)
            owner = self._job_owner.get(job_id)
            if owner in self.replicas:
                order.remove(owner)
                order.insert(0, owner)
            candidates = self._candidates(order)
        status, payload, replica_id = await self._try_each(
            candidates, "GET", target, raw_body, parent, past_404=True
        )
        if status != 404:
            self._record_owner(job_id, replica_id)
        return status, payload

    async def _route_incidents(
        self,
        method: str,
        target: str,
        raw_body: bytes,
        query: Dict[str, str],
        parent: Optional[Dict[str, str]],
    ) -> Tuple[int, Any]:
        if method == "POST" and self.draining:
            raise RequestError(
                "router is draining; not accepting incidents", 503, "draining"
            )
        pinned = self._pinned(query)
        if pinned is not None:
            candidates: List[ReplicaEndpoint] = [pinned]
        else:
            # incidents live on one stable home (first id in ring order)
            # so GET sees every POST; failover order is deterministic
            candidates = self._candidates(sorted(self.replicas))
        status, payload, _ = await self._try_each(
            candidates, method, target, raw_body, parent
        )
        return status, payload


def _decode_payload(raw: bytes, content_type: str) -> Any:
    """Replica answers decoded for re-encoding: JSON dicts stay dicts
    (so the router can stamp ``replica``), Prometheus text stays text."""
    if content_type.startswith("text/plain"):
        return raw.decode("utf-8", "replace")
    try:
        return json.loads(raw) if raw else {}
    except ValueError:
        return raw.decode("utf-8", "replace")


# ----------------------------------------------------------------------
# replica supervision
# ----------------------------------------------------------------------
def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class ClusterSupervisor:
    """Spawn N ``repro serve`` replica subprocesses and keep them up.

    Each replica keeps its port and replica id across restarts, so the
    router's ring and endpoint table never change shape; a restarted
    replica comes back empty (cold sessions, cold memory cache) but
    re-warms from the shared disk cache tier.
    """

    def __init__(
        self,
        count: int,
        host: str = "127.0.0.1",
        base_args: Optional[Sequence[str]] = None,
        log: Callable[[str], None] = lambda message: None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        self.count = count
        self.host = host
        self.base_args = list(base_args or [])
        self.log = log
        self.endpoints: List[ReplicaEndpoint] = []
        self.restarts = 0
        self._procs: Dict[str, subprocess.Popen] = {}
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def _spawn(self, replica_id: str, port: int) -> subprocess.Popen:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            self.host,
            "--port",
            str(port),
            "--replica-id",
            replica_id,
            *self.base_args,
        ]
        env = dict(os.environ)
        # make the repro package importable in the child regardless of
        # how the parent found it (installed, PYTHONPATH, sys.path hack)
        package_root = str(pathlib.Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root if not existing else package_root + os.pathsep + existing
            )
        proc = subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self._procs[replica_id] = proc
        return proc

    def start(self) -> List[ReplicaEndpoint]:
        """Spawn all replicas; returns their (stable) endpoints."""
        for index in range(self.count):
            replica_id = f"r{index}"
            port = _free_port(self.host)
            proc = self._spawn(replica_id, port)
            # alive=False until the router's health loop sees /healthz —
            # replicas take a moment to bind
            self.endpoints.append(
                ReplicaEndpoint(
                    replica_id=replica_id,
                    host=self.host,
                    port=port,
                    pid=proc.pid,
                    alive=False,
                )
            )
            self.log(f"replica {replica_id} (pid {proc.pid}) on port {port}")
        self._thread = threading.Thread(
            target=self._watch, name="repro-cluster-supervisor", daemon=True
        )
        self._thread.start()
        return self.endpoints

    def _watch(self) -> None:
        """Restart dead replicas on their original port/replica id."""
        while not self._stopping:
            time.sleep(_POLL_INTERVAL)
            for endpoint in self.endpoints:
                proc = self._procs.get(endpoint.replica_id)
                if proc is None or proc.poll() is None or self._stopping:
                    continue
                endpoint.alive = False
                endpoint.last_error = f"exited with {proc.returncode}"
                new = self._spawn(endpoint.replica_id, endpoint.port)
                endpoint.pid = new.pid
                self.restarts += 1
                self.log(
                    f"replica {endpoint.replica_id} died "
                    f"(rc={proc.returncode}); restarted as pid {new.pid}"
                )

    def stop(self, timeout: float = 15.0) -> None:
        """SIGTERM every replica (they drain), then SIGKILL stragglers."""
        self._stopping = True
        if self._thread is not None:
            self._thread.join(_POLL_INTERVAL * 4)
        for proc in self._procs.values():
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)


# ----------------------------------------------------------------------
# router server lifecycle
# ----------------------------------------------------------------------
async def serve_router_async(
    replicas: Sequence[ReplicaEndpoint],
    host: str = "127.0.0.1",
    port: int = 8320,
    trace_file: Optional[str] = None,
    slo: Any = None,
    flight: Any = None,
    **serve_kwargs: Any,
) -> None:
    """Run the router over ``replicas`` until SIGTERM/SIGINT.

    ``slo`` (True or a JSON config path) turns on cluster-level SLO
    burn-rate evaluation over the merged scrape; ``flight`` (True or a
    JSONL sink path) arms the router's flight recorder.  On shutdown
    the router drains (new submissions 503 ``code="draining"``).
    ``serve_kwargs`` (``ready``, ``install_signal_handlers``, ``log``)
    go to :func:`repro.service.http.serve_app`.
    """
    app = RouterApp(
        replicas, slo_config=configure_observability(trace_file, slo, flight)
    )
    await serve_app(app, host, port, **serve_kwargs)


async def serve_cluster_async(
    host: str = "127.0.0.1",
    port: int = 8321,
    replicas: int = 3,
    replica_args: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
    log: Callable[[str], None] = print,
    trace_file: Optional[str] = None,
    slo: Any = None,
    flight: Any = None,
    **serve_kwargs: Any,
) -> None:
    """Boot supervisor + N replicas + router: ``repro serve --replicas N``.

    Replicas share ``cache_dir`` as the cluster's result tier (a
    temporary directory when not given — still shared, but not
    persistent across cluster restarts).  ``--slo`` stays on the router
    only (so each cluster burn alert fires exactly once); ``--flight``
    is forwarded to the replicas as well, because the span evidence for
    a failing job lives in the replica that ran it.  Once the router
    has drained, the replicas are stopped (each drains its own queue).
    """
    scratch: Optional[tempfile.TemporaryDirectory] = None
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-cluster-cache-")
        cache_dir = scratch.name
    args = list(replica_args or []) + ["--cache-dir", cache_dir]
    if trace_file is not None:
        args += ["--trace-file", trace_file]
    if flight:
        # replicas record in memory; a sink path stays router-local so
        # N processes never interleave writes into one JSONL file
        args += ["--flight"]
    supervisor = ClusterSupervisor(replicas, host=host, base_args=args, log=log)
    try:
        await serve_router_async(
            supervisor.start(),
            host=host,
            port=port,
            log=log,
            trace_file=trace_file,
            slo=slo,
            flight=flight,
            **serve_kwargs,
        )
    finally:
        supervisor.stop()
        if scratch is not None:
            scratch.cleanup()


def start_router_in_thread(
    replicas: Sequence[ReplicaEndpoint], **kwargs: Any
) -> ServerHandle:
    """Run a router (:func:`serve_router_async` arguments, over
    already-running replicas) on a daemon thread."""
    return start_thread("router", serve_router_async, replicas, **kwargs)
