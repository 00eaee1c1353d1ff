"""JSON HTTP API for the verification service (stdlib asyncio only).

Endpoints::

    POST /v1/verify       submit a verification job
    POST /v1/synthesize   submit a countermeasure-synthesis job
    GET  /v1/jobs/<id>    job state (+ result once terminal)
    POST /v1/incidents    ingest a monitor incident
    GET  /v1/incidents    query stored incidents (``?kind=``,
                          ``?severity=``, ``?min_severity=``,
                          ``?since_tick=``, ``?limit=``)
    GET  /healthz         liveness ("ok" / "draining") + replica id
    GET  /statsz          queue depth (total and per priority),
                          batch-size histogram, cache hit-rate,
                          p50/p95 latency, job counters, warm-session
                          registry counters, incident counts
    GET  /metricsz        Prometheus exposition of this process
    GET  /sloz            SLO burn-rate state (with ``--slo``)
    GET  /debugz/flight   flight-recorder snapshots (with ``--flight``;
                          ``?trace_id=`` freezes/filters one trace)

Requests may carry an ``X-Trace-Context`` header (the JSON of
:func:`repro.obs.trace.context_payload`); the server parents its
``http.request`` span on it, so a monitor's re-verification probes and
the solver work they cause share one trace id across processes.

Client errors are answered with ``{"error": <message>, "code":
<slug>}`` — including malformed (non-JSON) bodies, which get a 400
with ``code="invalid_json"`` instead of a traceback.  Admission
control (queue at ``max_queue``, or one client at
``max_queue_per_client``) answers 429 with ``code="queue_full"``; a
draining server answers new submissions 503 with ``code="draining"``.

Verify bodies carry either ``"spec"`` (the canonical payload of
:func:`repro.runtime.serialize.spec_to_payload`) or ``"spec_text"``
(the paper's text format, :mod:`repro.core.io`), plus optional
``portfolio``/``epsilon``/``priority``/``deadline``/``max_retries``; a
``backend`` field is a 400 (every verify runs the SMT engine);
``"wait": true`` holds the request open until the job
is terminal (bounded by ``wait_timeout``).  Synthesize bodies add a
``"settings"`` object (``budget`` required).

On SIGTERM/SIGINT the server **drains**: new submissions get 503,
``GET`` stays available for polling, in-flight and queued jobs run to
completion, then the process exits.

The bottom half of this module is the serving core that the cluster
router (:mod:`repro.service.router`) runs on too: one HTTP message
reader, connection handler, method table, server lifecycle, threaded
start and SLO loop.  An *app* served by :func:`serve_app` provides
``role``, ``start()``, ``drain()``, ``log_fields()`` and ``handle(method,
target, body, parent)``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from urllib.parse import parse_qs

from repro.core.io import SpecParseError, parse_spec
from repro.core.spec import AttackSpec
from repro.core.synthesis import SynthesisSettings, check_excluded_buses
from repro.monitor.incidents import Incident, IncidentStore
from repro.obs import metrics as obs_metrics
from repro.obs.flight import configure_flight, get_flight_recorder
from repro.obs.logging import get_logger
from repro.obs.slo import SloConfig, SloEvaluator, alert_to_incident_payload, load_slo_config
from repro.obs.trace import configure_tracing, get_tracer
from repro.runtime import ResultCache, RuntimeOptions, parse_portfolio_mode
from repro.runtime.serialize import payload_to_spec, spec_to_payload
from repro.service.batching import BatchingScheduler, BatchStats
from repro.service.jobs import JobQueue, JobState, QueueFull
from repro.smt.solver import engine_signature

_LOG = get_logger("repro.service")

#: every endpoint of the service and the router -> the methods it
#: answers; the keys are also the bounded set of ``path`` metric labels
_METHODS: Dict[str, Tuple[str, ...]] = {
    "/healthz": ("GET",),
    "/statsz": ("GET",),
    "/metricsz": ("GET",),
    "/sloz": ("GET",),
    "/debugz/flight": ("GET",),
    "/clusterz": ("GET",),
    "/clusterz/metrics": ("GET",),
    "/v1/jobs/:id": ("GET",),
    "/v1/verify": ("POST",),
    "/v1/synthesize": ("POST",),
    "/v1/incidents": ("GET", "POST"),
}

_M_REQUESTS = obs_metrics.counter(
    "repro_http_requests_total",
    "HTTP requests by endpoint and answer status",
    labels=("method", "path", "status"),
)
_M_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_http_request_seconds",
    "Wall time spent answering a request",
    labels=("path",),
)


def _metric_path(path: str) -> str:
    """Collapse request paths onto the bounded ``_METHODS`` key set."""
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/:id"
    if path in _METHODS:
        return path
    return "other"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

class RequestError(ValueError):
    """A client error; carries the HTTP status and a stable error code."""

    def __init__(
        self, message: str, status: int = 400, code: str = "bad_request"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _require(
    condition: bool, message: str, status: int = 400, code: str = "bad_request"
) -> None:
    if not condition:
        raise RequestError(message, status, code)


def _check_method(endpoint: str, method: str) -> None:
    """405 for a known endpoint asked with a method it does not answer."""
    allowed = _METHODS.get(endpoint, (method,))
    _require(method in allowed, f"use {' or '.join(allowed)}", 405)


def _parse_json(raw: bytes) -> Any:
    """The request body as JSON (None when empty); 400 when malformed."""
    if not raw:
        return None
    try:
        return json.loads(raw)
    except ValueError:
        raise RequestError("request body is not valid JSON", code="invalid_json")


def _slo_summary(slo: Optional[SloEvaluator]) -> Optional[Dict[str, int]]:
    if slo is None:
        return None
    return {"slos": len(slo.config.slos), "alerts": len(slo.alerts())}


def _sloz(slo: Optional[SloEvaluator]) -> Dict[str, Any]:
    """``GET /sloz``: the evaluator's state; 404 when ``--slo`` is off."""
    if slo is None:
        raise RequestError(
            "SLO monitoring is not enabled (start with --slo)", 404, "slo_disabled"
        )
    return slo.status()


def _query_int(query: Dict[str, str], name: str) -> Optional[int]:
    value = query.get(name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise RequestError(f"'{name}' must be an integer")


def _parse_spec_field(body: Dict[str, Any]) -> AttackSpec:
    """``spec`` (canonical payload) XOR ``spec_text`` (paper text format)."""
    spec_payload = body.get("spec")
    spec_text = body.get("spec_text")
    _require(
        (spec_payload is None) != (spec_text is None),
        "provide exactly one of 'spec' (canonical payload) or 'spec_text'",
    )
    try:
        if spec_payload is not None:
            _require(isinstance(spec_payload, dict), "'spec' must be an object")
            return payload_to_spec(spec_payload)
        _require(isinstance(spec_text, str), "'spec_text' must be a string")
        return parse_spec(spec_text)
    except RequestError:
        raise
    except (SpecParseError, ValueError, KeyError, TypeError) as exc:
        raise RequestError(f"invalid spec: {exc}") from exc


def _parse_common(body: Dict[str, Any]) -> Dict[str, Any]:
    """priority / deadline / max_retries / wait knobs, validated."""
    out: Dict[str, Any] = {}
    priority = body.get("priority", 0)
    _require(isinstance(priority, int), "'priority' must be an integer")
    out["priority"] = priority
    deadline = body.get("deadline")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and deadline >= 0,
            "'deadline' must be a nonnegative number of seconds",
        )
    out["deadline"] = deadline
    max_retries = body.get("max_retries", 1)
    _require(
        isinstance(max_retries, int) and 0 <= max_retries <= 5,
        "'max_retries' must be an integer in [0, 5]",
    )
    out["max_retries"] = max_retries
    out["wait"] = bool(body.get("wait", False))
    wait_timeout = body.get("wait_timeout", 30.0)
    _require(
        isinstance(wait_timeout, (int, float)) and wait_timeout > 0,
        "'wait_timeout' must be a positive number of seconds",
    )
    out["wait_timeout"] = float(wait_timeout)
    client = body.get("client")
    if client is not None:
        _require(
            isinstance(client, str) and 0 < len(client) <= 120,
            "'client' must be a nonempty string of at most 120 characters",
        )
    out["client"] = client
    return out


class ServiceApp:
    """Routing + validation over one queue/scheduler/cache triple."""

    role = "service"

    def __init__(
        self,
        options: Optional[RuntimeOptions] = None,
        max_queue: int = 10_000,
        max_queue_per_client: Optional[int] = None,
        replica_id: Optional[str] = None,
        slo_config: Optional[SloConfig] = None,
    ) -> None:
        options = options or RuntimeOptions()
        if options.cache is None:
            # memoization is the point of a long-lived service: always
            # carry at least an in-memory cache
            options = dataclasses.replace(options, cache=ResultCache())
        self.options = options
        self.replica_id = replica_id
        self.queue = JobQueue(max_depth=max_queue, max_per_client=max_queue_per_client)
        self.queue.on_terminal = self._on_job_terminal
        self.stats = BatchStats()
        self.scheduler = BatchingScheduler(self.queue, options, stats=self.stats)
        self.draining = False
        self.incidents = IncidentStore()
        self.slo: Optional[SloEvaluator] = (
            SloEvaluator(slo_config) if slo_config is not None else None
        )
        self.started_wall = time.time()
        self.started_mono = time.monotonic()
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._tasks.append(asyncio.create_task(self.scheduler.run()))
        if self.slo is not None:
            self._tasks.append(
                asyncio.create_task(
                    slo_loop(self.slo, self._scrape, self._file_incident)
                )
            )

    async def drain(self) -> None:
        """Stop taking work, finish what's queued/running, stop scheduling."""
        self.draining = True
        await self.queue.join()
        await _cancel(self._tasks)

    def log_fields(self) -> Dict[str, Any]:
        """Self-identification stamped on lifecycle log events."""
        return {
            "replica": self.replica_id,
            "runtime": self.options.describe(),
            "engine": engine_signature(),
            "queue": self.queue.snapshot(),
        }

    # ------------------------------------------------------------------
    def _on_job_terminal(self, job: Any, state: str) -> None:
        """Flight-recorder hook: freeze evidence for failed/timed-out jobs."""
        if state not in ("failed", "timeout"):
            return
        recorder = get_flight_recorder()
        if not recorder.enabled:
            return
        trace = job.trace or {}
        recorder.trigger(
            "job_timeout" if state == "timeout" else "job_failed",
            trace_id=trace.get("trace_id"),
            detail={
                "job_id": job.id,
                "kind": job.kind,
                "state": state,
                "error": job.error,
                "deadline": job.deadline,
            },
        )

    async def _scrape(self) -> str:
        return self.metricsz()

    async def _file_incident(self, payload: Dict[str, Any]) -> None:
        """An SLO burn alert becomes a first-class monitor incident."""
        self.incidents.add(Incident.from_payload(payload))

    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        target: str,
        raw_body: bytes = b"",
        parent: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """Route one request; the payload is a JSON dict, or raw text for
        ``/metricsz`` (Prometheus exposition is not JSON).

        ``parent`` is a caller-supplied trace context (the
        ``X-Trace-Context`` header): the request span joins that trace
        instead of starting a fresh one.
        """
        path, _, raw_query = target.partition("?")
        endpoint = _metric_path(path)
        start = time.monotonic()
        with get_tracer().span(
            "http.request", parent=parent, method=method, path=path
        ) as span:
            try:
                status, payload = await self._route(
                    method,
                    endpoint,
                    path,
                    _parse_json(raw_body),
                    _parse_query(raw_query),
                )
            except RequestError as exc:
                status, payload = exc.status, {"error": str(exc), "code": exc.code}
            except QueueFull as exc:
                # admission control: shed load with a structured, retryable
                # rejection rather than a bare server error
                status, payload = 429, {"error": str(exc), "code": "queue_full"}
            span.set(status=status)
            trace_id = span.trace_id
        _M_REQUESTS.inc(method=method, path=endpoint, status=status)
        _M_REQUEST_SECONDS.observe(
            time.monotonic() - start, exemplar=trace_id or None, path=endpoint
        )
        if status >= 500:
            recorder = get_flight_recorder()
            if recorder.enabled:
                # the span is finished by now, so the whole tree is in
                # the tracer ring and the snapshot sees it
                recorder.trigger(
                    "http_5xx",
                    trace_id=trace_id or None,
                    detail={"method": method, "path": path, "status": status},
                )
        return status, payload

    async def _route(
        self,
        method: str,
        endpoint: str,
        path: str,
        body: Any,
        query: Dict[str, str],
    ) -> Tuple[int, Any]:
        _check_method(endpoint, method)
        if endpoint == "/healthz":
            return 200, {
                "status": "draining" if self.draining else "ok",
                "uptime_seconds": time.monotonic() - self.started_mono,
                # self-identification for scraped deployments: which
                # replica, runtime knobs and solver engine answered
                "replica": self.replica_id,
                "runtime": self.options.describe(),
                "engine": engine_signature(),
            }
        if endpoint == "/statsz":
            return 200, self.statsz()
        if endpoint == "/metricsz":
            return 200, self.metricsz()
        if endpoint == "/sloz":
            return 200, _sloz(self.slo)
        if endpoint == "/debugz/flight":
            recorder = get_flight_recorder()
            trace_id = query.get("trace_id")
            if trace_id and recorder.enabled and not recorder.snapshots(trace_id):
                # on-demand freeze: capture whatever the ring still holds
                recorder.trigger("on_demand", trace_id=trace_id)
            return 200, recorder.payload(trace_id)
        if endpoint == "/v1/jobs/:id":
            job = self.queue.get(path[len("/v1/jobs/") :])
            _require(job is not None, "unknown job id", 404, "not_found")
            return 200, job.describe()
        if endpoint == "/v1/verify":
            return await self._submit_verify(body)
        if endpoint == "/v1/synthesize":
            return await self._submit_synthesize(body)
        if endpoint == "/v1/incidents":
            if method == "POST":
                return self._ingest_incident(body)
            return self._query_incidents(query)
        raise RequestError(f"no such endpoint: {path}", 404, "not_found")

    # ------------------------------------------------------------------
    def _check_accepting(self, body: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        _require(
            not self.draining,
            "service is draining; not accepting jobs",
            503,
            code="draining",
        )
        _require(isinstance(body, dict), "request body must be a JSON object")
        return body  # type: ignore[return-value]

    async def _submit_verify(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        body = self._check_accepting(body)
        _require(
            "backend" not in body,
            "'backend' is not accepted: every verify runs the SMT engine",
        )
        spec = _parse_spec_field(body)
        common = _parse_common(body)
        epsilon = body.get("epsilon")
        if epsilon is not None:
            try:
                epsilon = str(Fraction(str(epsilon)))
            except (ValueError, ZeroDivisionError) as exc:
                raise RequestError(f"invalid 'epsilon': {exc}") from exc
        portfolio = body.get("portfolio", False)
        if isinstance(portfolio, str):
            # "configs" / "configs:N"; validated here so a typo (or the
            # retired "backends") is a 400, not a failed job in the pool
            try:
                parse_portfolio_mode(portfolio)
            except ValueError as exc:
                raise RequestError(f"invalid 'portfolio': {exc}") from exc
        else:
            portfolio = bool(portfolio)
        payload = {
            "spec": spec_to_payload(spec),
            "portfolio": portfolio,
            "epsilon": epsilon,
        }
        job = await self.queue.submit(
            "verify",
            payload,
            priority=common["priority"],
            deadline=common["deadline"],
            max_retries=common["max_retries"],
            client=common["client"],
        )
        return await self._answer_submission(job.id, common)

    async def _submit_synthesize(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        body = self._check_accepting(body)
        spec = _parse_spec_field(body)
        common = _parse_common(body)
        settings = body.get("settings")
        _require(isinstance(settings, dict), "'settings' object is required")
        _require("budget" in settings, "'settings.budget' is required")
        kwargs = {
            "max_secured_buses": settings["budget"],
            "excluded_buses": settings.get("exclude", []),
            "blocking": settings.get("blocking", "counterexample"),
            "neighbor_pruning": bool(settings.get("neighbor_pruning", True)),
        }
        if "max_iterations" in settings:
            kwargs["max_iterations"] = settings["max_iterations"]
        try:
            check_excluded_buses(
                spec,
                SynthesisSettings(
                    **{**kwargs, "excluded_buses": frozenset(kwargs["excluded_buses"])}
                ),
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid settings: {exc}") from exc
        payload = {"spec": spec_to_payload(spec), "settings": kwargs}
        job = await self.queue.submit(
            "synthesize",
            payload,
            priority=common["priority"],
            deadline=common["deadline"],
            max_retries=common["max_retries"],
            client=common["client"],
        )
        return await self._answer_submission(job.id, common)

    def _ingest_incident(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        body = self._check_accepting(body)
        try:
            incident = Incident.from_payload(body)
        except ValueError as exc:
            raise RequestError(f"invalid incident: {exc}") from exc
        self.incidents.add(incident)
        return 202, {"id": incident.id, "stored": len(self.incidents)}

    def _query_incidents(
        self, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        limit = _query_int(query, "limit")
        try:
            matches = self.incidents.query(
                kind=query.get("kind"),
                severity=query.get("severity"),
                min_severity=query.get("min_severity"),
                since_tick=_query_int(query, "since_tick"),
                limit=100 if limit is None else limit,
            )
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        return 200, {
            "incidents": [incident.to_payload() for incident in matches],
            "count": len(matches),
        }

    async def _answer_submission(
        self, job_id: str, common: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        if common["wait"]:
            job = await self.queue.wait(job_id, timeout=common["wait_timeout"])
            if job is not None and job.state.terminal:
                return 200, job.describe()
        job = self.queue.get(job_id)
        assert job is not None
        return 202, job.describe()

    # ------------------------------------------------------------------
    def statsz(self) -> Dict[str, Any]:
        from repro.runtime import session_registry_stats

        cache = self.options.cache
        return {
            "uptime_seconds": time.monotonic() - self.started_mono,
            "started_at": self.started_wall,
            "replica": self.replica_id,
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "batching": self.stats.snapshot(),
            "cache": None if cache is None else cache.snapshot(),
            "runtime": self.options.describe(),
            "engine": engine_signature(),
            "sessions": session_registry_stats(),
            "incidents": self.incidents.snapshot(),
            "tracer": get_tracer().snapshot(),
            "flight": {
                "enabled": get_flight_recorder().enabled,
                **get_flight_recorder().counters,
            },
            "slo": _slo_summary(self.slo),
        }

    def metricsz(self) -> str:
        """The registry in Prometheus text format (``GET /metricsz``)."""
        return obs_metrics.get_registry().render_prometheus()


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
async def _read_message(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[List[str], Dict[str, str], bytes]]:
    """One HTTP/1.1 message: (start-line fields, lower-cased headers,
    body).  Requests (``GET /path HTTP/1.1``) and replica answers
    (``HTTP/1.1 200 OK``) share the framing; None on an empty stream."""
    parts = (await reader.readline()).decode("latin-1").split()
    if len(parts) < 2:
        return None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = 0
    body = await reader.readexactly(length) if length > 0 else b""
    return parts, headers, body


def _parse_query(raw: str) -> Dict[str, str]:
    """``a=1&b=2`` -> ``{"a": "1", "b": "2"}`` (last value wins)."""
    return {
        name: values[-1]
        for name, values in parse_qs(raw, keep_blank_values=True).items()
    }


def _parse_trace_header(headers: Dict[str, str]) -> Optional[Dict[str, str]]:
    """The ``X-Trace-Context`` header: JSON ``{"trace_id", "span_id"}``."""
    raw = headers.get("x-trace-context")
    if not raw:
        return None
    try:
        payload = json.loads(raw)
    except ValueError:
        return None
    if isinstance(payload, dict) and payload.get("trace_id"):
        return {str(k): str(v) for k, v in payload.items()}
    return None


def _encode_response(status: int, payload: Any) -> bytes:
    """JSON for dict payloads; Prometheus text for raw strings."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _handle_connection(
    app: Any, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        try:
            request = await asyncio.wait_for(_read_message(reader), timeout=30.0)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            request = None
        if request is None:
            return
        (method, target, *_), headers, body = request
        try:
            status, payload = await app.handle(
                method.upper(), target, body, parent=_parse_trace_header(headers)
            )
        except Exception as exc:  # never leak a traceback as a hung socket
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}",
                "code": "internal",
            }
        writer.write(_encode_response(status, payload))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
async def _cancel(tasks: List[asyncio.Task]) -> None:
    """Cancel an app's background loops and wait until they are gone."""
    for task in tasks:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
    tasks.clear()


async def slo_loop(
    slo: SloEvaluator,
    scrape: Callable[[], Awaitable[str]],
    deliver: Callable[[Dict[str, Any]], Awaitable[None]],
) -> None:
    """Evaluate ``slo`` over ``scrape()`` every interval, forever.

    Each burn alert freezes a ``slo_burn`` flight snapshot, is logged
    once, and is handed to ``deliver`` as a ``slo_burn`` incident
    payload.  Only the top process of a topology runs this loop, so an
    alert fires once per deployment.
    """
    interval = max(0.05, float(slo.config.interval_seconds))
    seq = 0
    while True:
        await asyncio.sleep(interval)
        try:
            events = slo.sample_text(await scrape())
        except Exception as exc:  # evaluation must never kill the app
            _LOG.warning("slo.sample_failed", error=str(exc))
            continue
        for event in events:
            seq += 1
            recorder = get_flight_recorder()
            if recorder.enabled:
                recorder.trigger(
                    "slo_burn",
                    trace_id=event.get("exemplar_trace_id"),
                    detail={"slo": event.get("slo"), "severity": event.get("severity")},
                )
            _LOG.warning(
                "slo.burn_alert",
                slo=event.get("slo"),
                severity=event.get("severity"),
                windows=event.get("windows"),
                budget_remaining=event.get("budget_remaining"),
                exemplar_trace_id=event.get("exemplar_trace_id"),
            )
            try:
                await deliver(alert_to_incident_payload(event, seq))
            except Exception as exc:  # a lost incident must not stop alerting
                _LOG.warning("slo.incident_failed", error=str(exc))


def configure_observability(
    trace_file: Optional[str], slo: Any, flight: Any
) -> Optional[SloConfig]:
    """The ``--trace-file`` / ``--flight`` / ``--slo`` setup of a serving
    process; returns the SLO config, or None when ``--slo`` is off.

    ``slo`` is True for the built-in objectives or a JSON config path
    (see :func:`repro.obs.slo.load_slo_config`); ``flight`` is True or
    a JSONL sink path.
    """
    if trace_file is not None:
        configure_tracing(enabled=True, jsonl_path=trace_file)
    if flight:
        configure_flight(
            enabled=True, sink_path=flight if isinstance(flight, str) else None
        )
    obs_metrics.record_build_info()
    if not slo:
        return None
    return load_slo_config(slo if isinstance(slo, str) else None)


@dataclass
class ServerHandle:
    """Cross-thread control surface of a server started by
    :func:`start_thread`."""

    loop: asyncio.AbstractEventLoop
    app: Any
    host: str
    port: int
    thread: Optional[threading.Thread] = None
    _stop: Optional[asyncio.Event] = None

    def request_shutdown(self) -> None:
        """Trigger the same graceful-drain path as SIGTERM (idempotent)."""
        if self._stop is None:
            return
        try:
            self.loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already closed: the server is down

    def join(self, timeout: Optional[float] = None) -> None:
        if self.thread is not None:
            self.thread.join(timeout)


async def serve_app(
    app: Any,
    host: str,
    port: int,
    ready: Optional[Callable[[ServerHandle], None]] = None,
    install_signal_handlers: bool = True,
    log: Callable[[str], None] = print,
) -> None:
    """Serve ``app`` until SIGTERM/SIGINT (or ``request_shutdown()``),
    then drain it: new submissions are refused while ``GET`` keeps
    answering, and the listener closes once ``app.drain()`` returns."""
    events = get_logger(f"repro.{app.role}")
    await app.start()
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host, port
    )
    bound_port = server.sockets[0].getsockname()[1]
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. Windows event loops: Ctrl-C still raises
    handle = ServerHandle(loop=loop, app=app, host=host, port=bound_port, _stop=stop)
    if ready is not None:
        ready(handle)
    events.info(
        f"{app.role}.listening",
        host=host,
        port=bound_port,
        tracing=get_tracer().snapshot(),
        **app.log_fields(),
    )
    log(f"repro {app.role} listening on http://{host}:{bound_port}")
    try:
        await stop.wait()
    finally:
        events.info(f"{app.role}.draining", **app.log_fields())
        log(f"repro {app.role} draining ...")
        await app.drain()
        server.close()
        await server.wait_closed()
        events.info(f"{app.role}.stopped", **app.log_fields())
        log(f"repro {app.role} stopped")


async def serve_async(
    host: str = "127.0.0.1",
    port: int = 8321,
    options: Optional[RuntimeOptions] = None,
    max_queue: int = 10_000,
    max_queue_per_client: Optional[int] = None,
    replica_id: Optional[str] = None,
    trace_file: Optional[str] = None,
    slo: Any = None,
    flight: Any = None,
    **serve_kwargs: Any,
) -> None:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    ``trace_file`` enables span tracing with a JSONL sink at that path
    (equivalent to ``REPRO_TRACE_FILE``); lifecycle events additionally
    go to the structured JSON log, stamped with the runtime knobs and
    the solver engine signature so scraped deployments self-identify.
    ``replica_id`` names this process in a sharded cluster (surfaced in
    ``/healthz`` and ``/statsz``); ``max_queue_per_client`` bounds any
    one client's queued jobs (429 ``queue_full`` beyond it).

    ``slo`` turns on burn-rate SLO monitoring (alerts surface as
    ``slo_burn`` incidents and ``GET /sloz``); ``flight`` arms the
    flight recorder so 5xx answers, job failures/deadline misses and SLO
    alerts freeze a redacted snapshot at ``GET /debugz/flight``.  Both
    are off by default (see :func:`configure_observability`).
    ``serve_kwargs`` (``ready``, ``install_signal_handlers``, ``log``)
    go to :func:`serve_app`.
    """
    app = ServiceApp(
        options=options,
        max_queue=max_queue,
        max_queue_per_client=max_queue_per_client,
        replica_id=replica_id,
        slo_config=configure_observability(trace_file, slo, flight),
    )
    await serve_app(app, host, port, **serve_kwargs)


def run(main: Awaitable[None]) -> None:
    """Blocking entry point of ``repro serve``: run ``main`` to the end
    of its drain (Ctrl-C included)."""
    try:
        asyncio.run(main)
    except KeyboardInterrupt:
        pass


def start_thread(
    name: str, serve: Callable[..., Awaitable[None]], *args: Any, **kwargs: Any
) -> ServerHandle:
    """Run ``serve(*args, **kwargs)`` on a daemon thread; block until it
    is accepting.

    The returned handle exposes the bound port (``port`` defaults to 0,
    a free one), the app (for white-box assertions in tests) and
    ``request_shutdown()``, which triggers the same graceful drain as
    SIGTERM.  Signal handlers are not installed — the host thread owns
    signals — and the console banner is silenced.
    """
    kwargs.setdefault("port", 0)
    kwargs.setdefault("log", lambda message: None)
    box: Dict[str, Any] = {}
    started = threading.Event()

    def _ready(handle: ServerHandle) -> None:
        box["handle"] = handle
        started.set()

    def _run() -> None:
        try:
            asyncio.run(
                serve(*args, ready=_ready, install_signal_handlers=False, **kwargs)
            )
        except Exception as exc:  # surface startup failures to the caller
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=_run, name=f"repro-{name}", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError(f"{name} failed to start within 30 s")
    if "error" in box:
        raise RuntimeError(f"{name} failed to start: {box['error']}")
    handle: ServerHandle = box["handle"]
    handle.thread = thread
    return handle


def start_in_thread(**kwargs: Any) -> ServerHandle:
    """Run the service (:func:`serve_async` arguments) on a daemon thread."""
    return start_thread("service", serve_async, **kwargs)
