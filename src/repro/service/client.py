"""Small blocking HTTP client for the verification service.

Used by the tests, the CI smoke script and examples; depends only on
:mod:`http.client` from the stdlib.  Specs can be passed as
:class:`~repro.core.spec.AttackSpec` objects (serialized client-side),
as canonical payload dicts, or as the paper's text format via
``spec_text``.

.. code-block:: python

    client = ServiceClient(port=8321)
    client.wait_until_ready()
    job = client.verify(spec, timeout=60)
    assert job["result"]["outcome"] in ("sat", "unsat")

**Transient-failure handling.**  A replica restarting (supervisor
failover, rolling deploy) answers with connection-refused or resets
the socket mid-exchange.  Every request retries those transient
errors up to ``retries`` times with capped exponential backoff
(``backoff`` doubling up to ``max_backoff``); HTTP-level errors
(4xx/5xx answers) and request timeouts are *not* retried — the server
spoke, or is merely slow.  With more than one endpoint
(``endpoints=[(host, port), ...]`` — e.g. a router plus a direct
replica, or several routers) each retry also fails over to the next
endpoint round-robin.  Retried POSTs can in principle double-submit
if the server accepted just before the connection dropped; all
submission endpoints are idempotent in effect (results are
deterministic and cached), so the duplicate only costs a cache hit.

``client_id`` stamps every submission's ``client`` field so the
service's per-client fair queue can tell callers apart.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.spec import AttackSpec
from repro.obs.trace import context_payload
from repro.runtime.serialize import spec_to_payload

SpecLike = Union[AttackSpec, Dict[str, Any]]

#: job states after which a job will never change again
TERMINAL_STATES = ("done", "failed", "cancelled", "timeout")

#: connection-level failures worth retrying: the server never answered
#: (refused while restarting, reset/EOF mid-exchange).  Timeouts are
#: deliberately absent — a slow solver is not a dead replica.
TRANSIENT_ERRORS = (ConnectionError, http.client.BadStatusLine)


class ServiceError(RuntimeError):
    """A non-2xx answer from the service."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


def _spec_field(spec: Optional[SpecLike], spec_text: Optional[str]) -> Dict[str, Any]:
    if (spec is None) == (spec_text is None):
        raise ValueError("provide exactly one of spec= or spec_text=")
    if spec_text is not None:
        return {"spec_text": spec_text}
    if isinstance(spec, AttackSpec):
        return {"spec": spec_to_payload(spec)}
    return {"spec": spec}


class ServiceClient:
    """One endpoint (or several, with failover); short-lived connections."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 60.0,
        *,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
        retries: int = 3,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        client_id: Optional[str] = None,
    ) -> None:
        if endpoints:
            self.endpoints: List[Tuple[str, int]] = [
                (str(h), int(p)) for h, p in endpoints
            ]
        else:
            self.endpoints = [(host, int(port))]
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.client_id = client_id
        self._cursor = 0
        #: observable retry behaviour: requests issued, transient-error
        #: retries, endpoint failovers
        self.retry_stats: Dict[str, int] = {"attempts": 0, "retries": 0, "failovers": 0}

    @property
    def host(self) -> str:
        """Host of the endpoint the next request will try."""
        return self.endpoints[self._cursor % len(self.endpoints)][0]

    @property
    def port(self) -> int:
        """Port of the endpoint the next request will try."""
        return self.endpoints[self._cursor % len(self.endpoints)][1]

    # ------------------------------------------------------------------
    def _raw_request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange with transient-error retry + failover."""
        attempt = 0
        while True:
            target_host, target_port = self.endpoints[
                self._cursor % len(self.endpoints)
            ]
            connection = http.client.HTTPConnection(
                target_host, target_port, timeout=self.timeout
            )
            self.retry_stats["attempts"] += 1
            try:
                connection.request(method, path, body=body, headers=headers or {})
                response = connection.getresponse()
                return response.status, response.read()
            except TRANSIENT_ERRORS:
                if attempt >= self.retries:
                    raise
                self.retry_stats["retries"] += 1
                if len(self.endpoints) > 1:
                    self._cursor = (self._cursor + 1) % len(self.endpoints)
                    self.retry_stats["failovers"] += 1
                time.sleep(min(self.backoff * (2**attempt), self.max_backoff))
                attempt += 1
            finally:
                connection.close()

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        # propagate the caller's span so the server parents its
        # http.request span on it: one trace across processes
        trace_context = context_payload()
        if trace_context is not None:
            headers["X-Trace-Context"] = json.dumps(trace_context)
        status, raw = self._raw_request(
            method,
            path,
            body=None if body is None else json.dumps(body).encode("utf-8"),
            headers=headers,
        )
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise ServiceError(status, {"error": f"non-JSON response: {exc}"})
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/statsz")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition from ``GET /metricsz`` (not JSON)."""
        status, raw = self._raw_request("GET", "/metricsz")
        if status >= 400:
            raise ServiceError(status, {"error": raw.decode("utf-8", "replace")})
        return raw.decode("utf-8")

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait_until_ready(self, timeout: float = 15.0, poll: float = 0.05) -> None:
        """Poll ``/healthz`` until the service answers (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"service at {self.host}:{self.port} not ready in {timeout}s"
                    )
                time.sleep(poll)

    # ------------------------------------------------------------------
    def submit_verify(
        self,
        spec: Optional[SpecLike] = None,
        spec_text: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/verify``; returns the job description (state queued).

        ``fields`` forwards API knobs verbatim: ``portfolio``,
        ``epsilon``, ``priority``, ``deadline``, ``max_retries``,
        ``wait``, ``wait_timeout``, ``client``.
        """
        body = {**_spec_field(spec, spec_text), **fields}
        if self.client_id is not None:
            body.setdefault("client", self.client_id)
        return self._request("POST", "/v1/verify", body)

    def submit_synthesize(
        self,
        spec: Optional[SpecLike] = None,
        spec_text: Optional[str] = None,
        budget: int = 0,
        **fields: Any,
    ) -> Dict[str, Any]:
        settings = {"budget": budget, **fields.pop("settings", {})}
        body = {**_spec_field(spec, spec_text), "settings": settings, **fields}
        if self.client_id is not None:
            body.setdefault("client", self.client_id)
        return self._request("POST", "/v1/synthesize", body)

    def wait(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; raise ``TimeoutError`` otherwise."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")
            time.sleep(poll)

    # ------------------------------------------------------------------
    def verify(
        self,
        spec: Optional[SpecLike] = None,
        spec_text: Optional[str] = None,
        timeout: float = 60.0,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Submit + wait; returns the terminal job (raises if ``failed``)."""
        job = self.submit_verify(spec=spec, spec_text=spec_text, **fields)
        job = self.wait(job["id"], timeout=timeout)
        if job["state"] == "failed":
            raise ServiceError(500, {"error": job.get("error", "job failed")})
        return job

    def synthesize(
        self,
        spec: Optional[SpecLike] = None,
        spec_text: Optional[str] = None,
        budget: int = 0,
        timeout: float = 120.0,
        **fields: Any,
    ) -> Dict[str, Any]:
        job = self.submit_synthesize(
            spec=spec, spec_text=spec_text, budget=budget, **fields
        )
        job = self.wait(job["id"], timeout=timeout)
        if job["state"] == "failed":
            raise ServiceError(500, {"error": job.get("error", "job failed")})
        return job

    # ------------------------------------------------------------------
    def post_incident(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Publish one monitor incident (``POST /v1/incidents``)."""
        return self._request("POST", "/v1/incidents", payload)

    def incidents(self, **params: Any) -> Dict[str, Any]:
        """Query stored incidents (``GET /v1/incidents``).

        ``params`` forwards the endpoint's filters: ``kind``,
        ``severity``, ``min_severity``, ``since_tick``, ``limit``.
        """
        query = "&".join(f"{k}={v}" for k, v in params.items() if v is not None)
        path = "/v1/incidents" + (f"?{query}" if query else "")
        return self._request("GET", path)
