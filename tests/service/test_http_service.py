"""End-to-end HTTP service tests: real sockets, real client, one process.

The server runs on a background thread with ``jobs=1`` so all solver
work stays in-process — which lets ``monkeypatch`` count actual solver
invocations across the HTTP boundary.
"""

import concurrent.futures
import json
import http.client
import threading
import time

import pytest

import repro.runtime.executor as executor_module
import repro.service.batching as batching_module
from repro.core.io import write_spec
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.grid.cases import ieee14
from repro.runtime import ResultCache, RuntimeOptions
from repro.runtime.serialize import spec_to_payload
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import start_in_thread
from repro.service.jobs import JobState


def make_spec(bus=9):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


@pytest.fixture
def server():
    handle = start_in_thread(
        options=RuntimeOptions(jobs=1, cache=ResultCache()),
    )
    client = ServiceClient(port=handle.port)
    client.wait_until_ready()
    yield handle, client
    handle.request_shutdown()
    handle.join(timeout=10.0)
    assert not handle.thread.is_alive()


class TestBasics:
    def test_healthz(self, server):
        _, client = server
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_verify_round_trip_with_payload_spec(self, server):
        _, client = server
        job = client.verify(make_spec(), timeout=60)
        assert job["state"] == "done"
        assert job["result"]["outcome"] == "sat"
        assert job["result"]["attack"] is not None

    def test_verify_round_trip_with_spec_text(self, server):
        _, client = server
        secure = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.any(),
            limits=ResourceLimits(max_measurements=0),
        )
        job = client.verify(spec_text=write_spec(secure), timeout=60)
        assert job["result"]["outcome"] == "unsat"

    def test_wait_inline(self, server):
        _, client = server
        job = client.submit_verify(make_spec(), wait=True, wait_timeout=60)
        assert job["state"] == "done"

    def test_synthesize_round_trip(self, server):
        _, client = server
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(9),
            limits=ResourceLimits(max_measurements=10),
        )
        job = client.synthesize(spec, budget=6, timeout=120)
        assert job["state"] == "done"
        assert job["result"]["feasible"] is True
        assert job["result"]["architecture"]


class TestValidation:
    def test_missing_spec_is_400(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/verify", {"epsilon": "1/100"})
        assert excinfo.value.status == 400

    def test_both_spec_fields_is_400(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/v1/verify", {"spec": {}, "spec_text": "buses 2"}
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("backend", ["smt", "milp", "z3", None])
    def test_bad_backend_is_400(self, server, backend):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.submit_verify(make_spec(), backend=backend)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["code"] == "bad_request"
        assert "backend" in excinfo.value.payload["error"]

    def test_malformed_spec_payload_is_400(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/verify", {"spec": {"format": 99}})
        assert excinfo.value.status == 400

    def test_synthesize_requires_budget(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                "/v1/synthesize",
                {"spec": None, "spec_text": write_spec(make_spec()), "settings": {}},
            )
        assert excinfo.value.status == 400

    def test_synthesize_unknown_excluded_bus_is_400(self, server):
        # a client's error, not a job that fails and is retried
        handle, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.submit_synthesize(make_spec(), budget=3, settings={"exclude": [99]})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["code"] == "bad_request"
        assert "excluded buses [99]" in excinfo.value.payload["error"]
        assert handle.app.queue.counters["submitted"] == 0

    @pytest.mark.parametrize("limit", [0, "10"])
    def test_synthesize_bad_max_iterations_is_400(self, server, limit):
        handle, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.submit_synthesize(
                make_spec(), budget=3, settings={"max_iterations": limit}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["code"] == "bad_request"
        assert "max_iterations" in excinfo.value.payload["error"]
        assert handle.app.queue.counters["submitted"] == 0

    @pytest.mark.parametrize("form", ["spec_text", "spec"])
    def test_verify_negative_limit_is_400(self, server, form):
        # a client's error, not a job that fails and is retried as a 500
        handle, client = server
        if form == "spec_text":
            body = {"spec_text": write_spec(make_spec()) + "limit measurements -1\n"}
        else:
            payload = spec_to_payload(make_spec())
            payload["limits"] = [-1, None]
            body = {"spec": payload}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/verify", body)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["code"] == "bad_request"
        assert "max_measurements must be None or an integer >= 0" in (
            excinfo.value.payload["error"]
        )
        assert handle.app.queue.counters["submitted"] == 0

    def test_unknown_job_is_404(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["code"] == "not_found"

    def test_unknown_path_is_404(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_invalid_json_body_is_400(self, server):
        handle, _ = server
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/verify",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]


class TestAcceptanceDedup:
    """ISSUE 2 acceptance: N identical concurrent POSTs, one solver call."""

    N = 6

    def test_identical_concurrent_requests_one_solver_invocation(
        self, server, monkeypatch
    ):
        handle, client = server
        calls = []
        lock = threading.Lock()
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            with lock:
                calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)

        spec = make_spec()
        with concurrent.futures.ThreadPoolExecutor(max_workers=self.N) as pool:
            jobs = list(
                pool.map(lambda _: client.verify(spec, timeout=60), range(self.N))
            )

        # every request answered, identically
        assert all(job["state"] == "done" for job in jobs)
        outcomes = {job["result"]["outcome"] for job in jobs}
        assert outcomes == {"sat"}

        # ... by exactly one solver invocation
        assert len(calls) == 1

        stats = client.stats()
        batching = stats["batching"]
        assert batching["solver_calls"] == 1
        # the other N-1 were answered in-batch (dedup) or cross-batch (cache)
        assert batching["dedup_hits"] + batching["cache_hits"] == self.N - 1
        assert batching["jobs"] == self.N

        # batch-size histogram covers all N jobs across the batches run
        histogram = batching["batch_size_histogram"]
        assert sum(int(k) * v for k, v in histogram.items()) == self.N
        assert sum(histogram.values()) == batching["batches"]

        # queue fully drained
        queue = stats["queue"]
        assert queue["depth"] == 0
        assert queue["running"] == 0
        assert queue["done"] == self.N

        # cache consistency: one store (the solved spec); any cache_hits
        # seen by batching are reflected in the cache's own counters
        cache = stats["cache"]
        assert cache["stores"] == 1
        assert cache["hits"] == batching["cache_hits"]
        assert 0.0 <= cache["hit_rate"] <= 1.0

        # latency percentiles exist once jobs have flowed
        assert batching["latency_p50"] is not None
        assert batching["latency_p95"] >= batching["latency_p50"]

        # warm-session registry counters are always published (zeros
        # here: sessions are opt-in and this server runs without them)
        sessions = stats["sessions"]
        assert sessions["limit"] >= 1
        assert {"opened", "reused", "probes", "evicted", "open"} <= set(sessions)
        assert stats["runtime"]["sessions"] is False


class TestDeadline:
    def test_deadline_expiry_returns_timeout_state(self, server):
        _, client = server
        job = client.submit_verify(make_spec(), deadline=0.0)
        terminal = client.wait(job["id"], timeout=10)
        assert terminal["state"] == "timeout"
        assert "deadline" in terminal["error"]


class TestGracefulDrain:
    def test_drain_completes_in_flight_and_rejects_new(
        self, server, monkeypatch
    ):
        handle, client = server
        release = threading.Event()
        real = batching_module.verify_many

        def slow(specs, options, trace_parents=None):
            release.wait(timeout=10.0)
            return real(specs, options, trace_parents=trace_parents)

        monkeypatch.setattr(batching_module, "verify_many", slow)

        job = client.submit_verify(make_spec())
        # wait until the scheduler has the job in flight
        deadline = time.monotonic() + 5.0
        while client.job(job["id"])["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)

        handle.request_shutdown()
        time.sleep(0.1)  # let the drain flag flip

        # drain: health flips, new submissions are refused with 503 ...
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceError) as excinfo:
            client.submit_verify(make_spec())
        assert excinfo.value.status == 503

        # ... but polling still works and the in-flight job completes
        assert client.job(job["id"])["state"] == "running"
        release.set()
        handle.join(timeout=10.0)
        assert not handle.thread.is_alive()
        finished = handle.app.queue.get(job["id"])
        assert finished.state is JobState.DONE
        assert finished.result["outcome"] == "sat"
