"""Incident ingestion/query, structured 400s, and per-priority depths."""

import asyncio
import http.client
import json

import pytest

from repro.obs.trace import get_tracer, set_tracer
from repro.runtime import ResultCache, RuntimeOptions
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import start_in_thread
from repro.service.jobs import JobQueue


def incident_payload(id="state_drift-00020-00", **overrides):
    payload = {
        "id": id,
        "kind": "state_drift",
        "severity": "critical",
        "tick": 20,
        "detector": "state_drift",
        "evidence_ticks": [11, 20],
        "evidence": {"drifted_buses": [4]},
        "verification": {"outcome": "sat", "min_cost": 7},
        "countermeasure": {"feasible": True, "secured_buses": [5]},
    }
    payload.update(overrides)
    return payload


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


def raw_post(port, path, body: bytes):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestIncidentRoundTrip:
    def test_post_then_get(self, server):
        _, client = server
        answer = client.post_incident(incident_payload())
        assert answer == {"id": "state_drift-00020-00", "stored": 1}
        result = client.incidents()
        assert result["count"] == 1
        stored = result["incidents"][0]
        assert stored["kind"] == "state_drift"
        assert stored["countermeasure"]["secured_buses"] == [5]

    def test_query_filters(self, server):
        _, client = server
        client.post_incident(incident_payload())
        client.post_incident(
            incident_payload(
                id="bad_data-00030-00", kind="bad_data", severity="minor", tick=30
            )
        )
        client.post_incident(
            incident_payload(
                id="vulnerability_shift-00040-00",
                kind="vulnerability_shift",
                severity="major",
                tick=40,
            )
        )
        assert client.incidents(kind="bad_data")["count"] == 1
        assert client.incidents(min_severity="major")["count"] == 2
        assert client.incidents(since_tick=35)["count"] == 1
        limited = client.incidents(limit=1)
        assert limited["count"] == 1
        assert limited["incidents"][0]["tick"] == 40  # newest kept

    def test_incidents_visible_in_statsz(self, server):
        _, client = server
        client.post_incident(incident_payload())
        stats = client.stats()
        assert stats["incidents"]["stored"] == 1
        assert stats["incidents"]["by_severity"] == {"critical": 1}
        assert stats["incidents"]["by_kind"] == {"state_drift": 1}

    def test_invalid_incident_rejected(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.post_incident({"id": "x", "kind": "state_drift"})
        assert excinfo.value.status == 400
        assert "invalid incident" in excinfo.value.payload["error"]

    def test_bad_query_value_rejected(self, server):
        _, client = server
        with pytest.raises(ServiceError) as excinfo:
            client.incidents(since_tick="soon")
        assert excinfo.value.status == 400
        assert "integer" in excinfo.value.payload["error"]


class TestMalformedBodies:
    """Satellite: non-JSON bodies answer 400, never a traceback."""

    @pytest.mark.parametrize(
        "path", ["/v1/verify", "/v1/synthesize", "/v1/incidents"]
    )
    def test_non_json_body_is_structured_400(self, server, path):
        handle, _ = server
        status, payload = raw_post(handle.port, path, b"{definitely not json")
        assert status == 400
        assert payload["code"] == "invalid_json"
        assert "JSON" in payload["error"]

    def test_unknown_endpoint_has_code(self, server):
        handle, _ = server
        status, payload = raw_post(handle.port, "/v1/nothing", b"{}")
        assert status == 404
        assert payload["code"] == "not_found"


class TestPerPriorityDepths:
    def test_queue_counts_by_priority(self):
        async def scenario():
            queue = JobQueue()
            await queue.submit("verify", {}, priority=0)
            await queue.submit("verify", {}, priority=0)
            await queue.submit("verify", {}, priority=-10)
            return queue.depth_by_priority(), queue.snapshot()

        depths, snapshot = asyncio.run(scenario())
        assert depths == {"-10": 1, "0": 2}
        assert list(depths) == ["-10", "0"]  # sorted by priority
        assert snapshot["depth_by_priority"] == depths

    def test_statsz_exposes_depths(self, server):
        _, client = server
        stats = client.stats()
        assert "depth_by_priority" in stats["queue"]
        assert stats["queue"]["depth_by_priority"] == {}  # idle service


class TestTraceContextHeader:
    def test_server_span_joins_client_trace(self, tmp_path):
        previous = get_tracer()
        sink = tmp_path / "spans.jsonl"
        handle = start_in_thread(
            options=RuntimeOptions(jobs=1, cache=ResultCache()),
            trace_file=str(sink),
        )
        try:
            client = ServiceClient(port=handle.port)
            client.wait_until_ready()
            with get_tracer().span("monitor.publish") as span:
                client.post_incident(incident_payload())
                trace_id = span.trace_id
            assert trace_id
            spans = [json.loads(line) for line in sink.read_text().splitlines()]
            joined = [
                s
                for s in spans
                if s["name"] == "http.request"
                and s["trace_id"] == trace_id
                and s["attributes"].get("path") == "/v1/incidents"
            ]
            assert joined, "server request span must join the caller's trace"
        finally:
            handle.request_shutdown()
            handle.join(timeout=10.0)
            set_tracer(previous)
