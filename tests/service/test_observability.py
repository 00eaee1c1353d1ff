"""End-to-end observability: one verify request → trace tree + metrics.

Boots the real service with tracing pointed at a JSONL sink, drives it
through the real client, then asserts the request left (a) a multi-layer
span tree retrievable by trace_id and (b) incremented Prometheus
families on ``/metricsz``.
"""

import json

import pytest

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.obs.render import render_file
from repro.obs.trace import get_tracer, set_tracer
from repro.runtime import ResultCache, RuntimeOptions
from repro.service.client import ServiceClient
from repro.service.http import start_in_thread


def make_spec(bus=9):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


@pytest.fixture
def traced_server(tmp_path):
    """Service with span tracing on and a JSONL sink under tmp_path."""
    previous = get_tracer()
    sink = tmp_path / "spans.jsonl"
    handle = start_in_thread(
        options=RuntimeOptions(jobs=1, cache=ResultCache()),
        trace_file=str(sink),
    )
    client = ServiceClient(port=handle.port)
    client.wait_until_ready()
    yield handle, client, sink
    handle.request_shutdown()
    handle.join(timeout=10.0)
    assert not handle.thread.is_alive()
    set_tracer(previous)


def sink_spans(sink):
    return [json.loads(line) for line in sink.read_text().splitlines()]


class TestTracePipeline:
    def test_verify_produces_multi_layer_trace(self, traced_server):
        _, client, sink = traced_server
        job = client.verify(make_spec(), timeout=60)
        assert job["result"]["outcome"] == "sat"
        trace_id = job["trace_id"]
        assert trace_id

        spans = [s for s in sink_spans(sink) if s["trace_id"] == trace_id]
        names = {s["name"] for s in spans}
        # request → job → runtime task → encode/solve: four layers deep
        assert {"job", "runtime.task", "verify.encode", "verify.solve"} <= names
        assert len(spans) >= 4

        by_id = {s["span_id"]: s for s in spans}
        solve = next(s for s in spans if s["name"] == "verify.solve")
        task = by_id[solve["parent_id"]]
        assert task["name"] == "runtime.task"
        job_span = by_id[task["parent_id"]]
        assert job_span["name"] == "job"
        assert solve["attributes"]["outcome"] == "sat"
        assert solve["attributes"]["backend"] == "smt"

    def test_trace_renders_as_waterfall(self, traced_server):
        _, client, sink = traced_server
        job = client.verify(make_spec(), timeout=60)
        text = render_file(sink, trace_id=job["trace_id"])
        assert f"trace {job['trace_id']}" in text
        assert "verify.solve" in text

    def test_http_request_span_recorded(self, traced_server):
        _, client, sink = traced_server
        client.health()
        spans = sink_spans(sink)
        http_spans = [s for s in spans if s["name"] == "http.request"]
        assert any(s["attributes"].get("path") == "/healthz" for s in http_spans)


class TestMetricsEndpoint:
    def test_scrape_covers_all_families(self, traced_server):
        _, client, _ = traced_server
        client.verify(make_spec(), timeout=60)
        text = client.metrics_text()
        for family in (
            "repro_http_requests_total",
            "repro_jobs_submitted_total",
            "repro_queue_depth",
            "repro_batch_size",
            "repro_cache_lookups_total",
            "repro_portfolio_races_total",
            "repro_session_events_total",
            "repro_solver_conflicts_total",
            "repro_solver_fill_ratio",
            "repro_solve_seconds",
        ):
            assert f"# TYPE {family} " in text

    def test_request_increments_counters(self, traced_server):
        _, client, _ = traced_server

        def submitted(text):
            # sum every label series: earlier tests in the process may
            # already have populated other `kind` values
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("repro_jobs_submitted_total{")
            )

        before = submitted(client.metrics_text())
        client.verify(make_spec(), timeout=60)
        after = submitted(client.metrics_text())
        assert after >= before + 1

    def test_healthz_reports_runtime_and_engine(self, traced_server):
        _, client, _ = traced_server
        health = client.health()
        assert health["runtime"]["jobs"] == 1
        assert "engine" in health and health["engine"]


class TestMonotonicJobClocks:
    def test_lifecycle_durations_are_non_negative(self, traced_server):
        _, client, _ = traced_server
        job = client.verify(make_spec(), timeout=60)
        assert job["queue_wait_seconds"] >= 0
        assert job["run_seconds"] >= 0
