"""Smoke-test end-to-end observability across process boundaries.

Starts ``python -m repro.cli serve --trace-file`` as a real subprocess
on a free port, submits one verification job, then asserts the three
observability planes all saw it:

1. **trace** — the job's ``trace_id`` resolves to a span tree with at
   least four layers (``http.request`` → ``job`` → ``runtime.task`` →
   ``verify.solve``) in the JSONL sink, and renders as a waterfall;
2. **metrics** — ``GET /metricsz`` is valid Prometheus text whose
   queue/batch/cache/solver counters incremented;
3. **identity** — ``GET /healthz`` reports the runtime knobs and the
   solver engine signature.

Used by CI (the "observability smoke" step) and as an example::

    PYTHONPATH=src python examples/obs_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.obs.render import render_file
from repro.service.client import ServiceClient

RESULT_BUDGET_SECONDS = 60.0
REQUIRED_SPAN_NAMES = {"job", "runtime.task", "verify.encode", "verify.solve"}
REQUIRED_FAMILIES = (
    "repro_http_requests_total",
    "repro_jobs_submitted_total",
    "repro_batch_size",
    "repro_cache_lookups_total",
    "repro_solve_seconds",
    "repro_solver_conflicts_total",
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def metric_value(text: str, prefix: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(prefix) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def main() -> int:
    port = free_port()
    sink = os.path.join(tempfile.mkdtemp(prefix="repro-obs-"), "spans.jsonl")
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" if not existing else "src" + os.pathsep + existing
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--trace-file",
            sink,
        ],
        env=env,
    )
    try:
        client = ServiceClient(port=port)
        client.wait_until_ready(timeout=30.0)
        print(f"server up on port {port}, trace sink {sink}")

        health = client.health()
        assert health["runtime"]["jobs"] is not None, health
        assert health["engine"], health
        print(f"engine: {health['engine']}")

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        job = client.verify(spec, timeout=RESULT_BUDGET_SECONDS)
        assert job["state"] == "done", job
        trace_id = job["trace_id"]
        print(f"job {job['id']}: outcome={job['result']['outcome']} trace={trace_id}")

        # plane 1: the trace reached the sink with >=4 layers
        with open(sink) as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
        mine = [span for span in spans if span["trace_id"] == trace_id]
        names = {span["name"] for span in mine}
        assert REQUIRED_SPAN_NAMES <= names, f"trace incomplete: {sorted(names)}"
        assert len(mine) >= 4, mine
        print(render_file(sink, trace_id=trace_id))

        # plane 2: the metrics endpoint saw the same request
        text = client.metrics_text()
        for family in REQUIRED_FAMILIES:
            assert f"# TYPE {family} " in text, f"missing family {family}"
        assert metric_value(text, "repro_jobs_submitted_total") >= 1, text
        assert metric_value(text, "repro_solve_seconds_count") >= 1, text
        print(f"metricsz OK: {len(text.splitlines())} lines, all families present")

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30.0)
        assert code == 0, f"server exited {code}"
        print("observability smoke OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
