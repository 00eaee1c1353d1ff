"""Smoke-test the monitor → service → runtime → solver pipeline.

Starts ``python -m repro.cli serve --sessions --trace-file`` as a real
subprocess on a free port, then runs the streaming monitor in this
process against it: a ``telemetry_spoof`` scenario on ieee14 whose
``a = H c`` injection is invisible to the chi-square test but moves the
estimated state.  Asserts the full incident path worked:

1. **detection + countermeasure** — the run raises at least one
   ``state_drift`` incident whose re-verification (executed by the
   service) confirms a feasible attack and attaches a synthesized
   countermeasure;
2. **publication** — the incident is in the local JSONL sink and
   queryable from the service via ``GET /v1/incidents``;
3. **one trace, four layers** — the incident's trace id resolves, in
   the shared span sink, to monitor spans (``monitor.run`` →
   ``monitor.reverify``) *and* server-side spans (``http.request`` →
   ``job`` → ``runtime.task`` → ``verify.solve``): the monitor's probes
   and the solver work they caused share a single trace across the
   process boundary;
4. **warm sessions** — ``/statsz`` shows the serviced probes reused
   warm verification sessions.

Used by CI (the "monitor smoke" step) and as an example::

    PYTHONPATH=src python examples/monitor_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile

from repro.grid.cases import ieee14
from repro.monitor.engine import MonitorConfig, MonitorEngine
from repro.monitor.incidents import IncidentSink
from repro.monitor.scenario import resolve_scenario
from repro.obs.trace import configure_tracing
from repro.service.client import ServiceClient

TICKS = 80
SEED = 7
MONITOR_SPANS = {"monitor.run", "monitor.reverify"}
SERVICE_SPANS = {"http.request", "job", "runtime.task"}
# the solver layer: warm-session probes on the sessions path, a cold
# encode+solve otherwise
SOLVER_SPANS = {"session.probe", "verify.solve"}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> int:
    port = free_port()
    workdir = tempfile.mkdtemp(prefix="repro-monitor-")
    span_sink = os.path.join(workdir, "spans.jsonl")
    incident_sink = os.path.join(workdir, "incidents.jsonl")
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
            "--sessions",
            "--trace-file",
            span_sink,
        ],
        env=env,
    )
    try:
        client = ServiceClient(port=port)
        client.wait_until_ready(timeout=30.0)
        print(f"server up on port {port}, span sink {span_sink}")

        # the monitor process appends to the same span sink; both sides
        # of every re-verification then land in one JSONL file
        configure_tracing(enabled=True, jsonl_path=span_sink)

        grid = ieee14()
        scenario = resolve_scenario("telemetry_spoof", grid, ticks=TICKS)
        engine = MonitorEngine(
            grid,
            scenario,
            MonitorConfig(ticks=TICKS, seed=SEED),
            client=client,
            sink=IncidentSink(incident_sink),
        )
        report = engine.run()
        print(
            f"monitored ieee14/telemetry_spoof: {report.ticks} ticks, "
            f"digest {report.stream_digest[:16]}, "
            f"{len(report.incidents)} incident(s)"
        )

        # 1: a state-drift incident with a confirmed attack + countermeasure
        confirmed = [
            incident
            for incident in report.incidents
            if incident.kind == "state_drift"
            and incident.verification is not None
            and incident.verification["outcome"] == "sat"
            and incident.countermeasure is not None
        ]
        assert confirmed, [i.signature() for i in report.incidents]
        incident = confirmed[0]
        secured = incident.countermeasure["secured_buses"]
        assert secured, incident.countermeasure
        print(
            f"incident {incident.id}: severity={incident.severity} "
            f"min_cost={incident.verification['min_cost']} "
            f"countermeasure=secure buses {secured}"
        )

        # 2: published locally and to the service
        with open(incident_sink) as fh:
            sunk = [json.loads(line) for line in fh if line.strip()]
        assert any(entry["id"] == incident.id for entry in sunk), sunk
        served = client.incidents(kind="state_drift")
        assert served["count"] >= 1, served
        assert any(i["id"] == incident.id for i in served["incidents"]), served
        print(f"incident published: sink={len(sunk)} service={served['count']}")

        # 3: monitor and service spans share the incident's trace id
        assert incident.trace_id, incident
        with open(span_sink) as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
        names = {
            span["name"] for span in spans if span["trace_id"] == incident.trace_id
        }
        assert MONITOR_SPANS <= names, f"monitor side incomplete: {sorted(names)}"
        assert SERVICE_SPANS <= names, f"service side incomplete: {sorted(names)}"
        assert SOLVER_SPANS & names, f"no solver span in trace: {sorted(names)}"
        print(
            f"trace {incident.trace_id}: {len(names)} span kinds across "
            "monitor -> service -> runtime -> solver"
        )

        # 4: the serviced probes ran on warm verification sessions
        sessions = client.stats()["sessions"]
        assert sessions["opened"] >= 1, sessions
        assert sessions["reused"] >= 1, sessions
        print(
            f"warm sessions: opened={sessions['opened']} "
            f"reused={sessions['reused']} probes={sessions['probes']}"
        )

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30.0)
        assert code == 0, f"server exited {code}"
        print("monitor smoke OK")
        return 0
    finally:
        configure_tracing(enabled=False)
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
