"""Smoke-test the cluster telemetry plane across real processes.

Boots ``python -m repro.cli serve --replicas 3 --slo --flight`` (router
+ supervisor + three replica subprocesses) and proves the telemetry
plane's whole contract end to end:

1. **aggregation** — ``GET /clusterz/metrics`` merges every replica's
   scrape plus the router's own: all four processes appear under
   ``replica`` labels, and the merged histograms are *numerically
   exact* (each merged bucket/count equals the sum of the per-replica
   series it was folded from);
2. **build identity** — every process exports ``repro_build_info`` and
   all replicas report the same engine signature (no build skew);
3. **deadline miss** — a job is submitted with a deadline shorter than
   its solve time, so it reaches state ``timeout`` mid-run;
4. **burn-rate alert** — the ``jobs`` SLO sees the timeout in both
   windows, fires exactly once (rising edge, not once per tick), and
   the alert is bridged to a ``kind="slo_burn"`` monitor incident;
5. **flight recorder** — the offending trace id is frozen in a
   ``job_timeout`` flight snapshot whose span tree is >= 3 layers
   deep, and the alert's exemplar trace id resolves on
   ``/debugz/flight``;
6. **trace** — the same trace renders as a waterfall via the
   ``repro trace show`` CLI.

Used by CI (the "cluster telemetry smoke" step) and as an example::

    PYTHONPATH=src python examples/obs_cluster_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14, load_case
from repro.obs import agg
from repro.service.client import ServiceClient

RESULT_BUDGET_SECONDS = 120.0
WARMUP_BUSES = (3, 6, 9)
# the merge must be exact for these histogram families (identical
# bucket bounds on every replica: they run the same build)
EXACT_HISTOGRAMS = ("repro_http_request_seconds", "repro_job_run_seconds")

SLO_CONFIG = {
    "interval_seconds": 0.2,
    "windows": [
        {
            "name": "fast",
            "short_seconds": 2.0,
            "long_seconds": 12.0,
            "burn_threshold": 0.5,
            "severity": "critical",
        }
    ],
    "slos": [
        {
            "name": "jobs",
            "objective": 0.9,
            "kind": "availability",
            "metric": "repro_jobs_finished_total",
            "bad_label": "state",
            "bad_prefix": None,
            "bad_values": ["failed", "timeout"],
            "exemplar_metric": "repro_job_run_seconds",
        }
    ],
}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get_text(client, path):
    status, raw = client._raw_request("GET", path)
    assert status == 200, (path, status, raw)
    return raw.decode("utf-8")


def get_json(client, path):
    return json.loads(get_text(client, path))


def wait_for(predicate, timeout=30.0, poll=0.2, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(poll)
    raise AssertionError(f"{what} not met within {timeout}s")


def span_layers(spans):
    """Depth of the deepest span in a frozen snapshot's tree."""
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    best = 0
    for span in spans:
        depth, seen = 1, set()
        while (
            span.get("parent_id")
            and span["parent_id"] in by_id
            and span.get("span_id") not in seen
        ):
            seen.add(span.get("span_id"))
            span = by_id[span["parent_id"]]
            depth += 1
        best = max(best, depth)
    return best


def assert_exact_histogram_merge(families, name):
    """merged bucket/count series == sum of the per-replica series."""
    family = families.get(name)
    assert family is not None, f"family {name} missing from merged scrape"
    merged, summed = {}, {}
    for sample in family.samples:
        if not (
            sample.name.endswith("_bucket")
            or sample.name.endswith("_count")
        ):
            continue
        if sample.label("replica") is None:
            merged[(sample.name,) + sample.labels] = sample.value
        else:
            key = (sample.name,) + sample.without_labels("replica")
            summed[key] = summed.get(key, 0.0) + sample.value
    assert merged, f"no merged series for {name}"
    assert merged == summed, (
        f"{name}: merged != sum of replicas\n{merged}\n{summed}"
    )
    return len(merged)


def find_flight_snapshot(client, trace_id, reasons):
    payload = get_json(client, f"/debugz/flight?trace_id={trace_id}")
    stores = [payload.get("router") or {}]
    stores += list((payload.get("replicas") or {}).values())
    for store in stores:
        for snap in store.get("snapshots") or []:
            if snap.get("reason") in reasons and snap.get("trace_id") == trace_id:
                return snap
    return None


def main() -> int:
    port = free_port()
    scratch = tempfile.mkdtemp(prefix="repro-obs-cluster-")
    sink = os.path.join(scratch, "spans.jsonl")
    slo_path = os.path.join(scratch, "slo.json")
    with open(slo_path, "w") as fh:
        json.dump(SLO_CONFIG, fh)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" if not existing else "src" + os.pathsep + existing
    cluster = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--replicas",
            "3",
            "--trace-file",
            sink,
            "--slo",
            slo_path,
            "--flight",
        ],
        env=env,
    )
    try:
        client = ServiceClient(port=port, retries=8, backoff=0.1, timeout=120.0)
        client.wait_until_ready(timeout=60.0)
        health = client.health()
        assert health["role"] == "router", health
        assert len(health["replicas"]) == 3, health
        print(f"cluster up on port {port}: replicas {sorted(health['replicas'])}")

        # phase 1: good traffic, and a clean SLO baseline ---------------
        for bus in WARMUP_BUSES:
            spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))
            job = client.verify(spec, timeout=RESULT_BUDGET_SECONDS)
            assert job["state"] == "done", job
        wait_for(
            lambda: (
                lambda p: p["slos"]
                and p["slos"][0].get("total", 0) >= len(WARMUP_BUSES)
            )(get_json(client, "/sloz")),
            what="SLO baseline sample",
        )
        print(f"warmup OK: {len(WARMUP_BUSES)} good jobs, SLO evaluator sampling")

        # phase 2: merged scrape, exact histograms, build identity ------
        families = agg.parse_text(get_text(client, "/clusterz/metrics"))
        requests = families["repro_http_requests_total"].samples
        replicas_seen = {s.label("replica") for s in requests}
        assert {None, "r0", "r1", "r2"} <= replicas_seen, replicas_seen
        # the router's own serving metrics join under replica="router"
        router_requests = families["repro_router_requests_total"].samples
        assert "router" in {s.label("replica") for s in router_requests}
        for name in EXACT_HISTOGRAMS:
            series = assert_exact_histogram_merge(families, name)
            print(f"histogram merge exact: {name} ({series} merged series)")
        info = families["repro_build_info"].samples
        signatures = {
            s.label("replica"): s.label("engine_signature")
            for s in info
            if s.label("replica")
        }
        assert {"r0", "r1", "r2", "router"} <= set(signatures), signatures
        assert len(set(signatures.values())) == 1, f"build skew: {signatures}"
        print(f"build identity OK: {next(iter(signatures.values()))}")

        # phase 3: inject a deadline miss -------------------------------
        # ieee300 solves in ~0.6 s; a 0.35 s deadline expires mid-run, so
        # the job reaches `timeout` with a full span tree in the ring.
        # Adaptive retry covers pathological machines: a job that beat
        # the clock tightens the deadline, one that expired while still
        # queued (shallow trace) loosens it.
        deadline, timeout_job, snapshot = 0.35, None, None
        for attempt in range(5):
            spec = AttackSpec.default(
                load_case("ieee300"), goal=AttackGoal.states(7 + attempt)
            )
            job = client.submit_verify(spec, deadline=deadline)
            job = client.wait(job["id"], timeout=RESULT_BUDGET_SECONDS)
            if job["state"] == "done":
                deadline = max(0.05, deadline / 3.0)
                continue
            assert job["state"] == "timeout", job
            timeout_job = job
            snapshot = wait_for(
                lambda: find_flight_snapshot(
                    client, job["trace_id"], ("job_timeout",)
                ),
                timeout=10.0,
                what="job_timeout flight snapshot",
            )
            if span_layers(snapshot["spans"]) >= 3:
                break
            deadline *= 2.0  # expired while queued: shallow trace
        assert timeout_job is not None, "no deadline miss after 5 attempts"
        trace_id = timeout_job["trace_id"]
        print(f"deadline miss injected: job {timeout_job['id']} trace {trace_id}")

        # phase 4: the burn alert fires exactly once --------------------
        status = wait_for(
            lambda: (lambda p: p if p["alerts"] else None)(
                get_json(client, "/sloz")
            ),
            what="burn-rate alert",
        )
        alerts = status["alerts"]
        assert len(alerts) == 1, alerts  # rising edge, not one per tick
        assert alerts[0]["slo"] == "jobs", alerts
        assert alerts[0]["severity"] == "critical", alerts
        exemplar = alerts[0].get("exemplar_trace_id")
        assert exemplar, alerts
        # ... and stays fired-once after the short window drains
        time.sleep(3.0)
        assert len(get_json(client, "/sloz")["alerts"]) == 1
        print(f"burn alert OK: fired once, exemplar trace {exemplar}")

        # ... bridged to the monitor incident store
        incidents = wait_for(
            lambda: client.incidents(kind="slo_burn")["incidents"],
            what="slo_burn incident",
        )
        assert incidents[0]["kind"] == "slo_burn", incidents
        assert incidents[0]["detector"] == "slo", incidents
        assert incidents[0]["evidence"]["slo"] == "jobs", incidents
        print(f"incident OK: {incidents[0]['id']} severity {incidents[0]['severity']}")

        # phase 5: the offending trace is frozen, >= 3 layers deep ------
        layers = span_layers(snapshot["spans"])
        assert layers >= 3, (layers, snapshot["spans"])
        exemplar_store = get_json(client, f"/debugz/flight?trace_id={exemplar}")
        held = [exemplar_store.get("router") or {}]
        held += list((exemplar_store.get("replicas") or {}).values())
        assert any(s.get("snapshots") for s in held), exemplar_store
        print(
            f"flight OK: job_timeout snapshot {layers} layers deep, "
            f"exemplar resolves ({'same trace' if exemplar == trace_id else exemplar})"
        )

        # phase 6: the trace renders via the CLI ------------------------
        shown = subprocess.run(
            [sys.executable, "-m", "repro.cli", "trace", "show", sink,
             "--trace-id", trace_id],
            env=env,
            capture_output=True,
            text=True,
            timeout=60.0,
        )
        assert shown.returncode == 0, shown.stderr
        assert trace_id in shown.stdout, shown.stdout
        assert "job" in shown.stdout, shown.stdout
        print(shown.stdout)
    finally:
        cluster.send_signal(signal.SIGTERM)
        try:
            returncode = cluster.wait(timeout=45.0)
        except subprocess.TimeoutExpired:
            cluster.kill()
            print("FAIL: cluster did not drain within 45 s", file=sys.stderr)
            return 1
    if returncode != 0:
        print(f"FAIL: cluster exited with {returncode}", file=sys.stderr)
        return 1
    print(
        "OK: cluster telemetry smoke passed "
        "(aggregation, build identity, burn alert, flight, trace)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
