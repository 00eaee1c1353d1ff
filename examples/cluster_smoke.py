"""Smoke-test the sharded cluster end to end, across real processes.

Boots ``python -m repro.cli serve --replicas 3 --sessions`` (router +
supervisor + three replica subprocesses sharing one disk cache tier and
one trace sink), then asserts the cluster's whole contract:

1. **sweep** — several spec families (distinct epsilons), each probed
   at several target buses *sequentially within the family* and
   concurrently across families, all conclusive;
2. **affinity** — every probe of a family answered by one replica, and
   the replicas' warm-session ``reused`` counters account for the
   repeat probes (the consistent-hash router kept families home);
3. **chaos** — SIGKILL one working replica mid-sweep; the re-run still
   completes (client retry + router failover + supervisor restart) and
   every result is bit-identical to the first pass (shared cache tier);
4. **baseline** — a fresh single-process ``repro serve --sessions``
   answers the same sweep with bit-identical results;
5. **trace** — one trace id spans router.request → http.request → job
   → solver work in the shared JSONL sink;
6. **errors** — unknown jobs and unknown replica pins answer
   structured JSON (``code`` field), and SIGTERM drains rc=0.

Used by CI (the "cluster smoke" step) and as an example::

    PYTHONPATH=src python examples/cluster_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.service.client import ServiceClient, ServiceError

RESULT_BUDGET_SECONDS = 90.0
EPSILONS = ("1/100", "1/150", "1/200")  # distinct epsilon = distinct family
TARGET_BUSES = (3, 6, 9)  # probes within one family
ROUTER_SPANS = {"router.request", "http.request", "job"}
SOLVER_SPANS = {"runtime.task", "session.probe", "verify.solve"}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_spec(bus):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


def run_sweep(client, results, errors):
    """Concurrent across families, sequential within each family."""

    def family(eps):
        try:
            for bus in TARGET_BUSES:
                job = client.verify(
                    make_spec(bus), epsilon=eps, timeout=RESULT_BUDGET_SECONDS
                )
                results[(eps, bus)] = job
        except Exception as exc:
            errors.append((eps, exc))

    threads = [threading.Thread(target=family, args=(eps,)) for eps in EPSILONS]
    for thread in threads:
        thread.start()
    return threads


def essence(job):
    """What must be bit-identical: the verdict and the witness."""
    return (job["result"]["outcome"], json.dumps(job["result"]["attack"], sort_keys=True))


def main() -> int:
    port = free_port()
    scratch = tempfile.mkdtemp(prefix="repro-cluster-")
    cache_dir = os.path.join(scratch, "cache")
    sink = os.path.join(scratch, "spans.jsonl")
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
            "--sessions",
            "--cache-dir",
            cache_dir,
            "--trace-file",
            sink,
        ],
        env=env,
    )
    baseline = None
    try:
        client = ServiceClient(port=port, retries=8, backoff=0.1, timeout=120.0)
        client.wait_until_ready(timeout=60.0)
        # ready means one live replica; affinity needs every family home
        deadline = time.monotonic() + 30.0
        while not all(client.health()["replicas"].values()):
            assert time.monotonic() < deadline, client.health()
            time.sleep(0.05)
        health = client.health()
        assert health["role"] == "router", health
        assert len(health["replicas"]) == 3, health
        print(f"cluster up on port {port}: replicas {sorted(health['replicas'])}")

        # phase 1: concurrent sweep ------------------------------------
        first, errors = {}, []
        for thread in run_sweep(client, first, errors):
            thread.join(timeout=RESULT_BUDGET_SECONDS * len(TARGET_BUSES))
        assert not errors, errors
        assert len(first) == len(EPSILONS) * len(TARGET_BUSES), sorted(first)
        for job in first.values():
            assert job["state"] == "done", job
            assert job["result"]["outcome"] in ("sat", "unsat"), job

        # affinity: one replica per family, every time
        homes = {}
        for (eps, bus), job in sorted(first.items()):
            homes.setdefault(eps, set()).add(job["replica"])
        for eps, replicas in homes.items():
            assert len(replicas) == 1, f"family {eps} bounced across {replicas}"
        print(
            "affinity OK:",
            {eps: next(iter(replicas)) for eps, replicas in sorted(homes.items())},
        )

        # ... corroborated by the warm-session counters on the replicas
        stats = client.stats()
        reused = sum(
            replica_stats["sessions"]["reused"]
            for replica_stats in stats["replicas"].values()
            if "sessions" in replica_stats
        )
        expected_reuse = len(EPSILONS) * (len(TARGET_BUSES) - 1)
        assert reused >= expected_reuse, (
            f"warm sessions reused {reused} < {expected_reuse}; "
            "affinity is not keeping families on their owning replica"
        )
        print(f"warm-session reuse OK: {reused} probes answered incrementally")

        # phase 2: kill one working replica mid-sweep ------------------
        topology = client._request("GET", "/clusterz")
        victim_id = next(iter(sorted(homes.items())[0][1]))  # owns a family
        victim = next(
            r for r in topology["replicas"] if r["replica_id"] == victim_id
        )
        second, errors = {}, []
        os.kill(victim["pid"], signal.SIGKILL)
        threads = run_sweep(client, second, errors)  # probes hit the corpse
        print(f"killed replica {victim_id} (pid {victim['pid']}) mid-sweep")
        for thread in threads:
            thread.join(timeout=RESULT_BUDGET_SECONDS * len(TARGET_BUSES))
        assert not errors, errors
        assert len(second) == len(first), sorted(second)
        for key in first:
            assert essence(second[key]) == essence(first[key]), (
                f"{key}: {essence(second[key])} != {essence(first[key])}"
            )
        topology = client._request("GET", "/clusterz")
        assert topology["counters"]["failovers"] >= 1, (
            "the victim's family never failed over: " + json.dumps(topology)
        )
        print("chaos OK: sweep completed bit-identically with a replica down")

        # ... and the supervisor brings the victim back on the same port
        deadline = time.monotonic() + 30.0
        while True:
            topology = client._request("GET", "/clusterz")
            revived = next(
                r for r in topology["replicas"] if r["replica_id"] == victim_id
            )
            if revived["alive"] and revived["pid"] != victim["pid"]:
                break
            assert time.monotonic() < deadline, f"{victim_id} not revived: {revived}"
            time.sleep(0.2)
        assert revived["port"] == victim["port"], revived
        print(f"supervisor OK: {victim_id} restarted as pid {revived['pid']}")

        # phase 3: single-process baseline, bit-identical --------------
        baseline_port = free_port()
        baseline = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                str(baseline_port),
                "--sessions",
            ],
            env=env,
        )
        baseline_client = ServiceClient(port=baseline_port, timeout=120.0)
        baseline_client.wait_until_ready(timeout=30.0)
        reference, errors = {}, []
        for thread in run_sweep(baseline_client, reference, errors):
            thread.join(timeout=RESULT_BUDGET_SECONDS * len(TARGET_BUSES))
        assert not errors, errors
        for key in first:
            assert essence(reference[key]) == essence(first[key]), (
                f"{key}: cluster {essence(first[key])} != "
                f"single-process {essence(reference[key])}"
            )
        baseline.send_signal(signal.SIGTERM)
        assert baseline.wait(timeout=30.0) == 0
        baseline = None
        print("baseline OK: cluster results bit-identical to single process")

        # phase 4: one trace id across router -> replica -> solver -----
        trace_id = next(iter(first.values()))["trace_id"]
        with open(sink) as fh:
            spans = [json.loads(line) for line in fh if line.strip()]
        names = {span["name"] for span in spans if span["trace_id"] == trace_id}
        assert ROUTER_SPANS <= names, f"trace incomplete: {sorted(names)}"
        assert names & SOLVER_SPANS, f"no solver span in trace: {sorted(names)}"
        print(f"trace OK: {trace_id} spans {sorted(names)}")

        # phase 5: structured errors -----------------------------------
        try:
            client.job("no-such-job")
            raise AssertionError("unknown job did not 404")
        except ServiceError as exc:
            assert exc.status == 404, exc
        try:
            client._request("GET", "/v1/jobs/x?replica=r99")
            raise AssertionError("unknown replica did not error")
        except ServiceError as exc:
            assert exc.status == 503 and exc.payload["code"] == "unknown_replica", exc
        print("structured errors OK")
    finally:
        if baseline is not None and baseline.poll() is None:
            baseline.kill()
            baseline.wait(timeout=10.0)
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
    print("OK: cluster smoke passed (affinity, failover, bit-identity, tracing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
