"""Smoke-test the verification service end to end, across processes.

Starts ``python -m repro.cli serve`` as a real subprocess on a free
port, submits a verification job through the blocking client, asserts a
conclusive (sat/unsat) result within 60 seconds, prints the ``/statsz``
counters, then SIGTERMs the server and checks it drains cleanly.

Used by CI (the "service smoke" step) and as a copy-pasteable example::

    PYTHONPATH=src python examples/service_smoke.py
"""

import json
import os
import signal
import socket
import subprocess
import sys

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.service.client import ServiceClient

RESULT_BUDGET_SECONDS = 60.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main() -> int:
    port = free_port()
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
        ],
        env=env,
    )
    try:
        client = ServiceClient(port=port)
        client.wait_until_ready(timeout=30.0)
        print(f"server up on port {port}")

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        job = client.verify(spec, timeout=RESULT_BUDGET_SECONDS)
        outcome = job["result"]["outcome"]
        print(f"job {job['id']}: state={job['state']} outcome={outcome}")
        assert job["state"] == "done", job
        assert outcome in ("sat", "unsat"), job

        stats = client.stats()
        print("statsz:", json.dumps(stats, indent=2))
        assert stats["queue"]["done"] >= 1, stats
        assert stats["batching"]["solver_calls"] >= 1, stats
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            returncode = server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            print("FAIL: server did not drain within 30 s", file=sys.stderr)
            return 1
    if returncode != 0:
        print(f"FAIL: server exited with {returncode}", file=sys.stderr)
        return 1
    print("OK: verify round-trip conclusive and server drained cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
