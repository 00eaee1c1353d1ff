"""End-to-end benchmark of the default engine: five seeded workloads.

One load-generator process runs each workload in fresh processes, one at
a time, through the three entry points users have: the library
(``library.py``), ``repro serve`` (two closed-loop client threads) and
the ``repro`` CLI (sequential subprocesses).  It checks every answer
(``checks.py``), prints every metric by name with its unit and sample
count, and prints one JSON summary as the last line::

    python benchmarks/e2e/run.py --workload casestudy14 --seed 1
    python benchmarks/e2e/run.py --seed 1 --out results.json  # all five
    python benchmarks/e2e/run.py --workload serve --trace 1   # layer split
    python benchmarks/e2e/run.py --smoke                      # tiny passes
    python benchmarks/e2e/run.py --record                     # expected.json

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics from a run that repeats one pass
with the layer wrappers of ``layers.py`` installed.  End-to-end times
are reported at the reference host speed of ``hostspeed.py``, next to
the clock's own readings.  See README.md.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import checks
import hostspeed
import workloads
from layers import Summary, layer_metrics, read_jsonl, summarize, within
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / ".out"

#: cold starts per run whose median is setup_s
SETUP_SAMPLES = 3
#: longest any child process may take
CHILD_TIMEOUT = 150.0
#: engine switches the measured pass refuses to run under
GUARDED_ENV = (
    "REPRO_THEORY_KERNEL",
    "REPRO_THEORY_PROPAGATION",
    "REPRO_SAT_KERNEL",
    "REPRO_SAT_CONFIG",
    "REPRO_SMT_PROFILE",
)
GUARDED_PREFIX = "REPRO_TRACE"


class RunError(RuntimeError):
    """A process of the run failed; the run reports no result."""


def child_env(profile: bool = False) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT / "tmp")
    if profile:
        env["REPRO_SMT_PROFILE"] = "1"
    return env


def guarded_variables() -> List[str]:
    return sorted(
        name
        for name in os.environ
        if name in GUARDED_ENV or name.startswith(GUARDED_PREFIX)
    )


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(
    setup: Sequence[Tuple[float, float]],
    walls: Sequence[float],
    ref_walls: Sequence[float],
    records: Sequence[Dict[str, Any]],
    samples: Sequence[hostspeed.Sample],
    peak_rss_mb: float,
    failed: int,
) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one run.

    Times are at the reference speed of ``hostspeed.py``: ``setup`` holds
    (clock, reference) seconds per cold start, ``ref_walls`` the passes
    and each record its ``ref_latency``.  The ``clock.*`` metrics are the
    same times as the clock read them, and ``host.slowdown`` says how far
    from the reference speed the measured processes ran (``samples``);
    neither is gated.
    """
    latencies = [r["ref_latency"] for r in records]
    n = len(records)
    return {
        "setup_s": metric(statistics.median(s for _, s in setup), "s", len(setup)),
        "wall_s": metric(statistics.median(ref_walls), "s", len(ref_walls)),
        "latency_p50_s": metric(percentile(latencies, 50), "s", n),
        "latency_p95_s": metric(percentile(latencies, 95), "s", n),
        "throughput_rps": metric(n / sum(ref_walls), "req/s", n),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
        "error_rate": metric(failed / n, "ratio", n),
        "clock.setup_s": metric(statistics.median(s for s, _ in setup), "s", len(setup)),
        "clock.wall_s": metric(statistics.median(walls), "s", len(walls)),
        "clock.latency_p50_s": metric(percentile([r["latency"] for r in records], 50), "s", n),
        "host.slowdown": metric(hostspeed.slowdown(samples), "ratio", len(samples)),
    }


def trace_metrics(summary, wall: float, plain_wall: float, traced_wall: float, import_s: float):
    out = {name: metric(v, unit, 1) for name, (v, unit) in layer_metrics(summary).items()}
    out["cli.import_s"] = metric(import_s, "s", 1)
    out["trace.overhead_ratio"] = metric(traced_wall / plain_wall, "ratio", 1)
    out["trace.coverage"] = metric(summary.covered / wall, "ratio", 1)
    return out


def split_imports(spans):
    imports = sum(s["end"] - s["start"] for s in spans if s["layer"] == "cli.import")
    return imports, [s for s in spans if s["layer"] != "cli.import"]


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def cold_start(interval: Tuple[float, float], samples_path: Path) -> Tuple[float, float]:
    """(clock, reference) seconds of a cold start, from the host-speed
    samples its process wrote."""
    start, end = interval
    samples = hostspeed.read_samples(samples_path)
    return end - start, hostspeed.at_reference(start, end, samples)


def spawn_until_ready(
    cmd: List[str], env: Dict[str, str]
) -> Tuple[subprocess.Popen, Tuple[float, float]]:
    """Start ``cmd``; return it and the monotonic times of the spawn and
    of the ``ready`` line it printed."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    deadline = start + CHILD_TIMEOUT
    seen = b""
    while b"ready\n" not in seen:
        remaining = deadline - time.monotonic()
        readable = select.select([proc.stdout], [], [], max(0.0, remaining))[0]
        chunk = os.read(proc.stdout.fileno(), 4096) if readable else None
        if not chunk:
            stop_process(proc)
            raise RunError(f"{' '.join(cmd[1:3])} ended or stalled before set-up finished")
        seen += chunk
    return proc, (start, time.monotonic())


def finish_child(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_process(proc)
        raise RunError("child process timed out")
    if proc.returncode != 0:
        raise RunError(f"child process exited with {proc.returncode}")


def stop_process(proc: subprocess.Popen, grace: float = 30.0) -> None:
    """SIGTERM, wait ``grace`` seconds, then SIGKILL; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------
def run_library(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    base = [
        sys.executable,
        str(HERE / "library.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
    ] + (["--smoke"] if smoke else [])
    env = child_env()
    setup = []
    # the workload process's own set-up is the last cold start
    for index in range(0 if trace or smoke else SETUP_SAMPLES - 1):
        samples_path = OUT / f"{name}-setup-{index}-samples.json"
        proc, ready = spawn_until_ready(base + ["--setup-only", "--samples", str(samples_path)], env)
        finish_child(proc)
        setup.append(cold_start(ready, samples_path))
    result_path = OUT / f"{name}-result.json"
    spans_path = OUT / f"{name}-spans.jsonl"
    samples_path = OUT / f"{name}-samples.json"
    cmd = base + ["--result", str(result_path)]
    if trace:
        cmd += ["--trace", "--spans", str(spans_path)]
    else:
        cmd += ["--samples", str(samples_path)]
    proc, ready = spawn_until_ready(cmd, env)
    finish_child(proc)
    data = json.loads(result_path.read_text())

    records = data["requests"]
    failed = [r for r in records if r["errors"]]
    out = {
        "engine": data["engine"],
        "attempted": len(records),
        "failed": len(failed),
        "errors": [f"{r['key']}: {'; '.join(r['errors'])}" for r in failed],
    }
    if trace:
        info = data["trace"]
        # spans outside the window are set-up's grid loads: they count;
        # coverage is over the requests' own time (their sum is the wall)
        import_s, spans = split_imports(read_jsonl(spans_path))
        out["layers"] = trace_metrics(
            summarize(spans, tuple(info["window"])),
            info["traced_wall"],
            info["plain_wall"],
            info["traced_wall"],
            import_s,
        )
    else:
        setup.append(cold_start(ready, samples_path))
        out["metrics"] = end_to_end(
            setup,
            data["walls"],
            data["ref_walls"],
            records,
            hostspeed.read_samples(samples_path),
            data["peak_rss_mb"],
            len(failed),
        )
        out["layers"] = {}
    return out


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess in its default configuration: with
    ``spans``, under the layer wrappers (``serve_traced.py``); with
    ``samples``, under the host-speed sampler (``sampled.py``)."""

    def __init__(self, spans: Optional[Path] = None, samples: Optional[Path] = None) -> None:
        self.port = free_port()
        argv = ["serve", "--port", str(self.port)]
        self.samples_path = samples
        if spans is not None:
            launcher = [str(HERE / "serve_traced.py"), "--spans", str(spans), "--"]
        elif samples is not None:
            launcher = [str(HERE / "sampled.py"), "--samples", str(samples), "--"]
        else:
            launcher = ["-m", "repro.cli"]
        self.cmd = [sys.executable, *launcher, *argv]
        self.env = child_env(profile=spans is not None)
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> Tuple[float, float]:
        """Spawn; return the monotonic times of the spawn and of the
        first answer from ``/healthz`` (10 ms polls)."""
        start = time.monotonic()
        with open(OUT / "serve.log", "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
        while True:
            try:
                self.health = self.get("/healthz")
                return start, time.monotonic()
            except OSError:
                if self.proc.poll() is not None or time.monotonic() - start > 60:
                    self.stop()
                    raise RunError("repro serve did not come up; see .out/serve.log")
                time.sleep(0.01)

    def get(self, path: str) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise OSError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RunError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)


class ServeLoad:
    """Two closed-loop client threads sending a pass's requests."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.runtime.serialize import spec_to_payload

        self.seed, self.smoke = seed, smoke
        self._to_payload = spec_to_payload
        self._payloads: Dict[str, Dict[str, Any]] = {}
        #: monotonic (start, end) of each pass run so far
        self.passes: List[Tuple[float, float]] = []

    def payloads(self, requests) -> None:
        """Build spec payloads ahead of the timed pass."""
        for params in workloads.flatten(requests):
            key = workloads.request_key(params)
            if key not in self._payloads:
                spec = workloads.build_spec(params)
                self._payloads[key] = self._to_payload(spec)

    def send(self, client, params) -> Dict[str, Any]:
        from repro.service.client import ServiceError

        payload = self._payloads[workloads.request_key(params)]
        start = time.monotonic()
        try:
            if params["op"] == "verify":
                job = client.verify(spec=payload, timeout=60.0, wait=True)
            else:
                job = client.synthesize(
                    spec=payload, budget=params["budget"], timeout=120.0, wait=True
                )
            error = None if job["state"] == "done" else f"job {job['state']}"
        except (ServiceError, OSError, TimeoutError) as exc:
            job, error = None, f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        return {"params": params, "job": job, "interval": (start, end), "latency": end - start, "error": error}

    def warm_up(self, server: Server, params) -> None:
        """One untimed request, so the first timed one meets a warm server."""
        from repro.service.client import ServiceClient

        error = self.send(ServiceClient(port=server.port, timeout=60.0), params)["error"]
        if error:
            raise RunError(f"warm-up request failed: {error}")

    def run_pass(self, server: Server, index: int) -> Tuple[float, List[Dict[str, Any]]]:
        from repro.service.client import ServiceClient

        lists = workloads.serve_pass(self.seed, index, smoke=self.smoke)
        self.payloads(lists)
        results: List[List[Dict[str, Any]]] = [[], []]

        def client_loop(which: int) -> None:
            client = ServiceClient(port=server.port, timeout=60.0)
            results[which] = [self.send(client, params) for params in lists[which]]

        other = threading.Thread(target=client_loop, args=(1,))
        start = time.monotonic()
        other.start()
        client_loop(0)
        other.join()
        self.passes.append((start, time.monotonic()))
        return self.passes[-1][1] - start, results[0] + results[1]


def serve_layers(records: List[Dict[str, Any]], before: Dict, after: Dict) -> Dict[str, Any]:
    """Per-layer numbers from public job fields and ``/statsz`` deltas."""
    overhead, waits, holds = [], [], []
    for record in records:
        job = record["job"]
        if record["error"] or job is None:
            continue
        queue_wait, run = job["queue_wait_seconds"], job["run_seconds"]
        result = job["result"]
        own = 0.0 if result.get("statistics", {}).get("cache_hit") else result["runtime_seconds"]
        overhead.append(record["latency"] - queue_wait - run)
        waits.append(queue_wait)
        holds.append(run - own)
    batching = {k: after["batching"][k] - before["batching"][k] for k in ("jobs", "batches", "dedup_hits", "solver_calls")}
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    n = len(overhead)
    return {
        "service.http.overhead_p50_s": metric(percentile(overhead, 50), "s", n),
        "service.jobs.queue_wait_p50_s": metric(percentile(waits, 50), "s", n),
        "service.jobs.queue_wait_p95_s": metric(percentile(waits, 95), "s", n),
        "service.batching.hold_p50_s": metric(percentile(holds, 50), "s", n),
        "service.batching.batch_size_mean": metric(
            batching["jobs"] / max(1, batching["batches"]), "count", batching["batches"]
        ),
        "service.batching.dedup_hits": metric(batching["dedup_hits"], "count", n),
        "service.batching.solver_calls": metric(batching["solver_calls"], "count", n),
        "runtime.cache.hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio", lookups),
    }


def check_serve(records: List[Dict[str, Any]]) -> List[str]:
    checker = checks.Checker()
    errors = []
    for record in records:
        problems = [record["error"]] if record["error"] else []
        if not problems:
            params, result = record["params"], record["job"]["result"]
            if params["op"] == "verify":
                answer = {"outcome": result["outcome"], "attack": result["attack"]}
            else:
                answer = {"feasible": result["feasible"], "architecture": result["architecture"]}
            if answer.get("outcome") == "unknown":
                problems.append("UNKNOWN verdict")
            else:
                problems = checks.check_answer(checker, params, answer)
        record["errors"] = problems
        if problems:
            errors.append(f"{json.dumps(record['params'])}: {'; '.join(problems)}")
    return errors


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    load = ServeLoad(seed, smoke)
    warmup = workloads.WARMUPS["serve"]
    load.payloads([warmup])
    servers: List[Server] = []
    cold_starts: List[Tuple[Tuple[float, float], Server]] = []
    try:
        for index in range(1 if trace or smoke else SETUP_SAMPLES):
            for server in servers:
                server.stop()
            samples_path = None if trace else OUT / f"serve-{index}-samples.json"
            servers = [Server(samples=samples_path)]
            cold_starts.append((servers[0].start(), servers[0]))
        server = servers[0]
        health = server.health
        load.warm_up(server, warmup)
        out: Dict[str, Any] = {"engine": health["engine"], "serve_runtime": health["runtime"]}
        if trace:
            plain_wall, plain = load.run_pass(server, 0)
            server.stop()
            spans_path = OUT / "serve-spans.jsonl"
            server = Server(spans=spans_path)
            servers.append(server)
            server.start()
            load.warm_up(server, warmup)
            before = server.get("/statsz")
            window_start = time.monotonic()
            traced_wall, traced = load.run_pass(server, 0)
            window = (window_start, time.monotonic())
            after = server.get("/statsz")
            server.stop()
            records = plain + traced
            measured = traced
        else:
            before = server.get("/statsz")
            walls, records = workloads.repeat_passes(
                lambda index: load.run_pass(server, index), seconds
            )
            after = server.get("/statsz")
            peak_rss_mb = server.vm_hwm_mb()
            server.stop()
            measured = records
    finally:
        for each in servers:
            each.stop()

    errors = check_serve(records)
    failed = sum(1 for r in records if r["errors"])
    out.update(attempted=len(records), failed=failed, errors=errors)
    ok = [r for r in measured if not r["errors"]]
    out["layers"] = serve_layers(ok, before, after)
    if trace:
        # the server's spans outside the window belong to the warm-up
        import_s, spans = split_imports(read_jsonl(spans_path))
        summary = summarize(within(spans, window), window)
        out["layers"].update(
            trace_metrics(summary, window[1] - window[0], plain_wall, traced_wall, import_s)
        )
    else:
        # each server wrote its samples when it stopped
        setup = [cold_start(interval, s.samples_path) for interval, s in cold_starts]
        samples = hostspeed.read_samples(server.samples_path)
        for record in records:
            record["ref_latency"] = hostspeed.at_reference(*record["interval"], samples)
        ref_walls = [hostspeed.at_reference(start, end, samples) for start, end in load.passes]
        out["metrics"] = end_to_end(setup, walls, ref_walls, records, samples, peak_rss_mb, failed)
    return out


# ----------------------------------------------------------------------
# repro CLI
# ----------------------------------------------------------------------
_VERIFY = re.compile(r"^verification \[\w+\]: (\w+)", re.M)
_MINCOST = re.compile(r"^minimum measurements budget: (\d+)", re.M)
_SECURE = re.compile(r"secure buses \[([\d, ]*)\]")


def cli_answer(params: Dict[str, Any], code: int, stdout: str) -> Tuple[Dict[str, Any], List[str]]:
    """Read the verdict off a CLI call; exit-code mismatches are errors."""
    op = params["op"]
    if op == "verify":
        match = _VERIFY.search(stdout)
        outcome = match.group(1) if match else "unparsed"
        expected_code = 2 if outcome == "sat" else 0
        answer: Dict[str, Any] = {"outcome": outcome}
    elif op == "mincost":
        match = _MINCOST.search(stdout)
        answer = {"cost": int(match.group(1)) if match else None}
        if not match and "infeasible at any budget" not in stdout:
            return answer, ["unparsed mincost output"]
        expected_code = 0
    else:
        match = _SECURE.search(stdout)
        if match:
            architecture = [int(b) for b in match.group(1).replace(",", " ").split()]
        elif "nothing to secure" in stdout:
            architecture = []
        else:
            architecture = None
        answer = {"feasible": architecture is not None, "architecture": architecture}
        expected_code = 0 if architecture is not None else 1
    errors = [] if code == expected_code else [f"exit code {code}, expected {expected_code}"]
    return answer, errors


def cli_call(
    argv: List[str], env: Dict[str, str]
) -> Tuple[int, str, Tuple[float, float], float]:
    """Run one CLI process; returns (exit code, stdout, monotonic start
    and end, peak RSS MB)."""
    out_path = OUT / "cli.stdout"
    with open(out_path, "wb") as out, open(OUT / "cli.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            # wait4 gives this child's own peak RSS; poll so a hung
            # command cannot outlive the run
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise RunError(f"{' '.join(argv[1:])} timed out")
            time.sleep(0.001)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), (start, end), usage.ru_maxrss / 1024.0


def run_cli(seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    from repro.smt.solver import engine_signature

    spec_dir = OUT / "specs"
    setup_cmd = [
        sys.executable,
        str(HERE / "library.py"),
        "--workload",
        "cli",
        "--seed",
        str(seed),
        "--setup-only",
        "--spec-dir",
        str(spec_dir),
    ] + (["--smoke"] if smoke else [])
    setup = []
    for index in range(1 if trace or smoke else SETUP_SAMPLES):
        samples_path = OUT / f"cli-setup-{index}-samples.json"
        proc, ready = spawn_until_ready(setup_cmd + ["--samples", str(samples_path)], child_env())
        finish_child(proc)
        setup.append(cold_start(ready, samples_path))

    plain_env, traced_env = child_env(), child_env(profile=True)
    span_files: List[Path] = []
    samples: List[hostspeed.Sample] = []

    def run_pass(index: int, launch: str):
        """One pass, each call ``sampled`` (``sampled.py``), ``plain``
        (``-m repro.cli``) or ``traced`` (``cli_traced.py``)."""
        calls = []
        wall = 0.0
        for position, params in enumerate(workloads.cli_pass(seed, index, smoke=smoke)):
            argv = workloads.cli_argv(params, spec_dir)
            samples_path = OUT / f"cli-{position}-samples.json"
            spans = OUT / f"cli-spans-{position}.jsonl"
            launcher = {
                "sampled": [str(HERE / "sampled.py"), "--samples", str(samples_path), "--"],
                "plain": ["-m", "repro.cli"],
                "traced": [str(HERE / "cli_traced.py"), "--spans", str(spans), "--"],
            }[launch]
            env = traced_env if launch == "traced" else plain_env
            code, stdout, (start, end), rss = cli_call([sys.executable, *launcher, *argv], env)
            call = {"params": params, "code": code, "stdout": stdout, "latency": end - start, "rss": rss}
            if launch == "sampled":
                own = hostspeed.read_samples(samples_path)
                call.update(ref_latency=hostspeed.at_reference(start, end, own), index=index)
                samples.extend(own)
            elif launch == "traced":
                span_files.append(spans)
            wall += end - start
            calls.append(call)
        return wall, calls

    if trace:
        plain_wall, calls = run_pass(0, "plain")
        traced_wall, traced_calls = run_pass(0, "traced")
        calls += traced_calls
    else:
        walls, calls = workloads.repeat_passes(lambda index: run_pass(index, "sampled"), seconds)
        ref_walls = [0.0] * len(walls)
        for call in calls:
            ref_walls[call["index"]] += call["ref_latency"]

    checker = checks.Checker()
    errors = []
    failed = 0
    for call in calls:
        answer, problems = cli_answer(call["params"], call["code"], call["stdout"])
        if answer.get("outcome") == "unknown":
            problems.append("UNKNOWN verdict")
        else:
            problems += checks.check_answer(checker, call["params"], answer)
        if problems:
            failed += 1
            errors.append(f"{json.dumps(call['params'])}: {'; '.join(problems)}")
    out: Dict[str, Any] = {
        "engine": engine_signature(),
        "attempted": len(calls),
        "failed": failed,
        "errors": errors,
        "layers": {},
    }
    if trace:
        total = Summary({}, 0.0)
        import_s = 0.0
        for path in span_files:
            spans = read_jsonl(path)
            import_s += split_imports(spans)[0]
            total.add(summarize(spans))
        out["layers"] = trace_metrics(total, traced_wall, plain_wall, traced_wall, import_s)
    else:
        out["metrics"] = end_to_end(
            setup, walls, ref_walls, calls, samples, max(c["rss"] for c in calls), failed
        )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    entry = workloads.WORKLOADS[name].entry
    # a process that died before writing its samples must not leave an
    # earlier run's to be read in their place
    for stale in OUT.glob("*-samples.json"):
        stale.unlink()
    if entry == "library":
        out = run_library(name, seed, seconds, trace, smoke)
    elif entry == "serve":
        out = run_serve(seed, seconds, trace, smoke)
    else:
        out = run_cli(seed, seconds, trace, smoke)
    out.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), smoke=smoke)
    out["correct"] = out["failed"] == 0
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(run: Dict[str, Any], names: List[Dict[str, str]], prefix: str = "") -> Dict[str, Any]:
    """Print every metric of ``run``; return the BENCHMARK.json ones."""
    label = run["workload"]
    shown = {**run.get("metrics", {}), **run.get("layers", {})}
    for name in sorted(shown):
        m = shown[name]
        print(f"{label} {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for error in run["errors"][:20]:
        print(f"{label} ERROR {error}", file=sys.stderr)
    selected = {}
    for entry in names:
        m = shown.get(entry["name"])
        if m is None:
            raise RunError(f"{label} did not measure {entry['name']}")
        if m["unit"] != entry["unit"]:
            raise RunError(f"{entry['name']} measured in {m['unit']}, declared {entry['unit']}")
        selected[prefix + entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return selected


def append_results(path: Path, runs: List[Dict[str, Any]]) -> None:
    data = {"format": 1, "runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"].extend(runs)
    path.write_text(json.dumps(data, indent=1) + "\n")


def record_expected(path: Path, check: bool) -> int:
    verdicts = {}
    for params in workloads.all_requests():
        verdicts[workloads.request_key(params)] = checks.golden_verdict(params)
    if check:
        expected = checks.load_expected(path)
        diff = sorted(k for k in set(expected) | set(verdicts) if expected.get(k) != verdicts.get(k))
        for key in diff:
            print(f"MISMATCH {key}: recorded {expected.get(key)}, now {verdicts.get(key)}")
        print(f"{len(verdicts)} verdicts, {len(diff)} mismatches")
        return 1 if diff else 0
    path.write_text(json.dumps({"format": 1, "verdicts": verdicts}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(verdicts)} verdicts to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all five, in order)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (held-out: 2)")
    parser.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--out", type=Path, help="append run records to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="one tiny pass, one cold start")
    parser.add_argument("--record", action="store_true", help="(re)compute expected.json")
    parser.add_argument("--check", action="store_true", help="with --record: compare, don't write")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    if args.record:
        return record_expected(HERE / "expected.json", args.check)
    guarded = guarded_variables()
    if guarded:
        print(
            f"refusing to measure a non-default engine: {', '.join(guarded)} set",
            file=sys.stderr,
        )
        return 2


    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    commit = git_commit()
    runs, summary = [], {}
    try:
        for name in names:
            seconds = 0.0 if args.smoke else args.seconds
            run = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
            run["provenance"] = {
                "engine": run.pop("engine"),
                "serve_runtime": run.pop("serve_runtime", None),
                "git_commit": commit,
                "nproc": os.cpu_count(),
                "python": sys.version.split()[0],
                "seed": args.seed,
            }
            prefix = "" if args.workload else f"{name}."
            summary.update(report(run, declared, prefix))
            runs.append(run)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        append_results(args.out, runs)
    correct = all(run["correct"] for run in runs)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": summary,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
