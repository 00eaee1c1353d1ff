"""One library workload in a fresh interpreter (started by ``run.py``).

Set-up — imports, grid loads, building the first pass's specs and one
untimed warm-up request — ends with ``ready`` on stdout, which is where
the runner stops the set-up clock; ``--setup-only`` exits there.  The
measured phase then repeats passes while the next one is expected to
finish within ``--seconds`` (at least one).  With ``--samples`` the
host-speed sampler of ``hostspeed.py`` runs from the first line of the
process to the end of the measured phase, so set-up and every request
can be reported at the reference speed; its samples are written to that
file.  With ``--trace`` the process instead runs one plain pass and then
the same pass again with the layer wrappers installed.  Peak RSS is read
before the verdict checks, and everything lands in the ``--result``
JSON file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import hostspeed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measured time")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--samples", type=Path, help="host-speed samples JSON file")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="span JSONL (with --trace)")
    parser.add_argument("--result", type=Path, help="result JSON file")
    parser.add_argument("--spec-dir", type=Path, help="cli: where set-up writes spec files")
    args = parser.parse_args(argv)

    sampler = hostspeed.Sampler().start() if args.samples else None
    try:
        return run(args, sampler)
    finally:
        if sampler is not None:
            sampler.stop()
            sampler.write(args.samples)


def run(args, sampler) -> int:
    if args.workload == "cli":
        # the CLI workload's set-up: import, build and write its spec files
        import workloads
        from repro.core.io import save_spec_file

        args.spec_dir.mkdir(parents=True, exist_ok=True)
        for params in workloads.cli_spec_requests(args.smoke):
            spec = workloads.build_spec({k: v for k, v in params.items() if k != "entry"})
            save_spec_file(spec, args.spec_dir / workloads.spec_file_name(params))
        print("ready", flush=True)
        return 0

    recorder = None
    if args.trace:
        from layers import Recorder, clock

        recorder = Recorder()
        start = clock()
        import repro.cli  # noqa: F401  (the import the CLI pays; timed)

        recorder.add_span("cli.import", start, clock())

    import checks
    import workloads
    from layers import request_id
    from repro.smt.solver import engine_signature

    workload = workloads.WORKLOADS[args.workload]

    def build(index):
        requests = workload.make_pass(args.seed, index, smoke=args.smoke)
        return [(params, workloads.build_spec(params)) for params in requests]

    if recorder is not None:
        recorder.install()  # set-up's grid loads count toward grid.load_s
    first = build(0)
    if recorder is not None:
        recorder.uninstall()
    warmup = workloads.WARMUPS[args.workload]
    workloads.run_library_request(warmup, workloads.build_spec(warmup))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def run_pass(index):
        records = []
        wall = 0.0
        for position, (params, spec) in enumerate(first if index == 0 else build(index)):
            # the previous request's cyclic garbage is collected untimed,
            # so neither a request's time nor the peak RSS depends on the
            # order the seed gave the requests
            gc.collect()
            token = request_id.set(f"{index}.{position}")
            start = time.monotonic()
            try:
                result, error = workloads.run_library_request(params, spec), None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = time.monotonic()
            request_id.reset(token)
            records.append((index, params, result, (start, end), error))
            wall += end - start
        return wall, records

    trace = None
    if recorder is None:
        walls, records = workloads.repeat_passes(run_pass, args.seconds)
    else:
        plain_wall, records = run_pass(0)
        os.environ["REPRO_SMT_PROFILE"] = "1"  # per-phase solver times
        recorder.install()
        window_start = time.monotonic()
        traced_wall, traced = run_pass(0)
        window = (window_start, time.monotonic())
        recorder.uninstall()
        del os.environ["REPRO_SMT_PROFILE"]
        recorder.write_jsonl(args.spans)
        records += traced
        walls = [plain_wall, traced_wall]
        trace = {"plain_wall": plain_wall, "traced_wall": traced_wall, "window": window}
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = checks.Checker()
    out_records = []
    ref_walls = [0.0] * len(walls)
    for index, params, result, (start, end), error in records:
        errors = [error] if error else []
        if result is not None:
            answer = checks.library_answer(params, result)
            if answer.get("outcome") == "unknown":
                errors.append("UNKNOWN verdict")
            else:
                errors.extend(checks.check_answer(checker, params, answer))
        record = {"key": workloads.request_key(params), "latency": end - start, "errors": errors}
        if sampler is not None:
            record["ref_latency"] = hostspeed.at_reference(start, end, sampler.samples)
            ref_walls[index] += record["ref_latency"]
        out_records.append(record)
    result = {
        "engine": engine_signature(),
        "walls": walls,
        "ref_walls": ref_walls if sampler is not None else None,
        "requests": out_records,
        "peak_rss_mb": peak_rss_mb,
        "trace": trace,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
