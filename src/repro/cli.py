"""Command-line interface: ``python -m repro.cli <command>``.

Drives the full pipeline from spec files in the text format of
:mod:`repro.core.io` (paper Section III-H):

.. code-block:: console

    $ python -m repro.cli cases
    $ python -m repro.cli template ieee14 > grid.spec
    $ python -m repro.cli verify grid.spec --cache-dir ~/.cache/repro
    $ python -m repro.cli synthesize grid.spec --budget 4
    $ python -m repro.cli mincost grid.spec --dimension measurements
    $ python -m repro.cli metrics grid.spec
    $ python -m repro.cli profile grid.spec --repeat 5 --out report.json
    $ python -m repro.cli serve --port 8321 --jobs 4 --portfolio configs:2 \
          --trace-file spans.jsonl
    $ python -m repro.cli serve --port 8321 --replicas 3 --sessions \
          --cache-dir /var/cache/repro
    $ python -m repro.cli serve --port 8321 --replicas 3 --slo --flight
    $ python -m repro.cli metrics --scrape http://127.0.0.1:8321
    $ python -m repro.cli metrics --cluster http://127.0.0.1:8321
    $ python -m repro.cli top http://127.0.0.1:8321 --interval 1
    $ python -m repro.cli trace show spans.jsonl --limit 3 --since 2026-08-08

Exit codes: ``verify`` 0 when secure and 2 when an attack exists,
``synthesize`` 0 with an architecture and 1 without one, and 3 for an
input the CLI cannot use (an unreadable or malformed spec file, or an
argument the parser rejects), reported as one ``repro: error: ...`` line
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, NoReturn, Optional

from repro.core.io import load_spec_file, write_spec
from repro.core.mincost import minimum_attack_cost
from repro.core.report import format_synthesis, format_verification
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.synthesis import (
    SynthesisSettings,
    enumerate_architectures,
    synthesize_against_all,
    synthesize_architecture,
)
from repro.grid.cases import available_cases, load_case
from repro.runtime import ResultCache, RuntimeOptions, verify_many
from repro.runtime.portfolio import parse_portfolio_mode, race_configs

INPUT_ERROR = 3


class InputError(Exception):
    """An input the CLI cannot use; :func:`main` reports it and exits 3."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 3, not argparse's 2)."""

    def error(self, message: str) -> NoReturn:
        self.exit(INPUT_ERROR, f"repro: error: {message}\n")


def _load_spec(path: str) -> AttackSpec:
    try:
        return load_spec_file(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # SpecParseError, or a spec that fails validation
        raise InputError(f"{path}: {exc}") from None


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _portfolio_mode(text: str) -> str:
    try:
        parse_portfolio_mode(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_portfolio_flag(parser: argparse.ArgumentParser, text: str) -> None:
    parser.add_argument(
        "--portfolio",
        nargs="?",
        type=_portfolio_mode,
        const="configs",
        default=False,
        metavar="MODE",
        help=text,
    )


def _runtime_options(args: argparse.Namespace) -> RuntimeOptions:
    cache = None
    if args.cache_dir:
        cache = ResultCache(directory=args.cache_dir)
    return RuntimeOptions(
        jobs=args.jobs,
        portfolio=args.portfolio,
        cache=cache,
        sessions=args.sessions,
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=1,
        help="worker processes for multi-instance runs (0 = all cores)",
    )


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """The per-solve flags :func:`_runtime_options` reads.

    Only ``verify`` and ``serve`` take them, with ``--jobs``: a cost
    search probes one warm session, and ``synthesize`` runs Algorithm 1
    in-process on warm verifiers, so neither acts on a runtime.
    """
    _add_portfolio_flag(
        parser,
        "race N diversified SMT configurations per instance with "
        "learned-clause exchange, first conclusive answer wins "
        "('configs' or 'configs:N', default N=4)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="memoize results on disk under DIR (skips repeated solves)",
    )
    parser.add_argument(
        "--sessions",
        action="store_true",
        help="reuse warm verification sessions across same-grid solves "
        "(jobs=1; incremental probes instead of fresh encodings)",
    )


def _cmd_cases(args: argparse.Namespace) -> int:
    names = available_cases()
    width = max(map(len, names))
    for name in names:
        grid = load_case(name)
        print(
            f"{name:<{width}} {grid.num_buses:>4} buses {grid.num_lines:>4} lines "
            f"avg degree {grid.average_degree():.2f}"
        )
    return 0


def _cmd_template(args: argparse.Namespace) -> int:
    grid = load_case(args.case)
    spec = AttackSpec.default(grid, goal=AttackGoal.any())
    sys.stdout.write(write_spec(spec))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    specs = [_load_spec(path) for path in args.specfile]
    results = verify_many(specs, _runtime_options(args))
    any_attack = False
    for path, spec, result in zip(args.specfile, specs, results):
        if len(specs) > 1:
            print(f"--- {path} ---")
        print(format_verification(result, spec))
        any_attack = any_attack or result.attack_exists
    return 2 if any_attack else 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    specs = [_load_spec(path) for path in args.specfile]
    settings = SynthesisSettings(
        max_secured_buses=args.budget,
        excluded_buses=frozenset(args.exclude or []),
        blocking=args.blocking,
        neighbor_pruning=not args.no_pruning,
    )
    if args.enumerate and len(specs) > 1:
        raise InputError("--enumerate supports a single spec file")
    try:
        if args.enumerate:
            architectures = enumerate_architectures(
                specs[0], settings, limit=args.enumerate
            )
        elif len(specs) > 1:
            result = synthesize_against_all(specs, settings)
        else:
            result = synthesize_architecture(specs[0], settings)
    except ValueError as exc:  # specs over different grids, an unknown bus
        raise InputError(str(exc)) from None
    if args.enumerate:
        if not architectures:
            print("no architecture within the budget resists the attack model")
            return 1
        for arch in architectures:
            print(f"secure buses {arch}")
        return 0
    print(format_synthesis(result, specs[0]))
    return 0 if result.feasible else 1


def _cmd_mincost(args: argparse.Namespace) -> int:
    spec = _load_spec(args.specfile)
    if not (spec.goal.target_states or spec.goal.any_state):
        print("spec has no attack goal; add a 'target' line", file=sys.stderr)
        return 1
    result = minimum_attack_cost(spec, dimension=args.dimension)
    if result.cost is None:
        print("goal is infeasible at any budget (no attack exists)")
        return 0
    print(f"minimum {args.dimension} budget: {result.cost} ({result.probes} probes)")
    if result.attack is not None:
        print(f"witness alters measurements {result.attack.altered_measurements}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.specfile is None:
        return _cmd_metrics_registry(args)
    from repro.analysis.security_metrics import security_metrics

    spec = _load_spec(args.specfile)
    report = security_metrics(spec)
    print("state attack costs (smaller = weaker):")
    for bus in sorted(report.state_costs):
        cost = report.state_costs[bus]
        print(f"  bus {bus:>3}: {'immune' if cost is None else cost}")
    print(f"weakest states: {report.weakest_states}")
    print(f"grid attack cost: {report.grid_attack_cost}")
    exposed = sorted(
        report.measurement_exposure.items(), key=lambda kv: -kv[1]
    )[:10]
    print("most exposed measurements (top 10):")
    for meas, count in exposed:
        print(f"  {spec.plan.describe(meas):<40s} in {count} minimal attacks")
    return 0


def _cmd_metrics_registry(args: argparse.Namespace) -> int:
    """Without a spec file: dump observability metrics instead.

    ``--scrape URL`` fetches ``GET /metricsz`` from a running service;
    otherwise the local process registry is rendered — useful after an
    in-process sweep, or to list the full metric catalog (families
    render their HELP/TYPE headers even before the first sample).
    """
    target = args.scrape or getattr(args, "cluster", None)
    if target:
        import urllib.error
        import urllib.request

        # --cluster fetches the router's merged fleet-wide exposition;
        # --scrape fetches one process's /metricsz
        suffix = "/clusterz/metrics" if getattr(args, "cluster", None) else "/metricsz"
        url = target.rstrip("/")
        if not url.endswith(suffix):
            url += suffix
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError) as exc:
            print(f"scrape failed: {exc}", file=sys.stderr)
            return 1
        return 0
    from repro.obs import metrics as obs_metrics

    sys.stdout.write(obs_metrics.get_registry().render_prometheus())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a JSONL span sink as per-trace waterfalls."""
    from repro.obs.render import parse_time, render_file

    try:
        since = parse_time(args.since) if args.since else None
        until = parse_time(args.until) if args.until else None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        print(
            render_file(
                args.file,
                trace_id=args.trace_id,
                limit=args.limit,
                since=since,
                until=until,
            )
        )
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live cluster dashboard over /clusterz/metrics (or /metricsz)."""
    from repro.obs.top import run_top

    try:
        return run_top(
            args.url,
            interval=args.interval,
            iterations=args.iterations,
            no_clear=args.no_clear,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Verify a spec under cProfile and emit a JSON hot-path report.

    Combines the solver's own per-phase wall-time attribution (BCP vs
    theory check vs decide vs analyze, via ``REPRO_SMT_PROFILE``) with
    the interpreter-level cProfile hotspots, so kernel regressions show
    up both as phase shifts and as concrete hot functions.
    """
    import cProfile
    import json
    import os
    import pstats
    import time
    from pathlib import Path

    from repro.core.verification import verify_attack
    from repro.smt.solver import engine_signature

    spec = _load_spec(args.specfile)
    portfolio_mode = getattr(args, "portfolio", False)
    _, size = parse_portfolio_mode(portfolio_mode)
    previous = os.environ.get("REPRO_SMT_PROFILE")
    os.environ["REPRO_SMT_PROFILE"] = "1"
    try:
        if portfolio_mode:
            # a configuration race runs its contenders in child
            # processes, where cProfile cannot see; the per-config
            # phase-time breakdown below is the profile
            capture: dict = {}
            start = time.perf_counter()
            for _ in range(args.repeat):
                result = race_configs(
                    spec, n=size, capture=capture, collect_all=True
                )
            wall = time.perf_counter() - start
        else:
            profiler = cProfile.Profile()
            start = time.perf_counter()
            profiler.enable()
            for _ in range(args.repeat):
                result = verify_attack(spec)
            profiler.disable()
            wall = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop("REPRO_SMT_PROFILE", None)
        else:
            os.environ["REPRO_SMT_PROFILE"] = previous
    if portfolio_mode:
        per_config = {
            token: {
                "phase_times": meta.get("phase_times", {}),
                "clauses_exported": meta.get("clauses_exported", 0),
                "clauses_imported": meta.get("clauses_imported", 0),
                "runtime_seconds": round(meta.get("runtime_seconds", 0.0), 6),
            }
            for token, meta in sorted(capture.get("details", {}).items())
        }
        report = {
            "spec": args.specfile,
            "backend": f"portfolio-configs{size}",
            "engine": engine_signature(),
            "repeat": args.repeat,
            "outcome": result.outcome.value,
            "wall_seconds": round(wall, 6),
            "portfolio": {
                "mode": "configs",
                "size": size,
                "winner_config": result.statistics.get(
                    "portfolio_winner_config"
                ),
                "clauses_exchanged": result.statistics.get(
                    "portfolio_clauses_exchanged", 0
                ),
                "per_config": per_config,
            },
            "solver_statistics": result.statistics,
        }
        text = json.dumps(report, indent=2, default=str)
        if args.out:
            Path(args.out).write_text(text + "\n")
            print(f"profile report written to {args.out}")
        else:
            print(text)
        return 0
    rows = []
    for (filename, line, funcname), entry in pstats.Stats(profiler).stats.items():
        _, ncalls, tottime, cumtime, _ = entry
        rows.append(
            {
                "function": f"{Path(filename).name}:{line}:{funcname}",
                "calls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda r: (-r["tottime"], r["function"]))
    report = {
        "spec": args.specfile,
        "backend": "smt",
        "engine": engine_signature(),
        "repeat": args.repeat,
        "outcome": result.outcome.value,
        "wall_seconds": round(wall, 6),
        "solver_statistics": result.statistics,
        "hotspots": rows[: args.top],
    }
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"profile report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Stream a scenario through the monitor and report incidents.

    Local by default (one warm session per cost search);
    ``--serve-url`` routes re-verification probes to a running service
    as high-priority jobs and publishes incidents to its
    ``/v1/incidents`` store instead.
    """
    import json as json_mod

    from repro.monitor.engine import MonitorConfig, MonitorEngine
    from repro.monitor.incidents import IncidentSink
    from repro.monitor.reverify import ReverifyConfig
    from repro.monitor.scenario import resolve_scenario
    from repro.obs.trace import configure_tracing

    if args.trace_file:
        configure_tracing(enabled=True, jsonl_path=args.trace_file)
    grid = load_case(args.case)
    try:
        scenario = resolve_scenario(
            args.scenario, grid, ticks=args.ticks, noise_std=args.noise_std
        )
    except ValueError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    client = None
    if args.serve_url:
        from urllib.parse import urlparse

        from repro.service.client import ServiceClient

        parsed = urlparse(args.serve_url)
        client = ServiceClient(
            host=parsed.hostname or "127.0.0.1", port=parsed.port or 8321
        )
        client.wait_until_ready()
    config = MonitorConfig(
        ticks=args.ticks,
        seed=args.seed,
        reverify=ReverifyConfig(
            cost_threshold=args.cost_threshold,
            synthesis_budget=args.synthesis_budget,
        ),
    )
    sink = IncidentSink(args.sink) if args.sink else None
    engine = MonitorEngine(grid, scenario, config, client=client, sink=sink)
    report = engine.run()
    if args.json:
        print(json_mod.dumps(report.to_payload(), indent=2, default=str))
    else:
        print(
            f"monitored {args.case} / {scenario.name}: {report.ticks} ticks, "
            f"stream digest {report.stream_digest[:16]}"
        )
        if report.baseline_cost is not None:
            print(f"baseline min attack cost: {report.baseline_cost}")
        if not report.incidents:
            print("no incidents")
        for incident in report.incidents:
            verdict = incident.verification or {}
            line = (
                f"[{incident.severity:>8}] tick {incident.tick:>4} "
                f"{incident.kind} ({incident.detector})"
            )
            if verdict.get("outcome"):
                line += f" outcome={verdict['outcome']}"
            if verdict.get("min_cost") is not None:
                line += f" min_cost={verdict['min_cost']}"
            if incident.countermeasure is not None:
                line += (
                    f" countermeasure={incident.countermeasure.get('secured_buses')}"
                )
            print(line)
        fired = {
            name: snap.get("fired")
            for name, snap in report.triggers.items()
            if snap.get("fired")
        }
        if fired:
            print(f"detector firings: {fired}")
    return 2 if any(i.severity in ("major", "critical") for i in report.incidents) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.http import run, serve_async

    if args.replicas > 1:
        from repro.service.router import serve_cluster_async

        # replicas are separate `repro serve` processes: forward the
        # knobs as CLI flags (--cache-dir/--trace-file are added by the
        # cluster itself so every replica shares one tier and one sink)
        replica_args = [
            "--max-queue",
            str(args.max_queue),
            "--jobs",
            str(args.jobs),
        ]
        if args.max_queue_per_client is not None:
            replica_args += ["--max-queue-per-client", str(args.max_queue_per_client)]
        if args.portfolio:
            replica_args += ["--portfolio", args.portfolio]
        if args.sessions:
            replica_args.append("--sessions")
        main = serve_cluster_async(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            replica_args=replica_args,
            cache_dir=args.cache_dir,
            trace_file=args.trace_file,
            slo=args.slo,
            flight=args.flight,
        )
    else:
        main = serve_async(
            host=args.host,
            port=args.port,
            options=_runtime_options(args),
            max_queue=args.max_queue,
            max_queue_per_client=args.max_queue_per_client,
            replica_id=args.replica_id,
            trace_file=args.trace_file,
            slo=args.slo,
            flight=args.flight,
        )
    run(main)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="UFDI threat analytics and countermeasure synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cases", help="list bundled test systems").set_defaults(
        func=_cmd_cases
    )

    p = sub.add_parser("template", help="emit a default spec for a test system")
    p.add_argument("case", choices=available_cases())
    p.set_defaults(func=_cmd_template)

    p = sub.add_parser("verify", help="verify UFDI attack feasibility")
    p.add_argument("specfile", nargs="+", help="one or more spec files (batched)")
    _add_jobs_flag(p)
    _add_runtime_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("synthesize", help="synthesize a security architecture")
    p.add_argument(
        "specfile",
        nargs="+",
        help="spec file(s); several files synthesize one architecture "
        "resisting every listed attack model",
    )
    p.add_argument(
        "--budget", type=_non_negative_int, required=True, help="max secured buses"
    )
    p.add_argument("--exclude", type=int, nargs="*", help="operator-unsecurable buses")
    p.add_argument(
        "--blocking",
        choices=["counterexample", "subset", "exact"],
        default="counterexample",
    )
    p.add_argument("--no-pruning", action="store_true", help="disable Eq. 30 pruning")
    p.add_argument(
        "--enumerate",
        type=_positive_int,
        metavar="K",
        help="list up to K minimal architectures",
    )
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("mincost", help="minimum attack cost for the spec's goal")
    p.add_argument("specfile")
    p.add_argument("--dimension", choices=["measurements", "buses"], default="measurements")
    p.set_defaults(func=_cmd_mincost)

    p = sub.add_parser(
        "metrics",
        help="security metrics for a spec; without one, dump the "
        "observability metrics registry (Prometheus text)",
    )
    p.add_argument(
        "specfile",
        nargs="?",
        default=None,
        help="spec file for security metrics; omit for the registry dump",
    )
    p.add_argument(
        "--scrape",
        metavar="URL",
        help="fetch /metricsz from a running service instead of the "
        "local registry (e.g. http://127.0.0.1:8321)",
    )
    p.add_argument(
        "--cluster",
        metavar="URL",
        help="fetch the merged fleet-wide exposition from a router's "
        "/clusterz/metrics (counters summed, histograms re-bucketed, "
        "per-replica series preserved under a replica label)",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "trace", help="inspect span traces (see docs/OBSERVABILITY.md)"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "show", help="render a JSONL span sink as per-trace waterfalls"
    )
    p.add_argument("file", help="JSONL sink (REPRO_TRACE_FILE / serve --trace-file)")
    p.add_argument(
        "--trace-id", help="only this trace (prefix match accepted)"
    )
    p.add_argument(
        "--limit", type=int, help="only the last N traces in the file"
    )
    p.add_argument(
        "--since",
        metavar="TIME",
        help="only traces starting at or after TIME (epoch seconds or "
        "ISO-8601, e.g. 2026-08-08T12:00:00)",
    )
    p.add_argument(
        "--until",
        metavar="TIME",
        help="only traces starting at or before TIME (epoch seconds or "
        "ISO-8601)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard: per-replica RED rates, latency "
        "quantiles, SLO burn state (ctrl-c exits)",
    )
    p.add_argument(
        "url",
        nargs="?",
        default="http://127.0.0.1:8321",
        help="router or replica base URL (tries /clusterz/metrics, "
        "falls back to /metricsz)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until ctrl-c)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (logs, CI)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "profile",
        help="verify a spec under cProfile and emit a JSON hot-path report",
    )
    p.add_argument("specfile")
    p.add_argument(
        "--repeat", type=int, default=1, help="verification repetitions to profile"
    )
    p.add_argument("--top", type=int, default=15, help="hot functions to report")
    p.add_argument("--out", metavar="FILE", help="write the JSON report to FILE")
    _add_portfolio_flag(
        p,
        "profile a cooperative configuration race instead of a solo "
        "solve: per-config phase-time breakdown and exchanged-clause "
        "counts ('configs' or 'configs:N', default N=4)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "monitor",
        help="stream a measurement scenario and raise verified incidents",
    )
    p.add_argument("case", choices=available_cases())
    p.add_argument(
        "--scenario",
        default="nominal",
        help="builtin name (nominal, noise_burst, telemetry_spoof, "
        "line_outage) or a scenario JSON file",
    )
    p.add_argument("--ticks", type=int, default=200, help="frames to stream")
    p.add_argument("--seed", type=int, default=7, help="noise/injection RNG seed")
    p.add_argument(
        "--noise-std", type=float, default=None, help="meter noise sigma override"
    )
    p.add_argument(
        "--cost-threshold",
        type=int,
        default=8,
        help="min attack cost at or below this escalates and synthesizes "
        "a countermeasure",
    )
    p.add_argument(
        "--synthesis-budget",
        type=int,
        default=2,
        help="max secured buses for synthesized countermeasures",
    )
    p.add_argument(
        "--serve-url",
        metavar="URL",
        help="run re-verification via this service (high-priority jobs) "
        "and publish incidents to its /v1/incidents store",
    )
    p.add_argument(
        "--sink", metavar="FILE", help="append incidents to FILE as JSONL"
    )
    p.add_argument(
        "--trace-file",
        metavar="FILE",
        help="enable span tracing with a JSONL sink at FILE",
    )
    p.add_argument("--json", action="store_true", help="emit the full JSON report")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser(
        "serve", help="run the long-lived verification service (HTTP JSON API)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8321, help="0 picks a free port")
    p.add_argument(
        "--max-queue", type=int, default=10_000, help="queue depth before 429s"
    )
    p.add_argument(
        "--max-queue-per-client",
        type=int,
        default=None,
        metavar="N",
        help="cap any one client's queued jobs (429 queue_full beyond it)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help="run a sharded cluster: a consistent-hash router on --port "
        "in front of N replica processes sharing one cache dir",
    )
    p.add_argument(
        "--replica-id",
        default=None,
        metavar="ID",
        help="name this process in a cluster (set by the supervisor; "
        "surfaced in /healthz and /statsz)",
    )
    p.add_argument(
        "--trace-file",
        metavar="FILE",
        help="enable span tracing with a JSONL sink at FILE "
        "(render it with 'repro trace show FILE')",
    )
    p.add_argument(
        "--slo",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="evaluate SLO burn-rate alerts (GET /sloz); FILE is a JSON "
        "config, omit it for the built-in availability/latency/jobs "
        "SLOs; in a cluster the router evaluates the merged scrape so "
        "each alert fires once fleet-wide",
    )
    p.add_argument(
        "--flight",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="arm the flight recorder (GET /debugz/flight): freeze "
        "redacted trace/log/solver-stat snapshots on 5xx answers, job "
        "failures, deadline misses and SLO burns; FILE appends "
        "snapshots as JSONL",
    )
    _add_jobs_flag(p)
    _add_runtime_flags(p)
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
