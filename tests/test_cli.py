"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.io import save_spec_file, write_spec
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
from repro.grid.cases import ieee14

EXAMPLE_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


@pytest.fixture
def spec_file(tmp_path):
    spec = AttackSpec.default(
        ieee14(),
        goal=AttackGoal.states(12, exclusive=True),
    )
    path = tmp_path / "grid.spec"
    save_spec_file(spec, path)
    return str(path)


@pytest.fixture
def secure_spec_file(tmp_path):
    # an attacker with no budget: verification is unsat
    spec = AttackSpec.default(
        ieee14(),
        goal=AttackGoal.any(),
        limits=ResourceLimits(max_measurements=0),
    )
    path = tmp_path / "secure.spec"
    save_spec_file(spec, path)
    return str(path)


class TestCases:
    def test_lists_all(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        for name in ("ieee14", "ieee300"):
            assert name in out

    def test_columns_line_up(self, capsys):
        assert main(["cases"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("synthetic3000 ") for line in lines)
        for column in ("buses", "lines", "avg degree"):
            assert len({line.index(column) for line in lines}) == 1, column


class TestTemplate:
    def test_emits_parseable_spec(self, capsys):
        assert main(["template", "ieee14"]) == 0
        out = capsys.readouterr().out
        from repro.core.io import parse_spec

        spec = parse_spec(out)
        assert spec.grid.num_buses == 14

    def test_rejects_unknown_case(self):
        with pytest.raises(SystemExit):
            main(["template", "ieee9999"])


class TestVerify:
    def test_sat_exit_code(self, spec_file, capsys):
        assert main(["verify", spec_file]) == 2
        assert "sat" in capsys.readouterr().out

    def test_unsat_exit_code(self, secure_spec_file, capsys):
        assert main(["verify", secure_spec_file]) == 0
        assert "unsat" in capsys.readouterr().out


class TestSynthesize:
    def test_feasible(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--budget", "3"]) == 0
        assert "secure buses" in capsys.readouterr().out

    def test_infeasible(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--budget", "0"]) == 1

    def test_enumerate(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--budget", "3", "--enumerate", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("secure buses") >= 1

    def test_exclude(self, spec_file, capsys):
        rc = main(
            ["synthesize", spec_file, "--budget", "4", "--exclude", "6", "12"]
        )
        out = capsys.readouterr().out
        if rc == 0:
            import re

            # read the architecture's list only: the summary line before
            # it carries the run time, whose digits are no bus numbers
            listed = out.split("secure buses", 1)[1].split("]")[0]
            buses = [int(tok) for tok in re.findall(r"\d+", listed)]
            assert 6 not in buses and 12 not in buses


class TestMincost:
    def test_reports_cost(self, spec_file, capsys):
        assert main(["mincost", spec_file]) == 0
        assert "minimum measurements budget: 7" in capsys.readouterr().out

    def test_bus_dimension(self, spec_file, capsys):
        assert main(["mincost", spec_file, "--dimension", "buses"]) == 0
        assert "buses budget" in capsys.readouterr().out

    def test_goalless_spec_rejected(self, tmp_path, capsys):
        spec = AttackSpec.default(ieee14())
        path = tmp_path / "nogoal.spec"
        save_spec_file(spec, path)
        assert main(["mincost", str(path)]) == 1


class TestMetrics:
    def test_exposure_table_matches_the_library(self, capsys):
        # the CLI and the library take one probe path, so they count
        # exposure over the same per-state witnesses
        from repro.analysis.security_metrics import security_metrics
        from repro.core.io import load_spec_file

        path = EXAMPLE_SPECS / "objective2_topology.spec"
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        printed = out.split("most exposed measurements (top 10):\n")[1]
        spec = load_spec_file(str(path))
        report = security_metrics(spec)
        top = sorted(report.measurement_exposure.items(), key=lambda kv: -kv[1])
        rendered = [
            f"  {spec.plan.describe(meas):<40s} in {count} minimal attacks"
            for meas, count in top[:10]
        ]
        assert printed.splitlines() == rendered


class TestProfile:
    def test_writes_json_report(self, spec_file, tmp_path, capsys):
        import json

        out = tmp_path / "profile.json"
        assert main(["profile", spec_file, "--out", str(out), "--top", "5"]) == 0
        assert "written to" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["spec"] == spec_file
        assert report["repeat"] == 1
        assert report["outcome"] in ("sat", "unsat", "unknown")
        assert 0 < len(report["hotspots"]) <= 5
        for row in report["hotspots"]:
            assert set(row) == {"function", "calls", "tottime", "cumtime"}
        stats = report["solver_statistics"]
        assert stats["kernel"] == report["engine"].split("kernel=")[1].split("/")[0]
        # REPRO_SMT_PROFILE was in force: per-phase times are attributed
        for phase in ("bcp", "theory", "decide", "analyze"):
            assert f"time_{phase}" in stats

    def test_stdout_report(self, spec_file, capsys):
        import json

        assert main(["profile", spec_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"].startswith("v")
        assert len(report["hotspots"]) <= 15

    def test_portfolio_report_breaks_down_per_config(
        self, spec_file, tmp_path, capsys
    ):
        import json

        out = tmp_path / "portfolio-profile.json"
        assert (
            main(
                ["profile", spec_file, "--portfolio", "configs:2", "--out", str(out)]
            )
            == 0
        )
        assert "written to" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["backend"] == "portfolio-configs2"
        assert report["outcome"] in ("sat", "unsat")
        portfolio = report["portfolio"]
        assert portfolio["mode"] == "configs"
        assert portfolio["size"] == 2
        assert portfolio["winner_config"] in portfolio["per_config"]
        assert portfolio["clauses_exchanged"] >= 0
        # collect_all waited for every contender, so each reports a
        # phase-time breakdown and its share of the clause traffic
        assert len(portfolio["per_config"]) == 2
        for meta in portfolio["per_config"].values():
            assert set(meta) >= {
                "phase_times",
                "clauses_exported",
                "clauses_imported",
                "runtime_seconds",
            }
            assert any(
                phase.startswith("time_") for phase in meta["phase_times"]
            )


class TestInputErrors:
    """Unusable input: one ``repro: error:`` line on stderr and exit 3."""

    @pytest.mark.parametrize("command", ["verify", "mincost", "metrics", "profile"])
    def test_missing_spec_file(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.spec"
        assert main([command, str(missing)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: {missing}: No such file or directory\n"
        assert captured.out == ""

    def test_malformed_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("buses 3\nbogus 1 2\n")
        assert main(["synthesize", str(path), "--budget", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: line 2: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "mincost"])
    def test_negative_limit_in_spec_file(self, command, spec_file, tmp_path, capsys):
        path = tmp_path / "negative.spec"
        path.write_text(Path(spec_file).read_text() + "limit measurements -1\n")
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: error: {path}: "
            "max_measurements must be None or an integer >= 0, not -1\n"
        )
        assert captured.out == ""

    def test_negative_budget_rejected_by_parser(self, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", spec_file, "--budget", "-1"])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "repro: error: argument --budget: "
            "expected a non-negative integer, got '-1'\n"
        )

    @pytest.mark.parametrize("argv", [["verify"]])
    def test_negative_jobs_rejected_by_parser(self, argv, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], spec_file, *argv[1:], "--jobs", "-1"])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "repro: error: argument --jobs: "
            "expected a non-negative integer, got '-1'\n"
        )

    @pytest.mark.parametrize("command", ["verify", "profile"])
    @pytest.mark.parametrize(
        "mode, reason",
        [
            ("turbo", "unknown portfolio mode 'turbo'"),
            ("configs:0", "bad portfolio size '0' in 'configs:0'"),
            ("backends", "unknown portfolio mode 'backends'"),
        ],
    )
    def test_bad_portfolio_mode_rejected_by_parser(
        self, command, mode, reason, spec_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, spec_file, "--portfolio", mode])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: argument --portfolio: {reason} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify"], ["--backend", "milp"]),
            (["mincost"], ["--backend", "smt"]),
            (["metrics"], ["--backend", "smt"]),
            (["profile"], ["--backend", "milp"]),
            (["mincost"], ["--jobs", "2"]),
            (["metrics"], ["--jobs", "2"]),
            # a cost search always probes one warm session
            (["mincost"], ["--portfolio"]),
            (["mincost"], ["--cache-dir", "cache"]),
            (["mincost"], ["--sessions"]),
            (["metrics"], ["--portfolio"]),
            (["metrics"], ["--cache-dir", "cache"]),
            (["metrics"], ["--sessions"]),
            (["synthesize", "--budget", "2"], ["--portfolio"]),
            (["synthesize", "--budget", "2"], ["--cache-dir", "cache"]),
            (["synthesize", "--budget", "2"], ["--sessions"]),
            # one loop checks every spec in-process
            (["synthesize", "--budget", "2"], ["--jobs", "2"]),
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, flag, spec_file, capsys):
        # an unknown flag is a usage error: one line, exit 3
        with pytest.raises(SystemExit) as exc:
            main([argv[0], spec_file, *argv[1:], *flag])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            f"repro: error: unrecognized arguments: {' '.join(flag)}\n"
        )

    def test_zero_budget_still_accepted(self, spec_file, capsys):
        # 0 is a real budget: with no secured bus the attack goes through
        assert main(["synthesize", spec_file, "--budget", "0"]) == 1

    def test_unknown_excluded_bus_is_an_input_error(self, spec_file, capsys):
        assert main(["synthesize", spec_file, "--budget", "3", "--exclude", "99"]) == 3
        assert capsys.readouterr().err == (
            "repro: error: excluded buses [99] are not buses of the grid (1..14)\n"
        )

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_enumerate_needs_a_positive_count(self, count, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", spec_file, "--budget", "3", "--enumerate", count])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "repro: error: argument --enumerate: "
            f"expected a positive integer, got '{count}'\n"
        )

    def test_multi_spec_enumerate_is_an_input_error(self, spec_file, capsys):
        args = ["synthesize", spec_file, spec_file, "--budget", "2", "--enumerate", "2"]
        assert main(args) == 3
        assert "--enumerate supports a single spec file" in capsys.readouterr().err


class TestServe:
    def test_parser_exposes_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0", "--jobs", "2"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 0
        assert args.jobs == 2

    @pytest.mark.parametrize(
        "knob", [["--batch-window", "0.1"], ["--max-batch", "8"]]
    )
    def test_batching_knobs_are_gone(self, knob, capsys):
        from repro.cli import build_parser

        # an unknown flag is a usage error: one line, exit 3
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *knob])
        assert excinfo.value.code == 3
        assert capsys.readouterr().err == (
            f"repro: error: unrecognized arguments: {' '.join(knob)}\n"
        )


class TestObservabilityCli:
    def test_bare_metrics_dumps_local_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_solve_seconds histogram" in out
        assert "# TYPE repro_cache_lookups_total counter" in out

    def test_trace_show_renders_waterfall(self, tmp_path, capsys):
        import json

        sink = tmp_path / "spans.jsonl"
        spans = [
            {
                "trace_id": "t" * 32,
                "span_id": "a" * 16,
                "parent_id": None,
                "name": "http.request",
                "start": 0.0,
                "duration_seconds": 0.2,
                "status": "ok",
                "attributes": {"path": "/v1/verify"},
            },
            {
                "trace_id": "t" * 32,
                "span_id": "b" * 16,
                "parent_id": "a" * 16,
                "name": "verify.solve",
                "start": 0.05,
                "duration_seconds": 0.1,
                "status": "ok",
                "attributes": {"backend": "smt", "outcome": "sat"},
            },
        ]
        sink.write_text("".join(json.dumps(s) + "\n" for s in spans))
        assert main(["trace", "show", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "trace " + "t" * 32 in out
        assert "verify.solve" in out
        assert "backend=smt" in out

    def test_trace_show_filters_by_prefix(self, tmp_path, capsys):
        import json

        sink = tmp_path / "spans.jsonl"
        for tid in ("aaa" + "0" * 29, "bbb" + "0" * 29):
            span = {
                "trace_id": tid,
                "span_id": "c" * 16,
                "parent_id": None,
                "name": "work",
                "start": 0.0,
                "duration_seconds": 0.01,
                "status": "ok",
                "attributes": {},
            }
            with sink.open("a") as fh:
                fh.write(json.dumps(span) + "\n")
        assert main(["trace", "show", str(sink), "--trace-id", "bbb"]) == 0
        out = capsys.readouterr().out
        assert "bbb" in out
        assert "aaa" not in out

    def test_trace_show_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["trace", "show", str(tmp_path / "missing.jsonl")])
        assert rc == 1
