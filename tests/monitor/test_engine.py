"""Engine behavior: replay determinism, batch equivalence, warm sessions.

These are the ISSUE's acceptance tests: the same (case, scenario,
seed) must reproduce the measurement stream and the incident list
bit-for-bit, and a live incident's verification verdict and synthesized
countermeasure must match what the equivalent *batch* ``verify`` /
``mincost`` / ``synthesize`` calls produce.
"""

import pytest

from repro.core.mincost import minimum_attack_cost
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.core.verification import verify_attack
from repro.grid.cases import ieee14
from repro.monitor.engine import MonitorConfig, MonitorEngine
from repro.monitor.reverify import ReverifyConfig
from repro.monitor.scenario import resolve_scenario
from repro.runtime.serialize import attack_to_payload

TICKS = 80


def run_monitor(scenario_name, ticks=TICKS, seed=7, **reverify_kwargs):
    # every cost search opens its own session, so repeated runs in one
    # process replay bit-identically
    grid = ieee14()
    scenario = resolve_scenario(scenario_name, grid, ticks=ticks)
    config = MonitorConfig(
        ticks=ticks, seed=seed, reverify=ReverifyConfig(**reverify_kwargs)
    )
    engine = MonitorEngine(grid, scenario, config)
    return engine, engine.run()


class TestReplayDeterminism:
    def test_same_seed_identical_stream_and_incidents(self):
        _, first = run_monitor("telemetry_spoof")
        _, second = run_monitor("telemetry_spoof")
        assert first.stream_digest == second.stream_digest
        assert first.incident_signatures() == second.incident_signatures()
        assert first.incidents  # the comparison must not be vacuous

    def test_line_outage_replay(self):
        _, first = run_monitor("line_outage")
        _, second = run_monitor("line_outage")
        assert first.stream_digest == second.stream_digest
        assert first.incident_signatures() == second.incident_signatures()
        assert first.incidents

    def test_signatures_exclude_volatile_fields(self):
        _, report = run_monitor("telemetry_spoof")
        for signature in report.incident_signatures():
            assert "created_at" not in signature
            assert "trace_id" not in signature


class TestBatchEquivalence:
    """The live verdict is the batch verdict, bit for bit."""

    @pytest.fixture(scope="class")
    def spoof_incident(self):
        _, report = run_monitor("telemetry_spoof")
        incidents = [i for i in report.incidents if i.kind == "state_drift"]
        assert incidents
        return incidents[0]

    def test_verification_matches_batch_verify(self, spoof_incident):
        verdict = spoof_incident.verification
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(*verdict["suspected_buses"]),
        )
        batch = verify_attack(spec)
        assert verdict["outcome"] == batch.outcome.value
        assert verdict["attack"] == attack_to_payload(batch.attack)

    def test_min_cost_matches_batch_mincost(self, spoof_incident):
        verdict = spoof_incident.verification
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(*verdict["suspected_buses"]),
        )
        batch = minimum_attack_cost(spec, dimension="measurements")
        assert verdict["min_cost"] == batch.cost
        # probe count is a search metric, not part of the verdict: the
        # live search runs on a warm session whose unconstrained witness
        # can differ from a cold solver's, shifting the bisection bounds
        assert verdict["probes"] >= 1

    def test_countermeasure_matches_batch_synthesize(self, spoof_incident):
        assert spoof_incident.severity == "critical"
        countermeasure = spoof_incident.countermeasure
        assert countermeasure is not None
        verdict = spoof_incident.verification
        spec = AttackSpec.default(
            ieee14(),
            goal=AttackGoal.states(*verdict["suspected_buses"]),
        )
        batch = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=countermeasure["budget"])
        )
        assert countermeasure["feasible"] == batch.feasible
        assert countermeasure["secured_buses"] == batch.architecture
        assert countermeasure["iterations"] == batch.iterations


class TestTopologyShift:
    def test_outage_triggers_post_outage_reverification(
        self, monkeypatch, grid_encodes
    ):
        import repro.monitor.reverify as reverify

        searches = []  # (grid encodings, probes) of each cost search

        def recording_search(spec, **kwargs):
            before = grid_encodes()
            result = minimum_attack_cost(spec, **kwargs)
            searches.append((grid_encodes() - before, result.probes))
            return result

        monkeypatch.setattr(reverify, "minimum_attack_cost", recording_search)
        engine, report = run_monitor("line_outage")
        shifts = [i for i in report.incidents if i.kind == "vulnerability_shift"]
        assert len(shifts) == 1
        verdict = shifts[0].verification
        assert verdict["check"] == "topology_shift"
        assert verdict["baseline_cost"] == report.baseline_cost
        assert verdict["min_cost"] is not None
        assert set(verdict["in_service_lines"]) < set(
            range(1, ieee14().num_lines + 1)
        )
        # each cost search ran on one warm session: one encode, however
        # many probes (full topology baseline + post-outage family)
        assert len(searches) >= 2
        assert [encodes for encodes, _ in searches] == [1] * len(searches)
        assert any(probes > 1 for _, probes in searches)

    def test_post_outage_cost_matches_batch_on_restricted_grid(self):
        engine, report = run_monitor("line_outage")
        shift = next(
            i for i in report.incidents if i.kind == "vulnerability_shift"
        )
        verdict = shift.verification
        restricted = ieee14().restrict(verdict["in_service_lines"])
        batch = minimum_attack_cost(
            AttackSpec.default(restricted, goal=AttackGoal.any()),
            dimension="measurements",
        )
        assert verdict["min_cost"] == batch.cost


class TestIncidentAssembly:
    def test_persistent_spoof_collapses_to_one_incident(self):
        engine, report = run_monitor("telemetry_spoof")
        drift = [i for i in report.incidents if i.kind == "state_drift"]
        assert len(drift) == 1
        assert engine.counters["deduped"] > 0

    def test_noise_burst_yields_bad_data_incident_without_bridge(self):
        _, report = run_monitor("noise_burst")
        bad = [i for i in report.incidents if i.kind == "bad_data"]
        assert bad
        assert bad[0].severity == "minor"
        assert bad[0].verification is None
        assert bad[0].countermeasure is None

    def test_nominal_run_is_quiet(self):
        _, report = run_monitor("nominal")
        assert report.incidents == []

    def test_incident_ids_are_deterministic_and_unique(self):
        _, report = run_monitor("line_outage")
        ids = [incident.id for incident in report.incidents]
        assert len(ids) == len(set(ids))
        for incident in report.incidents:
            assert incident.id == f"{incident.kind}-{incident.tick:05d}-00"

    def test_sink_receives_every_incident(self, tmp_path):
        import json

        from repro.monitor.incidents import IncidentSink

        grid = ieee14()
        scenario = resolve_scenario("telemetry_spoof", grid, ticks=TICKS)
        sink = IncidentSink(tmp_path / "incidents.jsonl")
        engine = MonitorEngine(
            grid, scenario, MonitorConfig(ticks=TICKS, seed=7), sink=sink
        )
        report = engine.run()
        lines = (tmp_path / "incidents.jsonl").read_text().splitlines()
        assert len(lines) == len(report.incidents)
        payloads = [json.loads(line) for line in lines]
        assert [p["id"] for p in payloads] == [i.id for i in report.incidents]
