"""The shipped example spec files parse and reproduce the case studies."""

from pathlib import Path

import pytest

from repro.core.casestudy import attack_objective_1, attack_objective_2, synthesis_scenario
from repro.core.io import load_spec_file, write_spec
from repro.core.verification import verify_attack

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"

# each shipped file is `save_spec_file` of the library function that makes its spec
SPEC_MAKERS = {
    "objective1": attack_objective_1,
    "objective2": attack_objective_2,
    "objective2_topology": lambda: attack_objective_2(True, True),
    "scenario1": lambda: synthesis_scenario(1),
    "scenario2": lambda: synthesis_scenario(2),
    "scenario3": lambda: synthesis_scenario(3),
}


class TestShippedSpecs:
    def test_all_files_parse(self):
        files = sorted(SPEC_DIR.glob("*.spec"))
        assert len(files) >= 6
        for path in files:
            spec = load_spec_file(path)
            assert spec.grid.num_buses == 14

    def test_objective1_reproduces(self):
        spec = load_spec_file(SPEC_DIR / "objective1.spec")
        result = verify_attack(spec)
        assert result.attack_exists
        assert result.attack.compromised_buses(spec.plan) == [4, 7, 9, 10, 11, 13, 14]

    def test_objective2_reproduces(self):
        spec = load_spec_file(SPEC_DIR / "objective2.spec")
        result = verify_attack(spec)
        assert result.attack.altered_measurements == [12, 32, 39, 46, 53]

    def test_objective2_topology_reproduces(self):
        spec = load_spec_file(SPEC_DIR / "objective2_topology.spec")
        result = verify_attack(spec)
        assert result.attack.excluded_lines == frozenset({13})

    def test_scenarios_have_any_goal(self):
        for n in (1, 2, 3):
            spec = load_spec_file(SPEC_DIR / f"scenario{n}.spec")
            assert spec.goal.any_state

    def test_every_file_has_a_spec_maker(self):
        assert sorted(path.stem for path in SPEC_DIR.glob("*.spec")) == sorted(SPEC_MAKERS)

    @pytest.mark.parametrize("name", sorted(SPEC_MAKERS))
    def test_file_matches_its_spec_maker(self, name):
        assert (SPEC_DIR / f"{name}.spec").read_text() == write_spec(SPEC_MAKERS[name]())

    def test_cli_runs_on_shipped_spec(self, capsys):
        from repro.cli import main

        rc = main(["verify", str(SPEC_DIR / "objective2.spec")])
        assert rc == 2  # attack exists
        assert "sat" in capsys.readouterr().out
