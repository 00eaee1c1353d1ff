"""One exact admittance at every entry point.

A line's admittance is the exact rational ``1/x`` of its decimal
reactance.  The library, the spec text format, the service payload and
the MATPOWER writer all carry that one value, so every entry point
solves the same problem; numeric code takes its float64.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.core.io import SpecParseError, parse_spec, write_spec
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.verification import UfdiEncoder
from repro.estimation.measurement import build_h
from repro.grid import cases
from repro.grid.cases import available_cases, ieee14, load_case
from repro.grid.dcflow import nominal_injections, solve_dc_flow, susceptance_matrix
from repro.grid.matpower import load_case_file, write_case_file
from repro.grid.sensitivities import ptdf_matrix
from repro.runtime.serialize import (
    canonical_json,
    payload_to_spec,
    spec_fingerprint,
    spec_to_payload,
)


def admittances(grid):
    return [line.admittance for line in grid.lines]


@pytest.fixture(params=["ieee14", "ieee30", "ieee118"])
def spec(request):
    return AttackSpec.default(load_case(request.param), goal=AttackGoal.states(2))


class TestStoredValue:
    def test_first_lines(self):
        assert load_case("ieee30").line(1).admittance == Fraction(400, 23)
        assert load_case("ieee14").line(1).admittance == Fraction(100000, 5917)

    @pytest.mark.parametrize(
        "name, table",
        [("ieee14", cases._IEEE14_BRANCHES), ("ieee30", cases._IEEE30_BRANCHES)],
    )
    def test_ieee_tables(self, name, table):
        assert admittances(load_case(name)) == [1 / Fraction(str(x)) for _, _, x in table]

    @pytest.mark.parametrize("name", available_cases())
    def test_reactance_is_the_case_decimal(self, name):
        # every bundled reactance has at most 5 decimals, and the
        # admittance is its exact reciprocal
        for line in load_case(name).lines:
            assert 10**5 % line.reactance.denominator == 0
            assert line.admittance == 1 / Fraction(str(float(line.reactance)))


class TestEntryPoints:
    def test_spec_text_round_trip(self, spec):
        again = parse_spec(write_spec(spec))
        assert admittances(again.grid) == admittances(spec.grid)
        assert spec_fingerprint(again) == spec_fingerprint(spec)

    def test_payload_round_trip(self, spec):
        again = payload_to_spec(json.loads(canonical_json(spec_to_payload(spec))))
        assert admittances(again.grid) == admittances(spec.grid)
        assert spec_fingerprint(again) == spec_fingerprint(spec)

    def test_matpower_round_trip(self, spec, tmp_path):
        write_case_file(spec.grid, tmp_path / "case.m")
        assert admittances(load_case_file(tmp_path / "case.m")) == admittances(spec.grid)

    def test_payload_carries_p_over_q(self):
        payload = spec_to_payload(AttackSpec.default(load_case("ieee30")))
        assert payload["lines"][0] == [1, 1, 2, "400/23"]

    def test_older_float_payload_still_loads(self):
        payload = spec_to_payload(AttackSpec.default(ieee14()))
        payload["lines"][0][3] = 16.900456312320433
        line = payload_to_spec(payload).grid.line(1)
        assert line.admittance == Fraction("16.900456312320433")

    def test_decimal_spec_line_parses_exactly(self):
        spec = parse_spec("buses 2\nline 1 1 2 16.9005 1 1 0 0\ntarget 2\n")
        assert spec.grid.line(1).admittance == Fraction(169005, 10000)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(SpecParseError, match="line 2"):
            parse_spec("buses 2\nline 1 1 2 1/0 1 1 0 0\n")

    def test_encoder_row_coefficient(self):
        spec = AttackSpec.default(load_case("ieee30"), goal=AttackGoal.states(2))
        encoder = UfdiEncoder(spec)
        # line 1 runs 1 -> 2 from the reference bus: dp_1 = -ld_1 * dtheta_2
        assert encoder.lines[1].total_expr.coeffs == {
            encoder.dtheta[2].index: Fraction(-400, 23)
        }


class TestNumericEdge:
    def test_numeric_code_stays_float64(self, monkeypatch):
        grid = ieee14()
        injections = nominal_injections(grid)

        def refuse(*args):
            raise AssertionError("numeric code must read float(line.admittance)")

        # a Fraction times an ndarray is an object array, and the float64
        # results would hide it: exact arithmetic itself is the failure
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
            monkeypatch.setattr(Fraction, op, refuse)
        flow = solve_dc_flow(grid, injections)
        arrays = (
            build_h(grid, 1),
            susceptance_matrix(grid),
            ptdf_matrix(grid),
            flow.line_flows,
            flow.theta,
        )
        monkeypatch.undo()
        for array in arrays:
            assert array.dtype == np.float64
