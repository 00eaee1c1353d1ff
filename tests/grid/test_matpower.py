"""Tests for the MATPOWER case-file parser and writer."""

from fractions import Fraction

import pytest

from repro.grid.cases import ieee14
from repro.grid.matpower import (
    MatpowerParseError,
    load_case_file,
    parse_case,
    write_case_file,
)
from repro.grid.model import Grid, Line

SAMPLE = """
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.06\t0\t0\t1\t1.06\t0.94;
\t2\t2\t21.7\t12.7\t0\t0\t1\t1.045\t-4.98\t0\t1\t1.06\t0.94;
\t5\t1\t7.6\t1.6\t0\t0\t1\t1.01\t-8.78\t0\t1\t1.06\t0.94;
];

mpc.branch = [
\t1\t2\t0.01938\t0.05917\t0.0528\t0\t0\t0\t0\t0\t1\t-360\t360;
\t1\t5\t0.05403\t0.22304\t0.0492\t0\t0\t0\t0\t0\t1\t-360\t360;
\t2\t5\t0.05695\t0.17388\t0.0346\t0\t0\t0\t0\t0\t0\t-360\t360; % out of service
];
"""


class TestParse:
    def test_basic_structure(self):
        grid = parse_case(SAMPLE)
        assert grid.num_buses == 3
        assert grid.num_lines == 2  # out-of-service branch dropped

    def test_bus_renumbering(self):
        grid = parse_case(SAMPLE)
        # original bus 5 becomes bus 3
        assert (grid.line(2).from_bus, grid.line(2).to_bus) == (1, 3)

    def test_reactance_to_admittance(self):
        grid = parse_case(SAMPLE)
        assert grid.line(1).admittance == pytest.approx(1 / 0.05917)

    def test_comments_ignored(self):
        grid = parse_case(SAMPLE)
        assert grid.num_lines == 2

    def test_missing_matrices_rejected(self):
        with pytest.raises(MatpowerParseError, match="lacks"):
            parse_case("function mpc = nothing")

    def test_duplicate_buses_rejected(self):
        bad = SAMPLE.replace("\t2\t2\t21.7", "\t1\t2\t21.7", 1)
        with pytest.raises(MatpowerParseError, match="duplicate"):
            parse_case(bad)

    def test_unknown_bus_in_branch_rejected(self):
        bad = SAMPLE.replace("\t1\t5\t0.05403", "\t1\t9\t0.05403")
        with pytest.raises(MatpowerParseError, match="unknown bus"):
            parse_case(bad)

    def test_malformed_row_rejected(self):
        bad = SAMPLE.replace("0.05917", "abc")
        with pytest.raises(MatpowerParseError, match="bad matrix row"):
            parse_case(bad)

    def test_zero_reactance_replaced(self):
        text = SAMPLE.replace("0.05917", "0.0")
        grid = parse_case(text)
        assert grid.line(1).reactance == pytest.approx(1e-4)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        original = ieee14()
        path = tmp_path / "case14.m"
        write_case_file(original, path)
        loaded = load_case_file(path)
        assert loaded.num_buses == original.num_buses
        assert loaded.num_lines == original.num_lines
        for a, b in zip(original.lines, loaded.lines):
            assert (a.from_bus, a.to_bus) == (b.from_bus, b.to_bus)
            assert a.admittance == b.admittance

    def test_seven_decimal_reactance_survives(self, tmp_path):
        original = Grid(2, [Line.from_reactance(1, 1, 2, 0.1234567)])
        path = tmp_path / "case2.m"
        write_case_file(original, path)
        assert load_case_file(path).line(1).reactance == Fraction("0.1234567")
