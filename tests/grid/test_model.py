"""Unit tests for the bus/branch grid model."""

from fractions import Fraction

import pytest

from repro.grid.model import Grid, Line


def tiny_grid():
    """1 -- 2 -- 3 with a 1-3 chord."""
    return Grid(
        3,
        [
            Line.from_reactance(1, 1, 2, 0.1),
            Line.from_reactance(2, 2, 3, 0.2),
            Line.from_reactance(3, 1, 3, 0.25),
        ],
        name="triangle",
    )


class TestLine:
    def test_from_reactance(self):
        line = Line.from_reactance(1, 1, 2, 0.05917)
        assert line.admittance == pytest.approx(16.90, abs=0.005)
        assert line.reactance == pytest.approx(0.05917)

    def test_admittance_is_the_exact_reciprocal(self):
        line = Line.from_reactance(1, 1, 2, 0.0575)
        assert (line.admittance, line.reactance) == (Fraction(400, 23), Fraction(23, 400))
        assert Line.from_reactance(1, 1, 2, "0.0575") == line

    @pytest.mark.parametrize(
        "given, exact",
        [
            (2.0, Fraction(2)),
            (16.9005, Fraction(169005, 10000)),  # a float by its shortest decimal
            ("400/23", Fraction(400, 23)),
            ("16.9005", Fraction(169005, 10000)),
            (3, Fraction(3)),
        ],
    )
    def test_constructor_normalizes_admittance(self, given, exact):
        assert Line(1, 1, 2, given).admittance == exact

    @pytest.mark.parametrize(
        "bad, error",
        [
            (True, TypeError),
            ("1/0", ValueError),
            ("abc", ValueError),
            (float("inf"), ValueError),
            (float("nan"), ValueError),
        ],
    )
    def test_non_number_admittance_rejected(self, bad, error):
        with pytest.raises(error):
            Line(1, 1, 2, bad)

    def test_nonpositive_reactance_rejected(self):
        with pytest.raises(ValueError):
            Line.from_reactance(1, 1, 2, 0.0)
        with pytest.raises(ValueError):
            Line.from_reactance(1, 1, 2, -1.0)

    def test_other_end(self):
        line = Line(1, 4, 7, 1.0)
        assert line.other_end(4) == 7
        assert line.other_end(7) == 4
        with pytest.raises(ValueError):
            line.other_end(5)


class TestGridValidation:
    def test_line_indices_must_be_sequential(self):
        with pytest.raises(ValueError, match="1..l in order"):
            Grid(2, [Line(2, 1, 2, 1.0)])

    def test_bus_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Grid(2, [Line(1, 1, 3, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Grid(2, [Line(1, 1, 1, 1.0)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(0, [])


class TestTopologyAccessors:
    def test_counts(self):
        g = tiny_grid()
        assert g.num_buses == 3
        assert g.num_lines == 3
        assert list(g.buses) == [1, 2, 3]

    def test_lines_at(self):
        g = tiny_grid()
        assert {l.index for l in g.lines_at(1)} == {1, 3}
        assert {l.index for l in g.lines_at(2)} == {1, 2}

    def test_lines_from_and_to(self):
        g = tiny_grid()
        assert [l.index for l in g.lines_from(1)] == [1, 3]
        assert [l.index for l in g.lines_to(3)] == [2, 3]
        assert g.lines_from(3) == []

    def test_neighbors(self):
        g = tiny_grid()
        assert g.neighbors(1) == [2, 3]
        assert g.neighbors(2) == [1, 3]

    def test_degree_and_average(self):
        g = tiny_grid()
        assert g.degree(1) == 2
        assert g.average_degree() == pytest.approx(2.0)

    def test_parallel_lines_supported(self):
        g = Grid(2, [Line(1, 1, 2, 1.0), Line(2, 1, 2, 2.0)])
        assert g.degree(1) == 2
        assert g.neighbors(1) == [2]


class TestGraphOperations:
    def test_connected(self):
        assert tiny_grid().is_connected()

    def test_islands_under_restriction(self):
        g = tiny_grid()
        islands = g.islands(line_indices=[1])  # only 1-2 closed
        assert sorted(map(sorted, islands)) == [[1, 2], [3]]

    def test_restrict_renumbers(self):
        g = tiny_grid()
        sub = g.restrict([2, 3])
        assert sub.num_lines == 2
        assert [l.index for l in sub.lines] == [1, 2]
        assert (sub.line(1).from_bus, sub.line(1).to_bus) == (2, 3)

    def test_graph_has_all_nodes(self):
        g = tiny_grid()
        assert set(g.graph(line_indices=[]).nodes) == {1, 2, 3}
