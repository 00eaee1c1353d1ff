"""Bus/branch network model.

The conventions follow the paper's Section III-A:

* buses are numbered ``1..b``;
* lines are numbered ``1..l``; line ``i`` is directed from its *from-bus*
  ``lf_i`` to its *to-bus* ``lt_i`` (the direction fixes the sign of the
  line's power flow, it does not restrict actual flow direction);
* line admittance ``ld_i`` is the reciprocal of the line reactance
  (pure-reactance DC model), held as an exact rational: the verification
  model decides over exact arithmetic, and numeric code takes its float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Bus:
    """A bus (electrical node / substation)."""

    index: int
    name: str = ""


Number = Union[int, float, str, Fraction]


def _exact(value: Number) -> Fraction:
    """The exact rational a grid number stands for.

    ``int``, ``str`` (``"16.9005"``, ``"400/23"``) and ``Fraction`` are
    exact already; a float stands for its shortest decimal, so ``0.0575``
    is ``23/400`` rather than its binary neighbour.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a grid number")
    try:
        # Decimal parses a float's decimal ~2x faster than Fraction does
        return Fraction(Decimal(str(value)) if isinstance(value, float) else value)
    except (ZeroDivisionError, OverflowError) as exc:  # "1/0", inf
        raise ValueError(f"{value!r} is not a finite rational") from exc


@dataclass(frozen=True)
class Line:
    """A transmission line (branch) in the DC model.

    ``admittance`` is the exact ``Fraction`` ``1/x`` for reactance ``x``;
    the constructor normalizes any :data:`Number` through :func:`_exact`,
    and :meth:`from_reactance` builds a line from its reactance.
    """

    index: int
    from_bus: int
    to_bus: int
    admittance: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "admittance", _exact(self.admittance))

    @staticmethod
    def from_reactance(index: int, from_bus: int, to_bus: int, reactance: Number) -> "Line":
        x = _exact(reactance)
        if x <= 0:
            raise ValueError(f"line {index}: reactance must be positive, got {reactance}")
        return Line(index, from_bus, to_bus, 1 / x)

    @property
    def reactance(self) -> Fraction:
        return 1 / self.admittance

    def other_end(self, bus: int) -> int:
        if bus == self.from_bus:
            return self.to_bus
        if bus == self.to_bus:
            return self.from_bus
        raise ValueError(f"bus {bus} is not an endpoint of line {self.index}")


class Grid:
    """An immutable bus/branch grid.

    Buses are ``1..num_buses``; ``lines`` holds :class:`Line` objects with
    indices ``1..num_lines`` in order.
    """

    def __init__(self, num_buses: int, lines: Sequence[Line], name: str = "") -> None:
        if num_buses < 1:
            raise ValueError("a grid needs at least one bus")
        self.name = name
        self.num_buses = num_buses
        self.lines: Tuple[Line, ...] = tuple(lines)
        for expected, line in enumerate(self.lines, start=1):
            if line.index != expected:
                raise ValueError(
                    f"line indices must be 1..l in order; expected {expected}, got {line.index}"
                )
            for bus in (line.from_bus, line.to_bus):
                if not 1 <= bus <= num_buses:
                    raise ValueError(f"line {line.index}: bus {bus} out of range")
            if line.from_bus == line.to_bus:
                raise ValueError(f"line {line.index} is a self-loop")
        self._lines_at: Dict[int, List[Line]] = {j: [] for j in range(1, num_buses + 1)}
        for line in self.lines:
            self._lines_at[line.from_bus].append(line)
            self._lines_at[line.to_bus].append(line)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def buses(self) -> range:
        return range(1, self.num_buses + 1)

    def line(self, index: int) -> Line:
        return self.lines[index - 1]

    def lines_at(self, bus: int) -> List[Line]:
        """All lines incident to ``bus`` (either endpoint)."""
        return list(self._lines_at[bus])

    def lines_from(self, bus: int) -> List[Line]:
        """Lines whose *from-bus* is ``bus`` (outgoing in the paper's sense)."""
        return [line for line in self._lines_at[bus] if line.from_bus == bus]

    def lines_to(self, bus: int) -> List[Line]:
        """Lines whose *to-bus* is ``bus`` (incoming in the paper's sense)."""
        return [line for line in self._lines_at[bus] if line.to_bus == bus]

    def neighbors(self, bus: int) -> List[int]:
        return sorted({line.other_end(bus) for line in self._lines_at[bus]})

    def degree(self, bus: int) -> int:
        return len(self._lines_at[bus])

    def average_degree(self) -> float:
        return 2.0 * self.num_lines / self.num_buses

    # ------------------------------------------------------------------
    # graph structure
    # ------------------------------------------------------------------
    def graph(self, line_indices: Optional[Iterable[int]] = None) -> nx.MultiGraph:
        """Networkx view (optionally restricted to a line subset)."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from(self.buses)
        selected = (
            self.lines
            if line_indices is None
            else [self.line(i) for i in line_indices]
        )
        for line in selected:
            g.add_edge(line.from_bus, line.to_bus, key=line.index, line=line)
        return g

    def is_connected(self, line_indices: Optional[Iterable[int]] = None) -> bool:
        import networkx as nx

        return nx.is_connected(self.graph(line_indices))

    def islands(self, line_indices: Optional[Iterable[int]] = None) -> List[set]:
        """Connected components under the given line subset."""
        import networkx as nx

        return [set(c) for c in nx.connected_components(self.graph(line_indices))]

    def restrict(self, line_indices: Iterable[int], name: str = "") -> "Grid":
        """A new grid with only the given lines (renumbered 1..k).

        Used by the topology processor to materialize the mapped topology.
        """
        chosen = sorted(set(line_indices))
        lines = [
            Line(new_index, self.line(old).from_bus, self.line(old).to_bus,
                 self.line(old).admittance)
            for new_index, old in enumerate(chosen, start=1)
        ]
        return Grid(self.num_buses, lines, name=name or f"{self.name}[restricted]")

    def __repr__(self) -> str:
        return (
            f"Grid({self.name or 'unnamed'}: {self.num_buses} buses, "
            f"{self.num_lines} lines)"
        )
