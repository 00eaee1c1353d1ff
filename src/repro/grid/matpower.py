"""A small MATPOWER ``.m`` case-file parser.

Lets users load the authentic IEEE 57/118/300-bus (or any other)
MATPOWER case into a :class:`~repro.grid.model.Grid` when they have the
files, instead of the bundled synthetic stand-ins.  Only the structure
the DC model needs is read: bus numbers and the branch table's from-bus,
to-bus, reactance (column 4) and status (column 11, when present).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.grid.model import Grid, Line

_MATRIX_RE = re.compile(
    r"mpc\.(?P<name>bus|branch)\s*=\s*\[(?P<body>.*?)\];", re.DOTALL
)


class MatpowerParseError(ValueError):
    """The file is not a parseable MATPOWER case."""


def _parse_matrix(body: str) -> List[List[float]]:
    rows: List[List[float]] = []
    for raw_line in body.splitlines():
        line = raw_line.split("%", 1)[0].strip()
        if not line:
            continue
        line = line.rstrip(";").strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
        except ValueError as exc:
            raise MatpowerParseError(f"bad matrix row: {raw_line!r}") from exc
    return rows


def parse_case(text: str, name: str = "") -> Grid:
    """Parse MATPOWER case text into a Grid.

    Out-of-service branches (status 0) are skipped.  Non-consecutive bus
    numbering (common in case300) is compacted to 1..b preserving order.
    """
    matrices: Dict[str, List[List[float]]] = {}
    for match in _MATRIX_RE.finditer(text):
        matrices[match.group("name")] = _parse_matrix(match.group("body"))
    if "bus" not in matrices or "branch" not in matrices:
        raise MatpowerParseError("file lacks mpc.bus / mpc.branch matrices")
    bus_numbers = [int(row[0]) for row in matrices["bus"]]
    if len(set(bus_numbers)) != len(bus_numbers):
        raise MatpowerParseError("duplicate bus numbers")
    renumber = {orig: i + 1 for i, orig in enumerate(bus_numbers)}
    lines: List[Line] = []
    for row in matrices["branch"]:
        if len(row) < 4:
            raise MatpowerParseError(f"branch row too short: {row}")
        status = row[10] if len(row) > 10 else 1.0
        if status == 0:
            continue
        f, t, x = int(row[0]), int(row[1]), float(row[3])
        if f not in renumber or t not in renumber:
            raise MatpowerParseError(f"branch references unknown bus: {row[:2]}")
        if x <= 0:
            # transformers with zero/negative reactance can't be modeled
            # in the pure-reactance DC approximation; use a small value
            x = 1e-4
        lines.append(Line.from_reactance(len(lines) + 1, renumber[f], renumber[t], x))
    return Grid(len(bus_numbers), lines, name=name or "matpower-case")


def load_case_file(path: Union[str, Path]) -> Grid:
    """Load a MATPOWER ``.m`` file from disk."""
    path = Path(path)
    return parse_case(path.read_text(), name=path.stem)


def write_case_file(grid: Grid, path: Union[str, Path]) -> None:
    """Write a grid back out as a minimal MATPOWER case (DC fields only)."""
    path = Path(path)
    out = ["function mpc = case_export", "mpc.version = '2';", "mpc.baseMVA = 100;"]
    out.append("mpc.bus = [")
    for j in range(1, grid.num_buses + 1):
        out.append(f"\t{j}\t1\t0\t0\t0\t0\t1\t1\t0\t135\t1\t1.05\t0.95;")
    out.append("];")
    out.append("mpc.gen = [")
    out.append("\t1\t0\t0\t10\t-10\t1\t100\t1\t10\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    # shortest repr: a decimal reactance reads back as the same decimal
    for line in grid.lines:
        out.append(
            f"\t{line.from_bus}\t{line.to_bus}\t0\t{float(line.reactance)!r}"
            f"\t0\t0\t0\t0\t0\t0\t1\t-360\t360;"
        )
    out.append("];")
    path.write_text("\n".join(out) + "\n")
