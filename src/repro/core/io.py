"""The text input-file format of the paper's implementation (Section III-H).

The paper's tool reads "the system configurations and the constraints ...
in a text file (input file)" whose contents are the Tables I-III data.
This module defines a faithful, documented line-oriented format and a
parser/writer pair so specs can be stored, diffed and shared:

.. code-block:: text

    # comments start with '#'
    buses 14
    reference 1
    # line <idx> <from> <to> <admittance> <known> <in_topo> <fixed> <status_secured>
    line 1 1 2 100000/5917 1 1 1 0
    ...
    # measurement <idx> <taken> <secured> <accessible>
    measurement 1 1 1 1
    ...
    limit measurements 16
    limit buses 7
    target 9 10
    distinct 9 10
    exclusive 0
    topology_attack 1

The admittance column is an exact rational: a decimal (``16.90``) or
a fraction ``p/q``.  :func:`write_spec` writes ``p/q``, so a written
spec parses back to the very admittances the library solves with.
Omitted measurements default to taken/unsecured/accessible; omitted
limits to unlimited.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.estimation.measurement import MeasurementPlan
from repro.grid.model import Grid, Line


class SpecParseError(ValueError):
    """The input file is malformed."""


def _flag(token: str, context: str) -> bool:
    if token not in ("0", "1"):
        raise SpecParseError(f"{context}: expected 0/1 flag, got {token!r}")
    return token == "1"


def parse_spec(text: str) -> AttackSpec:
    """Parse the text format into an :class:`AttackSpec`."""
    num_buses: Optional[int] = None
    reference = 1
    line_rows: List[Tuple[int, int, int, Fraction]] = []
    line_attrs: Dict[int, LineAttributes] = {}
    taken: Set[int] = set()
    secured: Set[int] = set()
    inaccessible: Set[int] = set()
    measurement_seen: Set[int] = set()
    max_measurements: Optional[int] = None
    max_buses: Optional[int] = None
    targets: Set[int] = set()
    distinct: List[Tuple[int, int]] = []
    exclusive = False
    any_state = False
    topology_attack = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0]
        context = f"line {lineno}"
        try:
            if keyword == "buses":
                num_buses = int(tokens[1])
            elif keyword == "reference":
                reference = int(tokens[1])
            elif keyword == "line":
                idx, f, t = int(tokens[1]), int(tokens[2]), int(tokens[3])
                admittance = Fraction(tokens[4])
                line_rows.append((idx, f, t, admittance))
                line_attrs[idx] = LineAttributes(
                    knows_admittance=_flag(tokens[5], context),
                    in_true_topology=_flag(tokens[6], context),
                    fixed=_flag(tokens[7], context),
                    status_secured=_flag(tokens[8], context),
                )
            elif keyword == "measurement":
                idx = int(tokens[1])
                measurement_seen.add(idx)
                if _flag(tokens[2], context):
                    taken.add(idx)
                if _flag(tokens[3], context):
                    secured.add(idx)
                if not _flag(tokens[4], context):
                    inaccessible.add(idx)
            elif keyword == "limit":
                if tokens[1] == "measurements":
                    max_measurements = int(tokens[2])
                elif tokens[1] == "buses":
                    max_buses = int(tokens[2])
                else:
                    raise SpecParseError(f"{context}: unknown limit {tokens[1]!r}")
            elif keyword == "target":
                if tokens[1] == "any":
                    any_state = True
                else:
                    targets.update(int(t) for t in tokens[1:])
            elif keyword == "distinct":
                distinct.append((int(tokens[1]), int(tokens[2])))
            elif keyword == "exclusive":
                exclusive = _flag(tokens[1], context)
            elif keyword == "topology_attack":
                topology_attack = _flag(tokens[1], context)
            else:
                raise SpecParseError(f"{context}: unknown keyword {keyword!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, SpecParseError):
                raise
            raise SpecParseError(f"{context}: {raw!r}: {exc}") from exc

    if num_buses is None:
        raise SpecParseError("missing 'buses' declaration")
    if not line_rows:
        raise SpecParseError("no 'line' rows")
    line_rows.sort()
    lines = [Line(idx, f, t, y) for idx, f, t, y in line_rows]
    grid = Grid(num_buses, lines, name="from-spec-file")
    num_potential = 2 * grid.num_lines + grid.num_buses
    # measurements not listed default to taken
    taken |= set(range(1, num_potential + 1)) - measurement_seen
    plan = MeasurementPlan(grid, taken=taken, secured=secured, inaccessible=inaccessible)
    return AttackSpec(
        grid=grid,
        plan=plan,
        line_attrs=line_attrs,
        goal=AttackGoal(
            target_states=frozenset(targets),
            exclusive=exclusive,
            distinct_pairs=tuple(distinct),
            any_state=any_state,
        ),
        limits=ResourceLimits(max_measurements=max_measurements, max_buses=max_buses),
        reference_bus=reference,
        allow_topology_attack=topology_attack,
    )


def write_spec(spec: AttackSpec) -> str:
    """Serialize an :class:`AttackSpec` into the text format."""
    out: List[str] = []
    out.append(f"buses {spec.grid.num_buses}")
    out.append(f"reference {spec.reference_bus}")
    out.append("# line <idx> <from> <to> <admittance> <known> <in_topo> <fixed> <status_secured>")
    for line in spec.grid.lines:
        a = spec.attrs(line.index)
        out.append(
            f"line {line.index} {line.from_bus} {line.to_bus} {line.admittance} "
            f"{int(a.knows_admittance)} {int(a.in_true_topology)} "
            f"{int(a.fixed)} {int(a.status_secured)}"
        )
    out.append("# measurement <idx> <taken> <secured> <accessible>")
    plan = spec.plan
    for meas in range(1, plan.num_potential + 1):
        out.append(
            f"measurement {meas} {int(plan.is_taken(meas))} "
            f"{int(plan.is_secured(meas))} {int(plan.is_accessible(meas))}"
        )
    if spec.limits.max_measurements is not None:
        out.append(f"limit measurements {spec.limits.max_measurements}")
    if spec.limits.max_buses is not None:
        out.append(f"limit buses {spec.limits.max_buses}")
    if spec.goal.any_state:
        out.append("target any")
    if spec.goal.target_states:
        out.append("target " + " ".join(str(j) for j in sorted(spec.goal.target_states)))
    for a, b in spec.goal.distinct_pairs:
        out.append(f"distinct {a} {b}")
    out.append(f"exclusive {int(spec.goal.exclusive)}")
    out.append(f"topology_attack {int(spec.allow_topology_attack)}")
    return "\n".join(out) + "\n"


def load_spec_file(path: Union[str, Path]) -> AttackSpec:
    """Read a spec from disk."""
    return parse_spec(Path(path).read_text())


def save_spec_file(spec: AttackSpec, path: Union[str, Path]) -> None:
    """Write a spec to disk."""
    Path(path).write_text(write_spec(spec))
