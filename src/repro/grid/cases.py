"""Test-case registry: IEEE systems and synthetic large grids.

``ieee14`` is the exact IEEE 14-bus system used in the paper's case
studies; its line ordering and admittances reproduce the paper's
Table II precisely (line 1: 1-2 with admittance 16.90, ..., line 20:
13-14 with admittance 2.87).  ``ieee30`` is the standard IEEE 30-bus
topology with MATPOWER reactances.  ``ieee57``/``ieee118``/``ieee300``
are deterministic synthetic grids matching the published bus/branch
counts of the real systems (see :mod:`repro.grid.synthetic` and
DESIGN.md for the substitution rationale) — the paper's scalability
experiments depend only on problem size and degree structure.
``synthetic1000``/``synthetic2000``/``synthetic3000`` extend the
scaling ladder past the published systems at the same ~3 average
degree (1.5 lines per bus), for Fig. 4/5-style large-grid runs such
as the ``ladder`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.grid.model import Grid, Line
from repro.grid.synthetic import generate_grid

# (from_bus, to_bus, reactance) — MATPOWER case14 branch data; the
# exact reciprocal reactances (100000/5917, ...) are the admittance
# column of the paper's Table II (16.90, 4.48, 5.05, ...).
_IEEE14_BRANCHES: List[Tuple[int, int, float]] = [
    (1, 2, 0.05917),
    (1, 5, 0.22304),
    (2, 3, 0.19797),
    (2, 4, 0.17632),
    (2, 5, 0.17388),
    (3, 4, 0.17103),
    (4, 5, 0.04211),
    (4, 7, 0.20912),
    (4, 9, 0.55618),
    (5, 6, 0.25202),
    (6, 11, 0.19890),
    (6, 12, 0.25581),
    (6, 13, 0.13027),
    (7, 8, 0.17615),
    (7, 9, 0.11001),
    (9, 10, 0.08450),
    (9, 14, 0.27038),
    (10, 11, 0.19207),
    (12, 13, 0.19988),
    (13, 14, 0.34802),
]

# (from_bus, to_bus, reactance) — standard IEEE 30-bus topology with
# MATPOWER case30 reactances.
_IEEE30_BRANCHES: List[Tuple[int, int, float]] = [
    (1, 2, 0.0575),
    (1, 3, 0.1852),
    (2, 4, 0.1737),
    (3, 4, 0.0379),
    (2, 5, 0.1983),
    (2, 6, 0.1763),
    (4, 6, 0.0414),
    (5, 7, 0.1160),
    (6, 7, 0.0820),
    (6, 8, 0.0420),
    (6, 9, 0.2080),
    (6, 10, 0.5560),
    (9, 11, 0.2080),
    (9, 10, 0.1100),
    (4, 12, 0.2560),
    (12, 13, 0.1400),
    (12, 14, 0.2559),
    (12, 15, 0.1304),
    (12, 16, 0.1987),
    (14, 15, 0.1997),
    (16, 17, 0.1923),
    (15, 18, 0.2185),
    (18, 19, 0.1292),
    (19, 20, 0.0680),
    (10, 20, 0.2090),
    (10, 17, 0.0845),
    (10, 21, 0.0749),
    (10, 22, 0.1499),
    (21, 22, 0.0236),
    (15, 23, 0.2020),
    (22, 24, 0.1790),
    (23, 24, 0.2700),
    (24, 25, 0.3292),
    (25, 26, 0.3800),
    (25, 27, 0.2087),
    (28, 27, 0.3960),
    (27, 29, 0.4153),
    (27, 30, 0.6027),
    (29, 30, 0.4533),
    (8, 28, 0.2000),
    (6, 28, 0.0599),
]


def _grid_from_branches(
    name: str, num_buses: int, branches: List[Tuple[int, int, float]]
) -> Grid:
    lines = [
        Line.from_reactance(idx, f, t, x)
        for idx, (f, t, x) in enumerate(branches, start=1)
    ]
    return Grid(num_buses, lines, name=name)


def ieee14() -> Grid:
    """The exact IEEE 14-bus system (paper Fig. 1 / Table II)."""
    return _grid_from_branches("ieee14", 14, _IEEE14_BRANCHES)


def ieee30() -> Grid:
    """The IEEE 30-bus system."""
    return _grid_from_branches("ieee30", 30, _IEEE30_BRANCHES)


def ieee57() -> Grid:
    """Synthetic 57-bus grid with the IEEE 57-bus system's size (57/80)."""
    return generate_grid(57, 80, seed=57, name="ieee57-synthetic")


def ieee118() -> Grid:
    """Synthetic 118-bus grid with the IEEE 118-bus system's size (118/186)."""
    return generate_grid(118, 186, seed=118, name="ieee118-synthetic")


def ieee300() -> Grid:
    """Synthetic 300-bus grid with the IEEE 300-bus system's size (300/411)."""
    return generate_grid(300, 411, seed=300, name="ieee300-synthetic")


def synthetic1000() -> Grid:
    """Deterministic 1000-bus grid (1500 lines, avg degree 3.0)."""
    return generate_grid(1000, 1500, seed=1000, name="synthetic1000")


def synthetic2000() -> Grid:
    """Deterministic 2000-bus grid (3000 lines, avg degree 3.0)."""
    return generate_grid(2000, 3000, seed=2000, name="synthetic2000")


def synthetic3000() -> Grid:
    """Deterministic 3000-bus grid (4500 lines, avg degree 3.0)."""
    return generate_grid(3000, 4500, seed=3000, name="synthetic3000")


_REGISTRY: Dict[str, Callable[[], Grid]] = {
    "ieee14": ieee14,
    "ieee30": ieee30,
    "ieee57": ieee57,
    "ieee118": ieee118,
    "ieee300": ieee300,
    "synthetic1000": synthetic1000,
    "synthetic2000": synthetic2000,
    "synthetic3000": synthetic3000,
    "14": ieee14,
    "30": ieee30,
    "57": ieee57,
    "118": ieee118,
    "300": ieee300,
    "1000": synthetic1000,
    "2000": synthetic2000,
    "3000": synthetic3000,
}


def load_case(name: str) -> Grid:
    """Load a registered test case by name (``"ieee14"`` ... ``"ieee300"``)."""
    key = str(name).lower()
    builder = _REGISTRY.get(key)
    if builder is None:
        raise KeyError(
            f"unknown case {name!r}; available: {sorted(set(_REGISTRY) - set('0123456789' ))}"
        )
    return builder()


def available_cases() -> List[str]:
    return [
        "ieee14",
        "ieee30",
        "ieee57",
        "ieee118",
        "ieee300",
        "synthetic1000",
        "synthetic2000",
        "synthetic3000",
    ]
