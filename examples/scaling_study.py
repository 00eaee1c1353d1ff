#!/usr/bin/env python3
"""A miniature of the paper's scalability evaluation (Section V).

Times the UFDI verification model across the bundled test systems, on
the bundled SMT engine and on the HiGHS MILP mirror that the tests use
as its cross-check, for one attack target per system — the quick-look
version of Figure 4(a); the full sweeps live in ``benchmarks/``.  The
MILP mirror is slow from ieee30 up (DESIGN.md §2 has the timings);
pass ``--backends smt`` to time the engine alone.

Run:  python examples/scaling_study.py [--max-buses 118]
"""

import argparse
import time

from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.verification import verify_attack
from repro.grid.cases import available_cases, load_case
from repro.milp.backend import verify_milp

DECIDERS = {"smt": verify_attack, "milp": verify_milp}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-buses",
        type=int,
        default=118,
        help="skip systems larger than this many buses (default 118)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["smt", "milp"],
        choices=sorted(DECIDERS),
    )
    args = parser.parse_args()

    print(f"{'system':<10} {'buses':>5} {'lines':>5} " + "".join(
        f"{b + ' (s)':>12}" for b in args.backends
    ))
    for name in available_cases():
        grid = load_case(name)
        if grid.num_buses > args.max_buses:
            continue
        target = default_targets(grid, 1)[0]
        spec = spec_for_case(name, target_bus=target, max_measurements=30)
        times = []
        outcome = "?"
        for backend in args.backends:
            start = time.perf_counter()
            result = DECIDERS[backend](spec)
            times.append(time.perf_counter() - start)
            outcome = result.outcome.value
        row = f"{name:<10} {grid.num_buses:>5} {grid.num_lines:>5}"
        for t in times:
            row += f"{t:>12.2f}"
        print(row + f"   [{outcome}]")


if __name__ == "__main__":
    main()
