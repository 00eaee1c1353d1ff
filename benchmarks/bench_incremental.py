"""Incremental solve sessions: encode once vs. cold re-encode per probe.

The session claims from the incremental subsystem, measured on the
IEEE 14-bus system:

* a min-cost binary search and a Figure 4(c) budget sweep through a
  :class:`repro.core.verification.VerificationSession` produce the same
  answers as fresh ``verify_attack`` calls per probe;
* the whole multi-probe search performs **exactly one** encode
  (counted by wrapping ``UfdiEncoder.__init__``, where the grid is
  encoded);
* the session path is at least 2x faster than cold re-encoding once
  the probe count is non-trivial (encoding dominates; the incremental
  solves also reuse learned clauses).

Run directly (CI smoke for the encode-once contract)::

    python benchmarks/bench_incremental.py --smoke
"""

import argparse
import gc
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.analysis.sweeps import budget_sweep  # noqa: E402
from repro.core.mincost import minimum_attack_cost  # noqa: E402
from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits  # noqa: E402
from repro.core.verification import (  # noqa: E402
    UfdiEncoder,
    VerificationSession,
    verify_attack,
)
from repro.grid.cases import ieee14  # noqa: E402

BUDGETS = [0, 1, 2, 3, 4, 5, 6, 8, None]


def bench_spec(target=8):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(target))


def with_budget(spec, budget):
    return spec.with_limits(
        ResourceLimits(max_measurements=budget, max_buses=spec.limits.max_buses)
    )


def cold_sweep(spec, budgets=BUDGETS):
    """One fresh encoder per budget point — the pre-session baseline."""
    return [(k, verify_attack(with_budget(spec, k))) for k in budgets]


def cold_min_cost(spec):
    """The binary search of ``minimum_attack_cost``, one encode per probe."""
    base = verify_attack(spec)
    probes = 1
    if not base.attack_exists:
        return None, probes
    best = len(base.attack.altered_measurements)
    low = 1
    while low < best:
        mid = (low + best) // 2
        result = verify_attack(with_budget(spec, mid))
        probes += 1
        if result.attack_exists:
            best = min(best, len(result.attack.altered_measurements))
        else:
            low = mid + 1
    return best, probes


@contextmanager
def counted_encodes():
    """Yield a callable counting the grid encodings run inside the block."""
    count = 0
    original = UfdiEncoder.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        original(self, *args, **kwargs)

    UfdiEncoder.__init__ = counting_init
    try:
        yield lambda: count
    finally:
        UfdiEncoder.__init__ = original


def assert_sweeps_agree(cold, warm):
    assert len(cold) == len(warm)
    for (bk, br), (wk, wr) in zip(cold, warm):
        assert bk == wk
        assert br.outcome == wr.outcome


def best_times(*fns, rounds=3):
    """``(last result, best wall time)`` of each of ``fns``.

    The calls run in ``rounds`` interleaved rounds, so every function
    sees the same host speed, which drifts on shared machines, and the
    best time drops interference from other processes.  Each call starts
    after a full collection: otherwise one triggered by an earlier
    call's garbage lands in whichever call crosses the collector's
    threshold, and the ratio times the collector.
    """
    best = [(None, float("inf"))] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            gc.collect()
            start = time.perf_counter()
            result = fn()
            best[i] = (result, min(best[i][1], time.perf_counter() - start))
    return best


def run_workload_cold(spec):
    cold_min_cost(spec)
    return cold_sweep(spec)


def run_workload_session(spec):
    with counted_encodes() as encodes:
        session = VerificationSession(spec)
        minimum_attack_cost(spec, session=session)
        rows = budget_sweep(spec, BUDGETS, session=session)
    assert encodes() == 1
    return rows


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
try:
    import pytest

    from benchmarks.conftest import run_once
except ImportError:  # script mode without pytest
    pytest = None

if pytest is not None:

    def test_session_sweep_matches_cold(benchmark):
        spec = bench_spec()
        cold = cold_sweep(spec)
        with counted_encodes() as encodes:
            session = VerificationSession(spec)
            warm = run_once(
                benchmark, lambda: budget_sweep(spec, BUDGETS, session=session)
            )
        assert_sweeps_agree(cold, warm)
        assert encodes() == 1

    def test_min_cost_search_is_single_encode(benchmark):
        spec = bench_spec()
        cold_cost, cold_probes = cold_min_cost(spec)
        with counted_encodes() as encodes:
            result = run_once(benchmark, lambda: minimum_attack_cost(spec))
        assert result.cost == cold_cost == 4
        assert encodes() == 1
        assert result.probes >= 3 and cold_probes >= 3

    def test_session_speedup_over_cold_rebuild(benchmark):
        spec = bench_spec()
        warm = run_once(benchmark, lambda: run_workload_session(spec))
        (_, cold_s), (_, warm_s) = best_times(
            lambda: run_workload_cold(spec), lambda: run_workload_session(spec)
        )
        assert_sweeps_agree(cold_sweep(spec), warm)
        assert cold_s / warm_s >= 2.0, (
            f"expected >=2x from encode-once sessions, got "
            f"{cold_s:.2f}s cold vs {warm_s:.2f}s session"
        )


# ----------------------------------------------------------------------
# script mode (CI smoke)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the encode-once contract only; skip the timing gate",
    )
    parser.add_argument("--target", type=int, default=8, help="target state bus")
    args = parser.parse_args(argv)

    spec = bench_spec(args.target)

    # encode-once contract: a full binary search plus a 9-point budget
    # sweep on one session is exactly one encode, answers unchanged
    with counted_encodes() as encodes:
        result = minimum_attack_cost(spec)
    assert encodes() == 1, f"min-cost search used {encodes()} encodes"
    assert result.probes >= 3
    with counted_encodes() as encodes:
        session = VerificationSession(spec)
        warm = budget_sweep(spec, BUDGETS, session=session)
    assert encodes() == 1, f"budget sweep used {encodes()} encodes"
    print(
        f"encode-once: min-cost {result.probes} probes -> cost {result.cost}, "
        f"sweep {len(warm)} probes, 1 encode each"
    )

    if args.smoke:
        cold = cold_sweep(spec, budgets=[0, result.cost - 1, result.cost])
        for budget, cold_result in cold:
            warm_result = session.probe(
                max_measurements=budget, max_buses=spec.limits.max_buses
            )
            assert cold_result.outcome == warm_result.outcome
        print("smoke: cold/session outcomes agree at 3 spot-check budgets")
        return 0

    (cold, cold_s), (warm, warm_s) = best_times(
        lambda: run_workload_cold(spec), lambda: run_workload_session(spec)
    )
    assert_sweeps_agree(cold, warm)
    speedup = cold_s / warm_s
    print(
        f"cold rebuild {cold_s:.2f}s vs session {warm_s:.2f}s "
        f"({speedup:.2f}x) — outcomes identical"
    )
    assert speedup >= 2.0, f"expected >=2x session speedup, got {speedup:.2f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main())
