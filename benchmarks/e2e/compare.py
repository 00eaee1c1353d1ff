"""Compare two sets of benchmark runs, one row per workload and metric.

    python benchmarks/e2e/compare.py A.json B.json

A and B are results files appended to by ``run.py --out`` (A is the
parent or baseline, B the change).  For every workload and every
end-to-end metric of ``BENCHMARK.json`` the row shows each side's median
and quartiles over its untraced runs, B's change against A, and B's
win rate over run pairs (the i-th run of A against the i-th of B; ties
count for neither).  The verdict is

* ``REGRESSION`` when B's median is worse than A's by more than the
  metric's bound,
* ``unresolved`` when either side's own spread (quartile distance over
  median) exceeds the bound, unless every run of B beats every run of A,
* ``ok`` otherwise.

Any failed request in B is reported, and traced runs of the same
workload and seed must show identical ``smt.*`` counts on both sides.
Exits 1 on a regression, a failed request or a count mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path: Path) -> List[Dict[str, Any]]:
    return [run for run in json.loads(path.read_text())["runs"] if not run.get("smoke")]


def by_workload(runs: List[Dict[str, Any]], trace: int) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def compare_metric(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[float, float, str]:
    """(relative change of B's median, B's win rate, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    a_median, b_median = quartiles(a)[1], quartiles(b)[1]
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    b_dominates = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if sign * change < -bound:
        verdict = "REGRESSION"
    elif max(relative_spread(a), relative_spread(b)) > bound and not b_dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return change, win_rate, verdict


def spread_text(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def smt_counts(runs: List[Dict[str, Any]]) -> Dict[Tuple[str, int], List[Dict[str, float]]]:
    out: Dict[Tuple[str, int], List[Dict[str, float]]] = {}
    for run in runs:
        if run["trace"] != 1:
            continue
        counts = {
            name: m["value"]
            for name, m in run["layers"].items()
            if name.startswith("smt.") and m["unit"] == "count"
        }
        out.setdefault((run["workload"], run["seed"]), []).append(counts)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline results (e.g. baseline.json)")
    parser.add_argument("b", type=Path, help="results to judge against it")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    a_by, b_by = by_workload(a_runs, 0), by_workload(b_runs, 0)
    failures = 0
    header = f"{'workload':<12} {'metric':<15} {'A median [q1, q3]':<28} {'B median [q1, q3]':<28} {'change':>8} {'win':>5}  verdict"
    print(header)
    for workload in sorted(set(a_by) & set(b_by)):
        a, b = a_by[workload], b_by[workload]
        for entry in declared:
            name = entry["name"]
            a_values = [run["metrics"][name]["value"] for run in a]
            b_values = [run["metrics"][name]["value"] for run in b]
            change, win_rate, verdict = compare_metric(
                a_values, b_values, entry["better"], entry["bound"]
            )
            failures += verdict == "REGRESSION"
            print(
                f"{workload:<12} {name:<15} {spread_text(a_values):<28} "
                f"{spread_text(b_values):<28} {change:>+8.1%} {win_rate:>5.0%}  {verdict}"
            )
        failed = sum(run["failed"] for run in b)
        attempted = sum(run["attempted"] for run in b)
        if failed:
            failures += 1
            print(f"{workload:<12} error_rate      {failed}/{attempted} requests failed in B")
    missing = sorted(set(a_by) ^ set(b_by))
    if missing:
        print(f"workloads measured on one side only: {', '.join(missing)}")

    a_counts, b_counts = smt_counts(a_runs), smt_counts(b_runs)
    shared = sorted(set(a_counts) & set(b_counts))
    for key in shared:
        variants = {json.dumps(c, sort_keys=True) for c in a_counts[key] + b_counts[key]}
        if len(variants) > 1:
            failures += 1
            print(f"smt counts differ for {key[0]} seed {key[1]}: " + " | ".join(sorted(variants)))
    print(f"smt counts compared for {len(shared)} workload/seed pairs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
