"""One-shot reproduction of the paper's evaluation section.

``python -m repro.analysis.reproduce [--full] [--skip-synthesis]
[--jobs N] [--portfolio] [--cache-dir DIR]``
prints, for every figure and table of Section V plus the case studies,
the same rows/series the paper reports — timing sweeps, sat/unsat
verdicts and model sizes — as plain text tables.  The pytest-benchmark
variants in ``benchmarks/`` measure the same instances with warmup and
statistics; this module is the quick, human-readable pass.

Every figure driver batches its (independent) instances through the
parallel runtime (:mod:`repro.runtime`): ``--jobs N`` fans them out
over N worker processes, ``--portfolio`` races four diversified SMT
configurations per instance, and ``--cache-dir`` memoizes results on disk so
repeated sweeps skip solver work entirely.  Per-instance times are
measured inside the solving process, so the printed series are
comparable across job counts.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import model_metrics
from repro.analysis.sweeps import default_targets, spec_for_case
from repro.core.casestudy import (
    attack_objective_1,
    attack_objective_2,
    synthesis_scenario,
)
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.grid.cases import load_case
from repro.runtime import ResultCache, RuntimeOptions, synthesize_many, verify_many


def _timed(fn: Callable):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _header(title: str) -> None:
    print(f"\n{'=' * 74}\n{title}\n{'=' * 74}")


def _runtime(runtime: Optional[RuntimeOptions]) -> RuntimeOptions:
    return runtime if runtime is not None else RuntimeOptions()


def case_studies(runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Section III-I case study (exact attack vectors)")
    rows = [
        ("objective 1: 16 meas / 7 buses, distinct", attack_objective_1(16, 7, True)),
        ("objective 1: 15 meas (expect unsat)", attack_objective_1(15, 7, True)),
        ("objective 1: 6 buses (expect unsat)", attack_objective_1(16, 6, True)),
        ("objective 1: equal change, 15/6", attack_objective_1(15, 6, False)),
        ("objective 2: state 12 only", attack_objective_2()),
        ("objective 2: meas 46 secured", attack_objective_2(True)),
        ("objective 2: + topology attack", attack_objective_2(True, True)),
    ]
    results = verify_many([spec for _, spec in rows], runtime)
    for (label, _), result in zip(rows, results):
        verdict = "sat  " if result.attack_exists else "unsat"
        extra = ""
        if result.attack is not None:
            extra = f" meas={result.attack.altered_measurements}"
            if result.attack.excluded_lines:
                extra += f" excluded={sorted(result.attack.excluded_lines)}"
        print(f"  {label:<42} {verdict} {result.runtime_seconds:7.3f}s{extra}")


def figure_4a(
    cases: Sequence[str], runtime: Optional[RuntimeOptions] = None
) -> None:
    runtime = _runtime(runtime)
    _header("Figure 4(a): verification time vs. system size (3 targets each)")
    print(f"  {'system':<10} {'targets':<22} {'times (s)':<26} avg")
    instances: List[Tuple[str, List[int]]] = []
    specs = []
    for name in cases:
        grid = load_case(name)
        targets = default_targets(grid, 3)
        instances.append((name, targets))
        specs.extend(spec_for_case(name, target_bus=t) for t in targets)
    results = iter(verify_many(specs, runtime))
    for name, targets in instances:
        times = [next(results).runtime_seconds for _ in targets]
        joined = " ".join(f"{t:7.3f}" for t in times)
        print(
            f"  {name:<10} {str(targets):<22} {joined:<26} "
            f"{sum(times) / len(times):7.3f}"
        )


def figure_4b(runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Figure 4(b): verification time vs. % taken measurements")
    densities = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    print("  " + f"{'system':<10}" + "".join(f"{int(d*100):>8}%" for d in densities))
    cases = ("ieee30", "ieee57")
    specs = [
        spec_for_case(name, measurement_fraction=d, seed=42)
        for name in cases
        for d in densities
    ]
    results = iter(verify_many(specs, runtime))
    for name in cases:
        times = [next(results).runtime_seconds for _ in densities]
        print(f"  {name:<10}" + "".join(f"{t:8.3f}" for t in times))


def figure_4c(runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Figure 4(c): verification time vs. attacker resource limit T_CZ")
    limits = [4, 8, 12, 16, 20, 24, 28]
    print("  " + f"{'system':<10}" + "".join(f"{l:>8}" for l in limits))
    cases = ("ieee14", "ieee30")
    specs = []
    for name in cases:
        grid = load_case(name)
        target = default_targets(grid, 1)[0]
        specs.extend(
            spec_for_case(name, target_bus=target, max_measurements=limit)
            for limit in limits
        )
    results = iter(verify_many(specs, runtime))
    for name in cases:
        times = [next(results).runtime_seconds for _ in limits]
        print(f"  {name:<10}" + "".join(f"{t:8.3f}" for t in times))


def figure_4d(
    cases: Sequence[str], runtime: Optional[RuntimeOptions] = None
) -> None:
    runtime = _runtime(runtime)
    _header("Figure 4(d): satisfiable vs. unsatisfiable verification time")
    print(f"  {'system':<10} {'sat (s)':>10} {'unsat (s)':>10}")
    specs = []
    for name in cases:
        grid = load_case(name)
        target = default_targets(grid, 1)[0]
        specs.append(spec_for_case(name, target_bus=target))
        specs.append(spec_for_case(name, target_bus=target, max_measurements=2))
    results = verify_many(specs, runtime)
    for k, name in enumerate(cases):
        sat_result, unsat_result = results[2 * k], results[2 * k + 1]
        assert sat_result.attack_exists and not unsat_result.attack_exists
        print(
            f"  {name:<10} {sat_result.runtime_seconds:10.3f} "
            f"{unsat_result.runtime_seconds:10.3f}"
        )


def figure_5a(full: bool, runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Figure 5(a): synthesis time vs. system size (90% / 100% meas)")
    budgets = {"ieee14": 5, "ieee30": 12, "ieee57": 25}
    cases = ["ieee14", "ieee30"] + (["ieee57"] if full else [])
    densities = (0.9, 1.0)
    print(f"  {'system':<10} {'90% (s)':>10} {'100% (s)':>10}")
    problems = [
        (
            spec_for_case(name, measurement_fraction=d, seed=7, any_state=True),
            SynthesisSettings(max_secured_buses=budgets[name]),
        )
        for name in cases
        for d in densities
    ]
    results = synthesize_many(problems, jobs=runtime.jobs)
    for k, name in enumerate(cases):
        times = []
        for offset in range(len(densities)):
            result = results[len(densities) * k + offset]
            assert result.architecture is not None
            times.append(result.runtime_seconds)
        print(f"  {name:<10} {times[0]:10.3f} {times[1]:10.3f}")


def figure_5bc(full: bool, runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Figure 5(b): synthesis time vs. % taken measurements (ieee30)")
    budgets = {0.6: 14, 0.7: 13, 0.8: 12, 0.9: 12, 1.0: 12}
    print("  " + "".join(f"{int(d*100):>8}%" for d in sorted(budgets)))
    problems = [
        (
            spec_for_case("ieee30", measurement_fraction=d, seed=7, any_state=True),
            SynthesisSettings(max_secured_buses=budgets[d]),
        )
        for d in sorted(budgets)
    ]
    results = synthesize_many(problems, jobs=runtime.jobs)
    print("  " + "".join(f"{r.runtime_seconds:8.2f}" for r in results))

    _header("Figure 5(c): synthesis time vs. attacker resource limit (ieee14)")
    limits = [8, 12, 16, 20, 24]
    print("  " + "".join(f"{l:>8}" for l in limits))
    problems = [
        (
            spec_for_case("ieee14", any_state=True, max_measurements=limit),
            SynthesisSettings(max_secured_buses=5),
        )
        for limit in limits
    ]
    results = synthesize_many(problems, jobs=runtime.jobs)
    print("  " + "".join(f"{r.runtime_seconds:8.2f}" for r in results))


def figure_5d(runtime: Optional[RuntimeOptions] = None) -> None:
    runtime = _runtime(runtime)
    _header("Figure 5(d): unsatisfiable synthesis time vs. operator budget (ieee30)")
    print("  minimum feasible budget is 11 buses; sweeping below it:")
    budgets = (6, 7, 8, 9, 10)
    print("  " + "".join(f"{b:>8}" for b in budgets))
    problems = [
        (
            spec_for_case("ieee30", any_state=True),
            SynthesisSettings(max_secured_buses=budget),
        )
        for budget in budgets
    ]
    results = synthesize_many(problems, jobs=runtime.jobs)
    for result in results:
        assert result.architecture is None
    print("  " + "".join(f"{r.runtime_seconds:8.2f}" for r in results))


def table_4(cases: Sequence[str]) -> None:
    _header("Table IV: model sizes / memory")
    print(
        f"  {'system':<10} {'model':<22} {'satvars':>8} {'clauses':>8} "
        f"{'atoms':>7} {'peakMB':>8}"
    )
    for name in cases:
        metrics = model_metrics(spec_for_case(name, any_state=True))
        for model_name, m in metrics.items():
            print(
                f"  {name:<10} {model_name:<22} {m.sat_variables:>8} "
                f"{m.clauses:>8} {m.theory_atoms:>7} {m.peak_memory_mb:>8.2f}"
            )


def scenarios() -> None:
    _header("Section IV-E synthesis scenarios")
    for number in (1, 2, 3):
        spec = synthesis_scenario(number)
        for budget in range(1, 8):
            settings = SynthesisSettings(max_secured_buses=budget)
            result, elapsed = _timed(
                lambda s=spec, st=settings: synthesize_architecture(s, st)
            )
            if result.architecture is not None:
                print(
                    f"  scenario {number}: minimum budget {budget}, "
                    f"architecture {result.architecture} "
                    f"({result.iterations} iterations, {elapsed:.2f}s)"
                )
                break
            print(f"  scenario {number}: budget {budget} infeasible ({elapsed:.2f}s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="include ieee300 and 57-bus synthesis"
    )
    parser.add_argument(
        "--skip-synthesis", action="store_true", help="figures 4 and tables only"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per figure batch (0 = all cores)",
    )
    parser.add_argument(
        "--portfolio",
        action="store_true",
        help="race diversified SMT configurations per instance",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="memoize verification results on disk under DIR",
    )
    args = parser.parse_args(argv)
    cache = ResultCache(directory=args.cache_dir) if args.cache_dir else None
    runtime = RuntimeOptions(
        jobs=args.jobs, portfolio=args.portfolio, cache=cache
    )
    verification_cases = ["ieee14", "ieee30", "ieee57", "ieee118"]
    if args.full:
        verification_cases.append("ieee300")

    case_studies(runtime)
    figure_4a(verification_cases, runtime)
    figure_4b(runtime)
    figure_4c(runtime)
    figure_4d(verification_cases[:4], runtime)
    table_4(verification_cases[:4])
    if not args.skip_synthesis:
        scenarios()
        figure_5a(args.full, runtime)
        figure_5bc(args.full, runtime)
        figure_5d(runtime)
    if cache is not None:
        stats = cache.stats
        print(
            f"\ncache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stores, {stats.disk_hits} from disk"
        )
    print("\ndone.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
