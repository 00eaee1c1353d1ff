"""The five seeded workloads: request generation and spec construction.

A request is a small JSON-able dict of generator parameters (``op`` plus
what the op needs); :func:`request_key` is its canonical identity, which
keys the golden verdicts in ``expected.json``.  A workload produces one
*pass* of requests per pass index; the runner repeats passes while they
fit in the measured time.  Every seeded choice draws from a pool of
instances of similar cost, and rotates through its pool from pass to
pass, so a run's cost does not depend on the seed; :func:`all_requests`
enumerates every pool, which is what ``--record`` covers, so a run with
any seed is checked against golden verdicts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Request = Dict[str, Any]


def request_key(params: Request) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _rng(seed: int, workload: str, index: int) -> random.Random:
    # str seeds hash with SHA-512: stable across processes and runs
    return random.Random(f"{seed}:{workload}:{index}")


def _rotation(seed: int, name: str, items: Sequence[Any], index: int) -> Any:
    """The item pass ``index`` takes from a seeded cycle over ``items``:
    consecutive passes take every item once before any repeats, so a
    run's mix does not depend on the seed beyond its order."""
    cycle = list(items)
    random.Random(f"{seed}:{name}").shuffle(cycle)
    return cycle[index % len(cycle)]


# ----------------------------------------------------------------------
# request constructors
# ----------------------------------------------------------------------
def objective1(max_measurements: int, max_buses: int) -> Request:
    return {"op": "verify", "spec": "objective1", "mm": max_measurements, "mb": max_buses}


def objective2(secure46: bool = False, topology: bool = False) -> Request:
    return {"op": "verify", "spec": "objective2", "secure46": secure46, "topology": topology}


def sweep_verify(
    case: str,
    target: int,
    budget: Optional[int] = None,
    fraction: float = 1.0,
    subset: int = 0,
) -> Request:
    return {
        "op": "verify",
        "spec": "sweep",
        "case": case,
        "target": target,
        "budget": budget,
        "fraction": fraction,
        "subset": subset,
    }


def mincost(target: int) -> Request:
    return {"op": "mincost", "target": target}


def synthesize(scenario: int, budget: int) -> Request:
    return {"op": "synthesize", "scenario": scenario, "budget": budget}


def via_cli(params: Request) -> Request:
    """The same question asked through ``repro`` on a spec file; its
    spec round-trips through the text format, so it has its own key."""
    return {**params, "entry": "cli"}


# ----------------------------------------------------------------------
# pools
# ----------------------------------------------------------------------
#: the paper's Section III-I case study: SAT, UNSAT, SAT, UNSAT, SAT
CASESTUDY_VERIFIES = (
    objective1(16, 7),
    objective1(15, 6),
    objective2(),
    objective2(secure46=True),
    objective2(secure46=True, topology=True),
)
#: case-study states whose cheapest attack takes a similar search
#: (costs 3, 7, 7, 8; states 7, 9 and 14 cost 14 and search 4x longer)
MINCOST_TARGETS = (8, 10, 11, 13)
#: scenarios whose budget-3 synthesis proves infeasibility in similar
#: time (scenario 1 takes 5x longer and always runs at budget 4)
LIGHT_SCENARIOS = (2, 3)

#: ieee30 boundary probes at minimum attack cost - 1 (cost is 7 for
#: each); 230-800 conflicts, encoding under 5% of each probe.  Fixed:
#: each probe takes seconds, so a seeded subset would make the run's
#: cost depend on the seed; the seed orders them.  (State 27's probe
#: alone takes longer than a whole run.)
PROBE_TARGETS = (8, 17, 21, 24)
PROBE_BUDGET = 6

#: cold unconstrained single-target verifies up the grid-size ladder,
#: at the 25th/50th-percentile buses; fixed for the same reason
LADDER = (
    ("ieee118", (30, 59)),
    ("ieee300", (75, 150)),
    ("synthetic1000", (250, 500)),
)

#: serve's fresh ieee14 verifies: target x budget x measurement plan.
#: Budgets 5-8 are left out: their solves range over 0.02-0.6 s, so a
#: pass's cost would depend on the seed; unlimited and 4 stay within
#: 0.02-0.2 s, and every pass takes half its fresh verifies from each.
#: Ten measurement plans make 130 specs per budget: a pass draws 7 per
#: budget, so even a fast host's 15 s run (under 15 passes) sees no
#: "fresh" spec twice; otherwise a faster run would also get more cache
#: hits, and the host's drift would show amplified.
SERVE_TARGETS = tuple(range(2, 15))
SERVE_BUDGETS = (None, 4)
#: (fraction of measurements taken, seed of the subset)
SERVE_PLANS = ((1.0, 0),) + tuple((0.9, subset) for subset in range(9))
#: requests per client per pass, and the exact mix of a pass
SERVE_PER_CLIENT = 10
SERVE_MIX = {"synth": 0.05, "repeat": 0.25}
SMOKE_SERVE_PER_CLIENT = 2


def serve_fresh_pool(budget: Optional[int]) -> List[Request]:
    return [
        sweep_verify("ieee14", target, budget, fraction, subset)
        for target in SERVE_TARGETS
        for fraction, subset in SERVE_PLANS
    ]


def serve_fresh_sequence(seed: int, budget: Optional[int]) -> List[Request]:
    """The order in which passes draw one budget's fresh verifies: blocks
    of one spec per target, targets shuffled within a block and each
    target's plans in a seeded order, so every spec comes once before
    any repeats and any run's draws spread evenly over the targets (at
    budget 4 a solve's cost depends mostly on the target: 0.025-0.17 s)."""
    rng = random.Random(f"{seed}:serve:pool:{budget}")
    plans = {t: rng.sample(SERVE_PLANS, len(SERVE_PLANS)) for t in SERVE_TARGETS}
    sequence: List[Request] = []
    for block in range(len(SERVE_PLANS)):
        targets = list(SERVE_TARGETS)
        rng.shuffle(targets)
        sequence += [sweep_verify("ieee14", t, budget, *plans[t][block]) for t in targets]
    return sequence


#: untimed warm-up requests, one per workload
WARMUPS: Dict[str, Request] = {
    "casestudy14": objective1(16, 7),
    "probes30": sweep_verify("ieee30", 26, 3),
    "ladder": sweep_verify("ieee118", 30),
    # budget 3 is outside SERVE_BUDGETS, so it never warms the cache
    "serve": sweep_verify("ieee14", 2, 3),
}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def casestudy_pass(seed: int, index: int, smoke: bool = False) -> List[Request]:
    """One round of the paper's workflow: 5 verifies, 3 cheapest-attack
    searches, scenarios 1-3 at budget 4 and one infeasible budget 3.

    The state left out of the searches and the budget-3 scenario rotate
    from pass to pass, so every run of a few passes has the same mix.
    """
    if smoke:
        return [objective1(16, 7), mincost(8), synthesize(2, 4)]
    skipped = _rotation(seed, "casestudy14:mincost", MINCOST_TARGETS, index)
    return [
        *CASESTUDY_VERIFIES,
        *(mincost(t) for t in MINCOST_TARGETS if t != skipped),
        synthesize(1, 4),
        synthesize(2, 4),
        synthesize(3, 4),
        synthesize(_rotation(seed, "casestudy14:scenario", LIGHT_SCENARIOS, index), 3),
    ]


def probes_pass(seed: int, index: int, smoke: bool = False) -> List[Request]:
    if smoke:
        return [WARMUPS["probes30"]]
    targets = list(PROBE_TARGETS)
    _rng(seed, "probes30", index).shuffle(targets)
    return [sweep_verify("ieee30", t, PROBE_BUDGET) for t in targets]


def ladder_pass(seed: int, index: int, smoke: bool = False) -> List[Request]:
    if smoke:
        return [sweep_verify("ieee118", LADDER[0][1][0])]
    requests = [sweep_verify(case, t) for case, targets in LADDER for t in targets]
    _rng(seed, "ladder", index).shuffle(requests)
    return requests


def cli_pass(seed: int, index: int, smoke: bool = False) -> List[Request]:
    """Two verifies on case-study spec files, one cheapest-attack search
    and one synthesis at budget 4."""
    if smoke:
        return [via_cli(objective1(16, 7))]
    rng = _rng(seed, "cli", index)
    return [
        *(via_cli(p) for p in rng.sample(CASESTUDY_VERIFIES, 2)),
        via_cli(mincost(rng.choice(MINCOST_TARGETS))),
        via_cli(synthesize(rng.choice(LIGHT_SCENARIOS), 4)),
    ]


def serve_pass(seed: int, index: int, smoke: bool = False) -> List[List[Request]]:
    """Two closed-loop clients' request lists for one pass.

    The mix is exact per pass: 5% synthesize (scenarios 2 and 3 take
    turns), 25% repeats of a spec sent earlier in the pass (by either
    client; a cache hit or an in-batch dedup), the rest fresh ieee14
    verifies, half per budget, each drawn in turn from
    :func:`serve_fresh_sequence` (which wraps around, into cache hits,
    only after 130 fresh draws per budget).
    """
    per_client = SMOKE_SERVE_PER_CLIENT if smoke else SERVE_PER_CLIENT
    total = 2 * per_client
    n_synth = max(1, round(SERVE_MIX["synth"] * total))
    n_repeat = max(1, round(SERVE_MIX["repeat"] * total))
    n_fresh = total - n_synth - n_repeat
    per_budget = n_fresh // len(SERVE_BUDGETS)
    fresh: List[Request] = []
    for budget in SERVE_BUDGETS:
        sequence = serve_fresh_sequence(seed, budget)
        start = index * per_budget
        fresh += [sequence[(start + k) % len(sequence)] for k in range(per_budget)]
    rng = _rng(seed, "serve", index)
    rng.shuffle(fresh)
    n_fresh = len(fresh)
    # the first slot of each client is fresh, so every repeat has an
    # earlier spec to repeat
    kinds = ["synth"] * n_synth + ["repeat"] * n_repeat + ["fresh"] * (n_fresh - 2)
    rng.shuffle(kinds)
    kinds = ["fresh", "fresh"] + kinds
    ordered: List[Request] = []  # global order: slot j of client c is 2j + c
    sent: List[Request] = []
    fresh_iter = iter(fresh)
    synths = iter(range(index * n_synth, (index + 1) * n_synth))
    for kind in kinds:
        if kind == "fresh":
            params = next(fresh_iter)
            sent.append(params)
        elif kind == "repeat":
            params = rng.choice(sent)
        else:
            scenario = _rotation(seed, "serve:scenario", LIGHT_SCENARIOS, next(synths))
            params = synthesize(scenario, 4)
        ordered.append(params)
    return [ordered[0::2], ordered[1::2]]


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    entry: str  # library | serve | cli
    make_pass: Callable[..., Any]


#: in the order a full run measures them
WORKLOADS: Dict[str, Workload] = {
    "casestudy14": Workload("library", casestudy_pass),
    "probes30": Workload("library", probes_pass),
    "ladder": Workload("library", ladder_pass),
    "serve": Workload("serve", serve_pass),
    "cli": Workload("cli", cli_pass),
}


def repeat_passes(run_pass: Callable[[int], Tuple[float, list]], seconds: float):
    """Run passes 0, 1, ... while the next one, taking as long as the
    last, would end within ``seconds`` of pass time; at least one.

    ``run_pass(index)`` returns ``(wall seconds, records)``; the result
    is ``(walls, records of every pass)``.
    """
    walls: List[float] = []
    records: list = []
    while True:
        wall, batch = run_pass(len(walls))
        walls.append(wall)
        records.extend(batch)
        if sum(walls) + wall > seconds:
            return walls, records


def smoke_requests() -> List[Request]:
    out: List[Request] = []
    for workload in WORKLOADS.values():
        passes = workload.make_pass(1, 0, smoke=True)
        if workload.entry == "serve":
            passes = [p for client in passes for p in client]
        out.extend(passes)
    return out


def all_requests() -> List[Request]:
    """Every request any seed can generate, plus the warm-ups."""
    out: List[Request] = [
        *CASESTUDY_VERIFIES,
        *(mincost(t) for t in MINCOST_TARGETS),
        *(synthesize(n, 4) for n in (1, 2, 3)),
        *(synthesize(n, 3) for n in LIGHT_SCENARIOS),
        *(sweep_verify("ieee30", t, PROBE_BUDGET) for t in PROBE_TARGETS),
        *(sweep_verify(case, t) for case, targets in LADDER for t in targets),
        *(p for budget in SERVE_BUDGETS for p in serve_fresh_pool(budget)),
        *(via_cli(p) for p in CASESTUDY_VERIFIES),
        *(via_cli(mincost(t)) for t in MINCOST_TARGETS),
        *(via_cli(synthesize(n, 4)) for n in LIGHT_SCENARIOS),
        *WARMUPS.values(),
        *smoke_requests(),
    ]
    unique: Dict[str, Request] = {}
    for params in out:
        unique.setdefault(request_key(params), params)
    return list(unique.values())


# ----------------------------------------------------------------------
# specs (imports the program: callers import this section lazily)
# ----------------------------------------------------------------------
def build_spec(params: Request):
    """The :class:`~repro.core.spec.AttackSpec` a request asks about."""
    from repro.analysis.sweeps import spec_for_case
    from repro.core import casestudy
    from repro.core.spec import AttackGoal, ResourceLimits

    op = params["op"]
    if op == "verify":
        kind = params["spec"]
        if kind == "objective1":
            spec = casestudy.attack_objective_1(params["mm"], params["mb"])
        elif kind == "objective2":
            spec = casestudy.attack_objective_2(params["secure46"], params["topology"])
        elif kind == "sweep":
            spec = spec_for_case(
                params["case"],
                target_bus=params["target"],
                measurement_fraction=params["fraction"],
                max_measurements=params["budget"],
                seed=params["subset"],
            )
        else:
            raise ValueError(f"unknown spec family {kind!r}")
    elif op == "mincost":
        spec = casestudy.attack_objective_1(distinct=False)
        spec = spec.with_goal(AttackGoal.states(params["target"])).with_limits(
            ResourceLimits()
        )
    elif op == "synthesize":
        spec = casestudy.synthesis_scenario(params["scenario"])
    else:
        raise ValueError(f"unknown op {op!r}")
    if params.get("entry") == "cli":
        from repro.core.io import parse_spec, write_spec

        spec = parse_spec(write_spec(spec))
    return spec


def spec_file_name(params: Request) -> str:
    """The spec file a CLI request reads (written during set-up)."""
    if params["op"] == "verify":
        fields = [params["spec"]] + [
            f"{k}{int(v) if isinstance(v, bool) else v}"
            for k, v in sorted(params.items())
            if k not in ("op", "spec", "entry")
        ]
        return "verify-" + "-".join(fields) + ".spec"
    if params["op"] == "mincost":
        return f"mincost-{params['target']}.spec"
    return f"scenario-{params['scenario']}.spec"


def cli_argv(params: Request, spec_dir) -> List[str]:
    path = str(spec_dir / spec_file_name(params))
    if params["op"] == "verify":
        return ["verify", path]
    if params["op"] == "mincost":
        return ["mincost", path]
    return ["synthesize", path, "--budget", str(params["budget"])]


def cli_spec_requests(smoke: bool) -> List[Request]:
    """Every CLI request whose spec file set-up must write."""
    if smoke:
        return cli_pass(1, 0, smoke=True)
    return [
        *(via_cli(p) for p in CASESTUDY_VERIFIES),
        *(via_cli(mincost(t)) for t in MINCOST_TARGETS),
        *(via_cli(synthesize(n, 4)) for n in LIGHT_SCENARIOS),
    ]


def run_library_request(params: Request, spec):
    """Answer one request through the library; returns the raw result."""
    from repro.core.mincost import minimum_attack_cost
    from repro.core.synthesis import SynthesisSettings, synthesize_architecture
    from repro.core.verification import verify_attack

    op = params["op"]
    if op == "verify":
        return verify_attack(spec)
    if op == "mincost":
        return minimum_attack_cost(spec)
    if op == "synthesize":
        return synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=params["budget"])
        )
    raise ValueError(f"unknown op {op!r}")


def flatten(requests: Sequence[Any]) -> List[Request]:
    """A pass's requests in one list (serve passes hold one per client)."""
    if requests and isinstance(requests[0], list):
        return [p for client in requests for p in client]
    return list(requests)
