"""Process-pool batch executor for verification and synthesis workloads.

The paper's whole evaluation grid — per test case, per measurement
density, per resource limit, per target state — is embarrassingly
parallel: every instance is an independent exact-rational constraint
problem.  This module fans those instances out:

* :func:`verify_many` / :func:`verify_one` — batch UFDI verification
  with optional per-task wall-clock timeouts, configuration-race
  portfolios (:mod:`repro.runtime.portfolio`) and result memoization
  (:mod:`repro.runtime.cache`).  Identical specs inside one batch are
  solved once.
* :func:`synthesize_many` — batch independent synthesis problems.
  Synthesis against a list of specs stays in one process: each
  candidate waits for every spec's check, so spreading the specs over
  workers measured slower (docs/PERFORMANCE.md).

With ``jobs=1`` everything degrades gracefully to in-process execution
— no worker processes, no pickling — which is also the fallback on
platforms without process support.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.spec import AttackSpec
from repro.core.verification import (
    VerificationOutcome,
    VerificationResult,
    VerificationSession,
    verify_attack,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import (
    Tracer,
    context_payload,
    get_tracer,
    set_tracer,
)
from repro.runtime.cache import ResultCache
from repro.runtime.portfolio import parse_portfolio_mode, race_configs
from repro.runtime.serialize import (
    canonical_json,
    family_fingerprint,
    payload_to_spec,
    result_from_payload,
    result_to_payload,
    spec_fingerprint,
    spec_to_payload,
)

Epsilon = Optional[Union[int, float, Fraction]]

# Runtime/solver metrics.  Everything here is incremented in the
# *submitting* process: pool workers are ephemeral, so their solver
# counters travel home inside ``result.statistics`` and are folded into
# the registry by :func:`_record_result_metrics`.
_M_TASKS = obs_metrics.counter(
    "repro_runtime_tasks_total",
    "Verification tasks actually solved (cache hits excluded)",
    labels=("mode",),  # inline | pool
)
_M_TASK_TIMEOUTS = obs_metrics.counter(
    "repro_task_timeouts_total", "Tasks cut off by the per-task wall clock"
)
_M_SOLVE_SECONDS = obs_metrics.histogram(
    "repro_solve_seconds", "Solver wall time per task", labels=("backend",)
)
_M_PORTFOLIO_RACES = obs_metrics.counter(
    "repro_portfolio_races_total", "Cooperative configuration races run"
)
_M_PORTFOLIO_CLAUSES = obs_metrics.counter(
    "repro_portfolio_clauses_exchanged_total",
    "Learned clauses relayed between cooperative portfolio configurations",
)
_M_PORTFOLIO_CONFIG_WINS = obs_metrics.counter(
    "repro_portfolio_config_wins_total",
    "Cooperative races won, by the solver configuration that answered first",
    labels=("config",),
)
_M_SOLVER_CONFLICTS = obs_metrics.counter(
    "repro_solver_conflicts_total", "SAT-core conflicts across all solves"
)
_M_SOLVER_RESTARTS = obs_metrics.counter(
    "repro_solver_restarts_total", "SAT-core restarts across all solves"
)
_M_SOLVER_PROPAGATIONS = obs_metrics.counter(
    "repro_solver_propagations_total", "Unit propagations across all solves"
)
_M_SOLVER_THEORY_PROPS = obs_metrics.counter(
    "repro_solver_theory_props_total",
    "Literals the LRA theory entailed from row-implied bounds across all solves",
)
_M_SOLVER_THEORY_CHECKS = obs_metrics.counter(
    "repro_solver_theory_checks_total", "LRA theory checks across all solves"
)
_M_SOLVER_PIVOTS = obs_metrics.counter(
    "repro_solver_pivots_total", "Simplex pivots across all solves"
)
_M_SOLVER_FILL_RATIO = obs_metrics.gauge(
    "repro_solver_fill_ratio",
    "Tableau fill ratio (row nonzeros / row cells) of the last solve",
)
_M_SOLVER_REFACTORIZATIONS = obs_metrics.counter(
    "repro_solver_refactorizations_total",
    "Sparse-kernel refactorization sweeps across all solves",
)
_M_SESSION_EVENTS = obs_metrics.counter(
    "repro_session_events_total",
    "Warm-session registry events (reused == encodes avoided)",
    labels=("event",),  # opened | reused | probe | evicted
)


def _record_result_metrics(
    result: VerificationResult, trace_id: Optional[str] = None
) -> None:
    """Fold one solver-produced result into the metrics registry.

    ``trace_id`` (the submitting request's trace) becomes the solve
    histogram's bucket exemplar, so a latency outlier on a dashboard
    links straight to the span tree that produced it.
    """
    stats = result.statistics
    _M_SOLVE_SECONDS.observe(
        result.runtime_seconds, exemplar=trace_id, backend=result.backend
    )
    for metric, key in (
        (_M_SOLVER_CONFLICTS, "conflicts"),
        (_M_SOLVER_RESTARTS, "restarts"),
        (_M_SOLVER_PROPAGATIONS, "propagations"),
        (_M_SOLVER_THEORY_PROPS, "theory_props"),
        (_M_SOLVER_THEORY_CHECKS, "theory_checks"),
        (_M_SOLVER_PIVOTS, "pivots"),
        (_M_SOLVER_REFACTORIZATIONS, "refactorizations"),
    ):
        amount = stats.get(key)
        if amount:
            metric.inc(amount)
    fill_ratio = stats.get("fill_ratio")
    if fill_ratio is not None:
        _M_SOLVER_FILL_RATIO.set(fill_ratio)
    if stats.get("task_timeout"):
        _M_TASK_TIMEOUTS.inc()
    if stats.get("portfolio"):
        _M_PORTFOLIO_RACES.inc()
        exchanged = stats.get("portfolio_clauses_exchanged")
        if exchanged:
            _M_PORTFOLIO_CLAUSES.inc(exchanged)
        winner_config = stats.get("portfolio_winner_config")
        if winner_config:
            _M_PORTFOLIO_CONFIG_WINS.inc(config=winner_config)

#: Whether this platform can enforce per-task wall-clock timeouts.
#: ``SIGALRM``/``setitimer`` are POSIX-only (absent on Windows); without
#: them the runtime still imports and runs, but ``task_timeout`` silently
#: degrades to *no timeout* — every task runs to completion.  Callers
#: that must know (e.g. the service ``/statsz`` endpoint) can inspect
#: this flag instead of probing :mod:`signal` themselves.
HAS_TASK_TIMEOUTS = hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")


@dataclass
class RuntimeOptions:
    """Knobs for the parallel verification runtime.

    ``jobs``          — worker processes; 1 = in-process, 0/None = all cores
    ``portfolio``     — ``True``/``"configs"``/``"configs:N"`` races N
                        (default 4) diversified SMT configurations per
                        instance with learned-clause exchange; the first
                        definitive answer wins
    ``cache``         — optional :class:`ResultCache` for memoization
    ``task_timeout``  — per-instance wall-clock budget in seconds
    ``epsilon``       — forwarded to :func:`verify_attack`
    ``sessions``      — solve SMT instances on warm per-family
                        :class:`VerificationSession` objects (kept in a
                        small per-process LRU registry keyed by family
                        fingerprint).  Same outcomes and attacks, but
                        solver statistics reflect the warm solver, so
                        this is opt-in rather than the default.
    """

    jobs: int = 1
    portfolio: Union[bool, str] = False
    cache: Optional[ResultCache] = None
    task_timeout: Optional[float] = None
    epsilon: Epsilon = None
    sessions: bool = False

    def __post_init__(self) -> None:
        # fail on construction, not at solve time inside a pool worker
        parse_portfolio_mode(self.portfolio)

    def effective_jobs(self, num_tasks: int) -> int:
        jobs = self.jobs if self.jobs and self.jobs > 0 else (os.cpu_count() or 1)
        return max(1, min(jobs, num_tasks))

    def portfolio_mode(self) -> Optional[str]:
        """``None`` or ``"configs"``."""
        return parse_portfolio_mode(self.portfolio)[0]

    def portfolio_size(self) -> int:
        """Contenders per race (0 when the portfolio is off)."""
        return parse_portfolio_mode(self.portfolio)[1]

    def backend_label(self) -> str:
        """``"smt"``, or ``"portfolio-configsN"`` under a race."""
        mode, size = parse_portfolio_mode(self.portfolio)
        if mode:
            # the label participates in cache fingerprints; a config
            # race of different width explores a different portfolio,
            # but the determinism contract keeps results equivalent —
            # the size is still baked in so cached entries self-describe
            return f"portfolio-configs{size}"
        return "smt"

    def describe(self) -> Dict[str, Any]:
        """JSON-able snapshot of the knobs (for ``/statsz`` and logs)."""
        return {
            "jobs": self.jobs,
            "backend": self.backend_label(),
            "portfolio": self.portfolio_mode(),
            "portfolio_size": self.portfolio_size() or None,
            "task_timeout": self.task_timeout,
            "task_timeouts_enforced": HAS_TASK_TIMEOUTS,
            "epsilon": None if self.epsilon is None else str(self.epsilon),
            "cache": self.cache is not None,
            "sessions": self.sessions,
        }


class _TaskTimeout(Exception):
    pass


# ----------------------------------------------------------------------
# warm verification sessions (per-process registry)
# ----------------------------------------------------------------------
#: Most warm sessions kept alive per process; least-recently-used
#: families are evicted beyond this.  Each session holds one encoded
#: grid, so the registry bounds memory, not correctness.
SESSION_REGISTRY_LIMIT = 8

_sessions: "OrderedDict[str, VerificationSession]" = None  # type: ignore[assignment]
_session_lock = threading.Lock()
_session_stats = {"opened": 0, "reused": 0, "probes": 0, "evicted": 0}


def _session_registry() -> "OrderedDict[str, VerificationSession]":
    global _sessions
    if _sessions is None:
        from collections import OrderedDict

        _sessions = OrderedDict()
    return _sessions


def session_registry_stats() -> Dict[str, Any]:
    """Counters for this process's warm-session registry (``/statsz``)."""
    with _session_lock:
        registry = _session_registry()
        stats = dict(_session_stats)
        stats["open"] = len(registry)
        stats["limit"] = SESSION_REGISTRY_LIMIT
        return stats


def clear_session_registry() -> None:
    """Drop every warm session and zero the counters (test isolation)."""
    with _session_lock:
        _session_registry().clear()
        for key in _session_stats:
            _session_stats[key] = 0


def _solve_on_session(spec: AttackSpec, epsilon: Epsilon) -> VerificationResult:
    """Answer one spec as a probe on its family's warm session.

    The registry key is the family fingerprint (grid/plan/etc. minus
    limits and goal targets), so a binary search, budget sweep or
    repeated service request over one family re-uses a single encoding.
    The lock serializes probes — sessions are single warm solvers, not
    thread-safe objects.
    """
    eps = None if epsilon is None else Fraction(epsilon)
    key = family_fingerprint(spec, epsilon=eps)
    with _session_lock:
        registry = _session_registry()
        session = registry.get(key)
        if session is not None and session.compatible(spec):
            registry.move_to_end(key)
            _session_stats["reused"] += 1
            _M_SESSION_EVENTS.inc(event="reused")
        else:
            session = VerificationSession(spec, epsilon=epsilon)
            registry[key] = session
            registry.move_to_end(key)
            _session_stats["opened"] += 1
            _M_SESSION_EVENTS.inc(event="opened")
            while len(registry) > SESSION_REGISTRY_LIMIT:
                registry.popitem(last=False)
                _session_stats["evicted"] += 1
                _M_SESSION_EVENTS.inc(event="evicted")
        _session_stats["probes"] += 1
        _M_SESSION_EVENTS.inc(event="probe")
        try:
            return session.probe_spec(spec)
        except BaseException:
            # an interrupted probe (e.g. a task timeout) can leave the
            # warm solver mid-search; drop the session rather than risk
            # probing a corrupted one later
            registry.pop(key, None)
            raise


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`_TaskTimeout` after ``seconds`` of wall clock.

    Uses ``SIGALRM``, so it only engages on the main thread of a
    process (which is where both pool workers and the in-process
    fallback run); elsewhere — worker threads, or platforms without
    ``SIGALRM``/``setitimer`` (:data:`HAS_TASK_TIMEOUTS` false) — it is
    a documented no-op: the task simply runs without a timeout.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and HAS_TASK_TIMEOUTS
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _handler(signum, frame):
        raise _TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timeout_result(backend: str, elapsed: float) -> VerificationResult:
    return VerificationResult(
        VerificationOutcome.UNKNOWN,
        None,
        backend,
        elapsed,
        {"task_timeout": 1},
    )


def _solve_spec(
    spec: AttackSpec,
    portfolio: Union[bool, str],
    epsilon: Epsilon,
    task_timeout: Optional[float],
    sessions: bool = False,
) -> VerificationResult:
    start = time.perf_counter()
    mode, size = parse_portfolio_mode(portfolio)
    try:
        with _alarm(task_timeout):
            if mode:
                return race_configs(
                    spec, n=size, epsilon=epsilon, timeout=task_timeout
                )
            if sessions:
                return _solve_on_session(spec, epsilon)
            return verify_attack(spec, epsilon=epsilon)
    except _TaskTimeout:
        return _timeout_result(
            "portfolio" if mode else "smt", time.perf_counter() - start
        )


def _verify_remote(task: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker body: rebuild the spec, solve, return the encoded result.

    When the task carries a ``"trace"`` context, the worker installs a
    recording tracer for the duration of the solve, wraps it in a
    ``pool.task`` span parented to the submitter's span, and ships every
    finished span home in the result payload (``"trace_spans"``) — the
    parent re-exports them into its own ring/sink, so one trace crosses
    the process boundary seamlessly.
    """
    spec = payload_to_spec(json.loads(task["payload"]))
    epsilon = None if task["epsilon"] is None else Fraction(task["epsilon"])
    trace = task.get("trace")
    if trace is None:
        result = _solve_spec(
            spec,
            portfolio=task["portfolio"],
            epsilon=epsilon,
            task_timeout=task["timeout"],
            sessions=task.get("sessions", False),
        )
        return result_to_payload(result)
    worker_tracer = Tracer(ring_size=1024)
    previous = set_tracer(worker_tracer)
    try:
        with worker_tracer.span(
            "pool.task",
            parent=trace,
            pid=os.getpid(),
            backend="portfolio" if task["portfolio"] else "smt",
        ) as span:
            result = _solve_spec(
                spec,
                portfolio=task["portfolio"],
                epsilon=epsilon,
                task_timeout=task["timeout"],
                sessions=task.get("sessions", False),
            )
            span.set(outcome=result.outcome.value)
    finally:
        set_tracer(previous)
    payload = result_to_payload(result)
    payload["trace_spans"] = worker_tracer.drain()
    return payload


def verify_many(
    specs: Sequence[AttackSpec],
    options: Optional[RuntimeOptions] = None,
    trace_parents: Optional[Sequence[Optional[Dict[str, str]]]] = None,
) -> List[VerificationResult]:
    """Verify a batch of independent specs, preserving input order.

    Results are bit-identical to running :func:`verify_attack` serially
    on each spec (workers rebuild the exact spec from its canonical
    payload and the solvers are deterministic).  Cache hits carry
    ``statistics["cache_hit"] == 1`` and skip all solver work.

    ``trace_parents`` (aligned with ``specs``) carries per-spec span
    contexts — the batching scheduler passes each job's span here so a
    job's solve appears under its own trace rather than the batch's.
    """
    options = options or RuntimeOptions()
    tracer = get_tracer()
    n = len(specs)
    results: List[Optional[VerificationResult]] = [None] * n

    def _parent(i: int) -> Optional[Dict[str, str]]:
        if trace_parents is not None and i < len(trace_parents):
            parent = trace_parents[i]
            if parent is not None:
                return parent
        return context_payload()

    # session solves may return a different (equally valid) attack
    # witness than a cold solve, so they get their own cache keyspace
    fingerprints = [
        spec_fingerprint(
            spec,
            backend=options.backend_label(),
            epsilon=None if options.epsilon is None else Fraction(options.epsilon),
            extra=("sessions",) if options.sessions else (),
        )
        for spec in specs
    ]
    groups: Dict[str, List[int]] = {}  # fingerprint -> indices, first seen first
    for i, key in enumerate(fingerprints):
        groups.setdefault(key, []).append(i)

    def _fill(key: str, result: VerificationResult) -> None:
        # in-batch duplicates get their own statistics dict
        first, *rest = groups[key]
        results[first] = result
        for index in rest:
            results[index] = replace(result, statistics=dict(result.statistics))

    order: List[int] = []  # first index per fingerprint the cache missed
    for key, indices in groups.items():
        # one lookup per fingerprint: in-batch duplicates share its answer
        hit = None if options.cache is None else options.cache.get(key)
        if hit is None:
            order.append(indices[0])
            continue
        _fill(key, hit)
        if tracer.enabled:
            for index in indices:
                tracer.span(
                    "runtime.cache", parent=_parent(index), cache="hit"
                ).finish()

    jobs = options.effective_jobs(len(order))
    solved: List[VerificationResult] = []
    if order:
        if jobs <= 1:
            for i in order:
                with tracer.span(
                    "runtime.task",
                    parent=_parent(i),
                    mode="inline",
                    backend=options.backend_label(),
                ) as span:
                    result = _solve_spec(
                        specs[i],
                        portfolio=options.portfolio,
                        epsilon=options.epsilon,
                        task_timeout=options.task_timeout,
                        sessions=options.sessions,
                    )
                    span.set(outcome=result.outcome.value)
                solved.append(result)
                _M_TASKS.inc(mode="inline")
        else:
            tasks = [
                {
                    "payload": canonical_json(spec_to_payload(specs[i])),
                    "portfolio": options.portfolio,
                    "epsilon": (
                        None
                        if options.epsilon is None
                        else str(Fraction(options.epsilon))
                    ),
                    "timeout": options.task_timeout,
                    "sessions": options.sessions,
                    "trace": _parent(i) if tracer.enabled else None,
                }
                for i in order
            ]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for payload in pool.map(_verify_remote, tasks, chunksize=1):
                    for span_dict in payload.pop("trace_spans", None) or ():
                        tracer.export(span_dict)
                    solved.append(result_from_payload(payload))
                    _M_TASKS.inc(mode="pool")

    for i, result in zip(order, solved):
        parent = _parent(i)
        _record_result_metrics(
            result, trace_id=(parent or {}).get("trace_id")
        )

    for i, result in zip(order, solved):
        key = fingerprints[i]
        if (
            options.cache is not None
            and result.outcome is not VerificationOutcome.UNKNOWN
        ):
            options.cache.put(key, result)
        _fill(key, result)

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def verify_one(
    spec: AttackSpec, options: Optional[RuntimeOptions] = None
) -> VerificationResult:
    """Single-instance convenience wrapper over :func:`verify_many`."""
    return verify_many([spec], options)[0]


# ----------------------------------------------------------------------
# batch synthesis
# ----------------------------------------------------------------------
def _synthesize_remote(task: Tuple[str, Any]):
    from repro.core.synthesis import synthesize_architecture

    payload_json, settings = task
    spec = payload_to_spec(json.loads(payload_json))
    return synthesize_architecture(spec, settings)


def synthesize_many(
    problems: Sequence[Tuple[AttackSpec, Any]],
    jobs: int = 1,
) -> List[Any]:
    """Run independent ``(spec, SynthesisSettings)`` problems, in order.

    Each problem runs :func:`repro.core.synthesis.synthesize_architecture`
    in its own worker (``SynthesisSettings`` and ``SynthesisResult`` are
    plain picklable dataclasses); ``jobs<=1`` runs in-process.
    """
    from repro.core.synthesis import synthesize_architecture

    if not problems:
        return []
    workers = RuntimeOptions(jobs=jobs).effective_jobs(len(problems))
    if workers <= 1:
        return [synthesize_architecture(spec, settings) for spec, settings in problems]
    tasks = [
        (canonical_json(spec_to_payload(spec)), settings)
        for spec, settings in problems
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_synthesize_remote, tasks, chunksize=1))
