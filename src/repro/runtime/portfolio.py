"""Portfolio racing for a single verification instance.

Two racing modes share the process-pool plumbing here:

* :func:`race_backends` — the PR 1 *backend* race.  The two bundled
  backends have complementary strengths: the DPLL(T) engine is exact
  and fast on UNSAT instances (lattice lemmas prune the space), while
  the MILP mirror's LP relaxations often find SAT witnesses on large
  systems quickly.  Figure 4(d)'s SAT-vs-UNSAT asymmetry means neither
  dominates, so both run concurrently and the first conclusive answer
  wins.

* :func:`race_configs` — the cooperative *configuration* race.  N
  diversified :class:`~repro.smt.sat.SolverConfig` instances of the
  same SMT engine attack the same instance, and — unlike the blind
  backend race — the contenders exchange learned clauses: each child
  exports small/low-LBD learnt clauses through the worker-result
  channel, the parent dedups them by canonical literal tuple and relays
  them to the other children, where they are imported at decision
  level 0.  The first definitive answer wins and the losers are
  cancelled.  Exchanged clauses are implied by the shared formula, so
  imports can only prune search; each child records its import schedule
  (``(conflict_count, clause)``), and :func:`replay_config_solo`
  reproduces the winner's search — verdict, model, core, statistics —
  bit for bit from that log.

When process spawning is unavailable either race degrades to a
sequential portfolio: contenders run in order, without exchange, and
the first conclusive answer wins.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.spec import AttackSpec
from repro.core.verification import (
    UfdiEncoder,
    VerificationOutcome,
    VerificationResult,
    verify_attack,
)
from repro.obs.trace import get_tracer
from repro.runtime.serialize import (
    canonical_json,
    payload_to_spec,
    result_from_payload,
    result_to_payload,
    spec_to_payload,
)
from repro.smt.sat import ScriptedExchange, SolverConfig, diversified_configs
from repro.smt.solver import Result

DEFAULT_BACKENDS: Tuple[str, ...] = ("smt", "milp")

#: default size of a configuration race (``--portfolio configs``)
DEFAULT_CONFIG_RACE_SIZE = 4

#: clause-exchange tuning shared by the live race and the solo replay —
#: the replay only reproduces the winner's search if these match
EXCHANGE_INTERVAL = 32
EXCHANGE_SIZE_CAP = 8
EXCHANGE_LBD_CAP = 6

Epsilon = Optional[Union[int, float, Fraction]]

PortfolioMode = Union[bool, str]


def parse_portfolio_mode(value: PortfolioMode) -> Tuple[Optional[str], int]:
    """Normalize a ``--portfolio`` knob into ``(mode, size)``.

    Accepted values: falsy (no portfolio), ``True``/``"backends"`` (the
    SMT/MILP backend race), ``"configs"`` (cooperative configuration
    race of :data:`DEFAULT_CONFIG_RACE_SIZE`), or ``"configs:N"``.
    """
    if not value:
        return None, 0
    if value is True or value == "backends":
        return "backends", len(DEFAULT_BACKENDS)
    text = str(value)
    if text == "configs":
        return "configs", DEFAULT_CONFIG_RACE_SIZE
    if text.startswith("configs:"):
        suffix = text.split(":", 1)[1]
        try:
            size = int(suffix)
        except ValueError:
            size = 0
        if size < 1:
            raise ValueError(
                f"bad portfolio size {suffix!r} in {text!r} "
                "(use 'configs:N' with N >= 1)"
            )
        return "configs", size
    raise ValueError(
        f"unknown portfolio mode {value!r} "
        "(use 'backends', 'configs' or 'configs:N')"
    )


def _encode_epsilon(epsilon: Epsilon) -> Optional[str]:
    return None if epsilon is None else str(Fraction(epsilon))


def _decode_epsilon(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


def _format_child_error(exc: BaseException) -> str:
    """Render a child exception as a plain (always pickleable) string.

    ``str(exc)`` itself may raise for exotic exceptions; the old
    f-string formatting then killed the child without a report and the
    parent waited on a message that never came.
    """
    name = type(exc).__name__
    try:
        detail = str(exc)
    except BaseException:  # noqa: BLE001 — __str__ itself misbehaving
        detail = "<unprintable exception>"
    return f"{name}: {detail}" if detail else name


def _race_child(payload_json: str, backend: str, epsilon: Optional[str], out) -> None:
    """Child process body: solve with one backend, report via queue."""
    import json

    try:
        # deterministic-test hook: REPRO_RACE_STALL=<backend> parks that
        # contender so the other one always wins and the stalled child is
        # observed being cancelled; never set outside the test suite
        if os.environ.get("REPRO_RACE_STALL") == backend:
            time.sleep(120.0)
        # deterministic-test hook: REPRO_RACE_CRASH=<backend> makes that
        # contender raise an exception whose __str__ itself raises — the
        # worst-case crash shape the structured-error path must survive
        if os.environ.get("REPRO_RACE_CRASH") == backend:
            raise _UnprintableError("portfolio crash hook")
        spec = payload_to_spec(json.loads(payload_json))
        result = verify_attack(spec, backend=backend, epsilon=_decode_epsilon(epsilon))
        out.put((backend, result_to_payload(result), None))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            out.put((backend, None, _format_child_error(exc)))
        except BaseException:  # noqa: BLE001 — queue already torn down
            pass


class _UnprintableError(RuntimeError):
    """Test-hook exception whose ``str()`` raises (non-pickleable too)."""

    def __str__(self) -> str:  # pragma: no cover - never printable
        raise TypeError("this exception cannot be formatted")

    def __reduce__(self):  # pragma: no cover - never pickled successfully
        raise TypeError("this exception cannot be pickled")


def _sequential_race(
    spec: AttackSpec, backends: Sequence[str], epsilon: Epsilon
) -> VerificationResult:
    last: Optional[VerificationResult] = None
    for backend in backends:
        result = verify_attack(spec, backend=backend, epsilon=epsilon)
        if result.outcome is not VerificationOutcome.UNKNOWN:
            result.statistics["portfolio"] = 1
            result.statistics["portfolio_winner"] = result.backend
            return result
        last = result
    assert last is not None
    last.statistics["portfolio"] = 1
    return last


def race_backends(
    spec: AttackSpec,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    epsilon: Epsilon = None,
    timeout: Optional[float] = None,
) -> VerificationResult:
    """Race ``backends`` on ``spec``; first conclusive answer wins.

    UNKNOWN answers (conflict budgets, MILP numerical bailouts) and
    crashed contenders keep the race open; the loser processes are
    terminated as soon as a winner reports.  If every contender is
    inconclusive — or ``timeout`` elapses — the result is UNKNOWN with
    backend ``"portfolio"``.
    """
    if not backends:
        raise ValueError("need at least one backend to race")
    if len(backends) == 1:
        result = verify_attack(spec, backend=backends[0], epsilon=epsilon)
        result.statistics["portfolio"] = 1
        if result.outcome is not VerificationOutcome.UNKNOWN:
            result.statistics["portfolio_winner"] = result.backend
        return result

    start = time.perf_counter()
    payload_json = canonical_json(spec_to_payload(spec))
    epsilon_str = _encode_epsilon(epsilon)
    try:
        ctx = multiprocessing.get_context()
        results_queue = ctx.Queue()
        children = [
            ctx.Process(
                target=_race_child,
                args=(payload_json, backend, epsilon_str, results_queue),
                daemon=True,
            )
            for backend in backends
        ]
        for child in children:
            child.start()
    except (OSError, ValueError):
        # no process/semaphore support on this platform: sequential race
        return _sequential_race(spec, backends, epsilon)

    winner: Optional[VerificationResult] = None
    winner_backend: Optional[str] = None
    errors: Dict[str, str] = {}
    losers_cancelled = 0
    reported = 0
    try:
        while reported < len(children):
            if timeout is not None and time.perf_counter() - start >= timeout:
                break
            try:
                # bounded poll, not a blocking get: a contender that died
                # without reporting (OOM kill, unpickleable crash before
                # the hardened formatting) must not hang the race forever
                backend, payload, error = results_queue.get(timeout=0.25)
            except queue_module.Empty:
                if all(not child.is_alive() for child in children):
                    break
                continue
            reported += 1
            if error is not None or payload is None:
                errors[backend] = error or "crashed without a report"
                continue
            result = result_from_payload(payload)
            if result.outcome is not VerificationOutcome.UNKNOWN:
                winner = result
                winner_backend = backend
                break
    finally:
        terminated = set()
        for index, child in enumerate(children):
            if child.is_alive():
                child.terminate()
                terminated.add(index)
                losers_cancelled += 1
        for child in children:
            child.join(timeout=5.0)
        results_queue.close()
        results_queue.cancel_join_thread()

    elapsed = time.perf_counter() - start
    if winner is None:
        # distinguish "children died without reporting" from an honest
        # inconclusive race so callers see a structured error, not a hang
        for index, child in enumerate(children):
            backend = backends[index]
            if index not in terminated and child.exitcode not in (0, None):
                errors.setdefault(backend, f"exit code {child.exitcode}")
        stats: Dict[str, object] = {
            "portfolio": 1,
            "portfolio_inconclusive": 1,
            "portfolio_losers_cancelled": losers_cancelled,
        }
        if errors:
            stats["portfolio_crashed"] = len(errors)
            stats["portfolio_errors"] = dict(sorted(errors.items()))
        return VerificationResult(
            VerificationOutcome.UNKNOWN,
            None,
            "portfolio",
            elapsed,
            stats,
        )
    winner.runtime_seconds = elapsed
    winner.statistics = dict(winner.statistics)
    winner.statistics["portfolio"] = 1
    winner.statistics["portfolio_winner"] = winner_backend or winner.backend
    winner.statistics["portfolio_losers_cancelled"] = losers_cancelled
    return winner


# ----------------------------------------------------------------------
# cooperative configuration race
# ----------------------------------------------------------------------
@contextmanager
def _engine_env(config_token: str):
    """Temporarily pin REPRO_SAT_CONFIG.

    Used around in-process encoder construction only (solo replay and
    the sequential fallback); the parent's environment is restored
    immediately so its engine signature — and every cache fingerprint
    computed afterwards — is untouched.
    """
    saved = os.environ.get("REPRO_SAT_CONFIG")
    try:
        os.environ["REPRO_SAT_CONFIG"] = config_token
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_SAT_CONFIG", None)
        else:
            os.environ["REPRO_SAT_CONFIG"] = saved


def _result_from_check(
    check_result: "Result",
    encoder: UfdiEncoder,
    runtime: float,
) -> VerificationResult:
    """Map a raw ``Solver.check`` outcome to a VerificationResult.

    Mirrors the ``backend == "smt"`` arm of
    :func:`repro.core.verification.verify_attack` exactly, so a race
    child produces the same result object a solo verify would.
    """
    stats = encoder.statistics()
    if check_result is Result.SAT:
        return VerificationResult(
            VerificationOutcome.ATTACK_EXISTS,
            encoder.extract_attack(),
            "smt",
            runtime,
            stats,
        )
    outcome = (
        VerificationOutcome.SECURE
        if check_result is Result.UNSAT
        else VerificationOutcome.UNKNOWN
    )
    return VerificationResult(outcome, None, "smt", runtime, stats)


class _QueueExchange:
    """Child-side exchange transport over the worker-result channel.

    Exports ride the shared results queue as ``("clauses", index,
    batch)`` messages; imports arrive on this child's dedicated queue as
    lists of literal lists, relayed (and deduplicated) by the parent.
    """

    def __init__(self, index: int, out, imports) -> None:
        self._index = index
        self._out = out
        self._imports = imports

    def publish(self, clauses: List[Tuple[int, ...]], conflicts: int) -> None:
        try:
            self._out.put_nowait(
                ("clauses", self._index, [list(c) for c in clauses])
            )
        except BaseException:  # noqa: BLE001 — exports are best-effort
            pass

    def poll(self, conflicts: int) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []
        while True:
            try:
                batch = self._imports.get_nowait()
            except queue_module.Empty:
                break
            except BaseException:  # noqa: BLE001 — channel torn down
                break
            out.extend(tuple(lits) for lits in batch)
        return out


def _config_child(
    payload_json: str,
    token: str,
    epsilon: Optional[str],
    index: int,
    out,
    imports,
) -> None:
    """Child process body: one diversified configuration, cooperating."""
    import json

    try:
        os.environ["REPRO_SAT_CONFIG"] = token
        # deterministic-test hooks, mirroring the backend race
        if os.environ.get("REPRO_RACE_STALL") == f"config:{index}":
            time.sleep(120.0)
        if os.environ.get("REPRO_RACE_CRASH") == f"config:{index}":
            raise _UnprintableError("portfolio crash hook")
        tracer = get_tracer()
        spec = payload_to_spec(json.loads(payload_json))
        start = time.perf_counter()
        with tracer.span("verify.encode", backend="smt", config=token):
            encoder = UfdiEncoder(spec, epsilon=_decode_epsilon(epsilon))
        encoder.solver.set_clause_exchange(
            _QueueExchange(index, out, imports),
            interval=EXCHANGE_INTERVAL,
            size_cap=EXCHANGE_SIZE_CAP,
            lbd_cap=EXCHANGE_LBD_CAP,
        )
        if tracer.enabled:
            encoder.solver.set_profile(True)
        with tracer.span("verify.solve", backend="smt", config=token) as span:
            check_result = encoder.check()
            runtime = time.perf_counter() - start
            result = _result_from_check(check_result, encoder, runtime)
            span.set(
                outcome=result.outcome.value,
                conflicts=result.statistics.get("conflicts"),
                clauses_exported=result.statistics.get("clauses_exported"),
                clauses_imported=result.statistics.get("clauses_imported"),
            )
        stats = result.statistics
        meta = {
            "config": token,
            "import_log": [
                [count, list(clause)]
                for count, clause in encoder.solver.import_log()
            ],
            "clauses_exported": stats.get("clauses_exported", 0),
            "clauses_imported": stats.get("clauses_imported", 0),
            "phase_times": {
                key: value
                for key, value in stats.items()
                if key.startswith("time_")
            },
            "runtime_seconds": runtime,
        }
        out.put(("result", index, result_to_payload(result), None, meta))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            out.put(("result", index, None, _format_child_error(exc), None))
        except BaseException:  # noqa: BLE001 — queue already torn down
            pass


def _solo_config_solve(
    spec: AttackSpec,
    config: SolverConfig,
    epsilon: Epsilon,
) -> VerificationResult:
    """In-process solve of one configuration, no exchange."""
    start = time.perf_counter()
    with _engine_env(config.token()):
        encoder = UfdiEncoder(spec, epsilon=epsilon)
    check_result = encoder.check()
    return _result_from_check(
        check_result, encoder, time.perf_counter() - start
    )


def _sequential_config_race(
    spec: AttackSpec,
    configs: Sequence[SolverConfig],
    epsilon: Epsilon,
    capture: Optional[dict],
) -> VerificationResult:
    """Fallback when process spawning is unavailable: no cooperation."""
    last: Optional[VerificationResult] = None
    for config in configs:
        result = _solo_config_solve(spec, config, epsilon)
        result.statistics["portfolio"] = 1
        result.statistics["portfolio_mode"] = "configs"
        result.statistics["portfolio_size"] = len(configs)
        result.statistics["portfolio_clauses_exchanged"] = 0
        if result.outcome is not VerificationOutcome.UNKNOWN:
            result.statistics["portfolio_winner"] = "smt"
            result.statistics["portfolio_winner_config"] = config.token()
            if capture is not None:
                capture["winner_config"] = config.token()
                capture["import_log"] = []
            return result
        last = result
    assert last is not None
    last.statistics["portfolio_inconclusive"] = 1
    return last


def race_configs(
    spec: AttackSpec,
    n: int = DEFAULT_CONFIG_RACE_SIZE,
    configs: Optional[Sequence[SolverConfig]] = None,
    epsilon: Epsilon = None,
    timeout: Optional[float] = None,
    capture: Optional[dict] = None,
    collect_all: bool = False,
) -> VerificationResult:
    """Cooperative race of ``n`` diversified solver configurations.

    All contenders run the exact SMT backend on the same instance and
    exchange learned clauses (see the module docstring); the first
    definitive answer wins and the losers are cancelled.  The winner's
    verdict/model/core are bit-identical to a solo solve of the winning
    configuration replaying the recorded import schedule
    (:func:`replay_config_solo`) — imports only prune search.

    ``capture``, when a dict, receives ``winner_config``,
    ``import_log`` and per-config ``details`` for profiling and the
    determinism tests.  ``collect_all`` waits for every contender
    instead of cancelling losers (used by ``repro profile
    --portfolio``).
    """
    if configs is None:
        configs = diversified_configs(n)
    else:
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one configuration to race")
    tokens = [config.token() for config in configs]
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"duplicate solver configurations: {tokens}")

    if len(configs) == 1:
        result = _solo_config_solve(spec, configs[0], epsilon)
        result.statistics["portfolio"] = 1
        result.statistics["portfolio_mode"] = "configs"
        result.statistics["portfolio_size"] = 1
        result.statistics["portfolio_clauses_exchanged"] = 0
        if result.outcome is not VerificationOutcome.UNKNOWN:
            result.statistics["portfolio_winner"] = "smt"
            result.statistics["portfolio_winner_config"] = tokens[0]
        if capture is not None:
            capture["winner_config"] = tokens[0]
            capture["import_log"] = []
        return result

    start = time.perf_counter()
    payload_json = canonical_json(spec_to_payload(spec))
    epsilon_str = _encode_epsilon(epsilon)
    try:
        ctx = multiprocessing.get_context()
        results_queue = ctx.Queue()
        import_queues = [ctx.Queue() for _ in configs]
        children = [
            ctx.Process(
                target=_config_child,
                args=(
                    payload_json,
                    tokens[index],
                    epsilon_str,
                    index,
                    results_queue,
                    import_queues[index],
                ),
                daemon=True,
            )
            for index in range(len(configs))
        ]
        for child in children:
            child.start()
    except (OSError, ValueError):
        return _sequential_config_race(spec, configs, epsilon, capture)

    winner: Optional[VerificationResult] = None
    winner_index: Optional[int] = None
    winner_meta: Optional[dict] = None
    details: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    seen_clauses: set = set()
    clauses_exchanged = 0
    losers_cancelled = 0
    reported = 0
    try:
        while reported < len(children):
            if timeout is not None and time.perf_counter() - start >= timeout:
                break
            try:
                message = results_queue.get(timeout=0.25)
            except queue_module.Empty:
                if all(not child.is_alive() for child in children):
                    break
                continue
            tag = message[0]
            if tag == "clauses":
                _, sender, batch = message
                fresh = []
                for lits in batch:
                    key = tuple(sorted(int(q) for q in lits))
                    if key in seen_clauses:
                        continue
                    seen_clauses.add(key)
                    fresh.append(list(lits))
                if fresh:
                    clauses_exchanged += len(fresh)
                    for index, import_queue in enumerate(import_queues):
                        if index == sender or not children[index].is_alive():
                            continue
                        try:
                            import_queue.put_nowait(fresh)
                        except BaseException:  # noqa: BLE001 — best-effort
                            pass
                continue
            _, index, payload, error, meta = message
            reported += 1
            if error is not None or payload is None:
                errors[tokens[index]] = error or "crashed without a report"
                continue
            if meta is not None:
                details[tokens[index]] = meta
            result = result_from_payload(payload)
            if result.outcome is VerificationOutcome.UNKNOWN:
                continue
            if winner is None:
                winner = result
                winner_index = index
                winner_meta = meta
                if not collect_all:
                    break
    finally:
        terminated = set()
        for index, child in enumerate(children):
            if child.is_alive():
                child.terminate()
                terminated.add(index)
                losers_cancelled += 1
        for child in children:
            child.join(timeout=5.0)
        results_queue.close()
        results_queue.cancel_join_thread()
        for import_queue in import_queues:
            import_queue.close()
            import_queue.cancel_join_thread()

    elapsed = time.perf_counter() - start
    if capture is not None:
        capture["details"] = details
        capture["clauses_exchanged"] = clauses_exchanged
    if winner is None:
        for index, child in enumerate(children):
            if index not in terminated and child.exitcode not in (0, None):
                errors.setdefault(tokens[index], f"exit code {child.exitcode}")
        stats: Dict[str, object] = {
            "portfolio": 1,
            "portfolio_mode": "configs",
            "portfolio_size": len(configs),
            "portfolio_inconclusive": 1,
            "portfolio_losers_cancelled": losers_cancelled,
            "portfolio_clauses_exchanged": clauses_exchanged,
        }
        if errors:
            stats["portfolio_crashed"] = len(errors)
            stats["portfolio_errors"] = dict(sorted(errors.items()))
        return VerificationResult(
            VerificationOutcome.UNKNOWN, None, "portfolio", elapsed, stats
        )
    winner.runtime_seconds = elapsed
    winner.statistics = dict(winner.statistics)
    winner.statistics["portfolio"] = 1
    winner.statistics["portfolio_mode"] = "configs"
    winner.statistics["portfolio_size"] = len(configs)
    winner.statistics["portfolio_winner"] = "smt"
    winner.statistics["portfolio_winner_config"] = tokens[winner_index]
    winner.statistics["portfolio_losers_cancelled"] = losers_cancelled
    winner.statistics["portfolio_clauses_exchanged"] = clauses_exchanged
    if errors:
        winner.statistics["portfolio_crashed"] = len(errors)
        winner.statistics["portfolio_errors"] = dict(sorted(errors.items()))
    if capture is not None:
        capture["winner_config"] = tokens[winner_index]
        capture["import_log"] = [
            (int(count), tuple(int(q) for q in clause))
            for count, clause in (winner_meta or {}).get("import_log", [])
        ]
    return winner


def replay_config_solo(
    spec: AttackSpec,
    config: Union[SolverConfig, str],
    import_log: Sequence[Tuple[int, Sequence[int]]],
    epsilon: Epsilon = None,
) -> VerificationResult:
    """Solo re-solve of one configuration with a recorded import schedule.

    Replays the clause imports of a ``race_configs`` winner at the exact
    conflict counts they originally arrived, via
    :class:`~repro.smt.sat.ScriptedExchange`.  Because the exchange
    tuning matches the live race, the solo search visits the same
    decisions, conflicts and propagations — the returned verdict, model
    attack vector, core and search statistics are bit-identical to the
    winner's.  This is the enforcement point of the determinism
    contract.
    """
    if isinstance(config, str):
        config = SolverConfig.from_token(config)
    start = time.perf_counter()
    with _engine_env(config.token()):
        encoder = UfdiEncoder(spec, epsilon=epsilon)
    encoder.solver.set_clause_exchange(
        ScriptedExchange(
            (int(count), tuple(int(q) for q in clause))
            for count, clause in import_log
        ),
        interval=EXCHANGE_INTERVAL,
        size_cap=EXCHANGE_SIZE_CAP,
        lbd_cap=EXCHANGE_LBD_CAP,
    )
    check_result = encoder.check()
    return _result_from_check(
        check_result, encoder, time.perf_counter() - start
    )
