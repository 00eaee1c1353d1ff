"""Portfolio racing for a single verification instance.

:func:`race_configs` is the cooperative *configuration* race.  N
diversified :class:`~repro.smt.sat.SolverConfig` instances of the SMT
engine attack the same instance and exchange learned clauses: each
child exports small/low-LBD learnt clauses through the worker-result
channel, the parent dedups them by canonical literal tuple and relays
them to the other children, where they are imported at decision level
0.  The first definitive answer wins and the losers are cancelled.
Exchanged clauses are implied by the shared formula, so imports can
only prune search; each child records its import schedule
(``(conflict_count, clause)``), and :func:`replay_config_solo`
reproduces the winner's search — verdict, model, core, statistics — bit
for bit from that log.

Every contender answers through :meth:`UfdiEncoder.solve
<repro.core.verification.UfdiEncoder.solve>`, the same exit as a solo
:func:`~repro.core.verification.verify_attack`, with its configuration
passed to the encoder as an argument.

When process spawning is unavailable the race degrades to a sequential
portfolio: contenders run in order, without exchange, and the first
conclusive answer wins.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.spec import AttackSpec
from repro.core.verification import (
    UfdiEncoder,
    VerificationOutcome,
    VerificationResult,
)
from repro.obs.trace import get_tracer
from repro.runtime.serialize import (
    canonical_json,
    payload_to_spec,
    result_from_payload,
    result_to_payload,
    spec_to_payload,
)
from repro.smt.sat import (
    ClauseExchange,
    ScriptedExchange,
    SolverConfig,
    diversified_configs,
)

#: default size of a configuration race (``--portfolio`` / ``configs``)
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

    Accepted values: falsy (no portfolio), ``True`` or ``"configs"``
    (a configuration race of :data:`DEFAULT_CONFIG_RACE_SIZE`), or
    ``"configs:N"``.
    """
    if not value:
        return None, 0
    text = "configs" if value is True else str(value)
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
        f"unknown portfolio mode {value!r} (use 'configs' or 'configs:N')"
    )


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


class _UnprintableError(RuntimeError):
    """Test-hook exception whose ``str()`` raises (non-pickleable too)."""

    def __str__(self) -> str:  # pragma: no cover - never printable
        raise TypeError("this exception cannot be formatted")

    def __reduce__(self):  # pragma: no cover - never pickled successfully
        raise TypeError("this exception cannot be pickled")


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


def _solve_config(
    spec: AttackSpec,
    config: SolverConfig,
    epsilon: Epsilon,
    exchange: Optional[ClauseExchange] = None,
) -> Tuple[UfdiEncoder, VerificationResult]:
    """Encode and solve ``spec`` under one search configuration.

    ``exchange``, when given, is installed with the race's exchange
    tuning: the live transport in a race child, the recorded schedule
    in a replay.  The encoder is returned too, for its import log.
    """
    tracer = get_tracer()
    token = config.token()
    start = time.perf_counter()
    with tracer.span("verify.encode", backend="smt", config=token):
        encoder = UfdiEncoder(spec, epsilon=epsilon, sat_config=config)
    if exchange is not None:
        encoder.solver.set_clause_exchange(
            exchange,
            interval=EXCHANGE_INTERVAL,
            size_cap=EXCHANGE_SIZE_CAP,
            lbd_cap=EXCHANGE_LBD_CAP,
        )
    result = encoder.solve(
        span_attributes={"backend": "smt", "config": token}, start=start
    )
    return encoder, result


def _config_child(
    payload_json: str,
    config: SolverConfig,
    epsilon: Epsilon,
    index: int,
    out,
    imports,
) -> None:
    """Child process body: one diversified configuration, cooperating."""
    import json

    try:
        # deterministic-test hooks: REPRO_RACE_STALL=config:<index> parks
        # that contender, so another one wins and the parked child is
        # observed being cancelled; REPRO_RACE_CRASH=config:<index> makes
        # it raise an exception whose __str__ itself raises, the worst
        # crash shape the error path must survive.  Never set outside
        # the test suite.
        if os.environ.get("REPRO_RACE_STALL") == f"config:{index}":
            time.sleep(120.0)
        if os.environ.get("REPRO_RACE_CRASH") == f"config:{index}":
            raise _UnprintableError("portfolio crash hook")
        spec = payload_to_spec(json.loads(payload_json))
        encoder, result = _solve_config(
            spec, config, epsilon, _QueueExchange(index, out, imports)
        )
        stats = result.statistics
        meta = {
            "config": config.token(),
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
            "runtime_seconds": result.runtime_seconds,
        }
        out.put(("result", index, result_to_payload(result), None, meta))
    except BaseException as exc:  # noqa: BLE001 — report, parent decides
        try:
            out.put(("result", index, None, _format_child_error(exc), None))
        except BaseException:  # noqa: BLE001 — queue already torn down
            pass


def _mark(
    result: VerificationResult,
    size: int,
    clauses_exchanged: int,
    winner: Optional[str],
) -> VerificationResult:
    """Stamp a race's attribution onto ``result``'s statistics.

    ``winner`` is the answering configuration's token, or None for an
    inconclusive race.
    """
    stats = result.statistics = dict(result.statistics)
    stats["portfolio"] = 1
    stats["portfolio_mode"] = "configs"
    stats["portfolio_size"] = size
    stats["portfolio_clauses_exchanged"] = clauses_exchanged
    if winner is None:
        stats["portfolio_inconclusive"] = 1
    else:
        stats["portfolio_winner"] = "smt"
        stats["portfolio_winner_config"] = winner
    return result


def _sequential_config_race(
    spec: AttackSpec,
    configs: Sequence[SolverConfig],
    epsilon: Epsilon,
    capture: Optional[dict],
) -> VerificationResult:
    """One-config races, and the fallback when process spawning is
    unavailable: contenders in order, no exchange."""
    for config in configs:
        _, result = _solve_config(spec, config, epsilon)
        if result.outcome is not VerificationOutcome.UNKNOWN:
            if capture is not None:
                capture["winner_config"] = config.token()
                capture["import_log"] = []
            return _mark(result, len(configs), 0, config.token())
    return _mark(result, len(configs), 0, None)


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
    (:func:`replay_config_solo`) — imports only prune search.  Crashed
    contenders keep the race open; if none answers — or ``timeout``
    elapses — the result is UNKNOWN with backend ``"portfolio"``.

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
        return _sequential_config_race(spec, configs, epsilon, capture)

    start = time.perf_counter()
    payload_json = canonical_json(spec_to_payload(spec))
    try:
        ctx = multiprocessing.get_context()
        results_queue = ctx.Queue()
        import_queues = [ctx.Queue() for _ in configs]
        children = [
            ctx.Process(
                target=_config_child,
                args=(
                    payload_json,
                    configs[index],
                    epsilon,
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
                # bounded poll, not a blocking get: a contender that died
                # without reporting (OOM kill, unpickleable crash) must
                # not hang the race forever
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
    # a child that died without reporting is a structured error, not a hang
    for index, child in enumerate(children):
        if index not in terminated and child.exitcode not in (0, None):
            errors.setdefault(tokens[index], f"exit code {child.exitcode}")
    if capture is not None:
        capture["details"] = details
        capture["clauses_exchanged"] = clauses_exchanged
    if winner is None:
        result = _mark(
            VerificationResult(
                VerificationOutcome.UNKNOWN, None, "portfolio", elapsed
            ),
            len(configs),
            clauses_exchanged,
            None,
        )
    else:
        winner.runtime_seconds = elapsed
        result = _mark(
            winner, len(configs), clauses_exchanged, tokens[winner_index]
        )
        if capture is not None:
            capture["winner_config"] = tokens[winner_index]
            capture["import_log"] = [
                (int(count), tuple(int(q) for q in clause))
                for count, clause in (winner_meta or {}).get("import_log", [])
            ]
    result.statistics["portfolio_losers_cancelled"] = losers_cancelled
    if errors:
        result.statistics["portfolio_crashed"] = len(errors)
        result.statistics["portfolio_errors"] = dict(sorted(errors.items()))
    return result


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
    exchange = ScriptedExchange(
        (int(count), tuple(int(q) for q in clause)) for count, clause in import_log
    )
    _, result = _solve_config(spec, config, epsilon, exchange)
    return result
