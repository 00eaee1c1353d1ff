"""A CDCL SAT solver with a DPLL(T) theory hook.

Features: two-watched-literal propagation, first-UIP conflict analysis,
VSIDS-style variable activities with a lazy heap, phase saving, Luby
restarts, learned-clause database reduction, incremental solving under
assumptions, and a pluggable theory listener (used by the LRA simplex
theory in :mod:`repro.smt.theory`).

Literals are DIMACS integers (``+v`` / ``-v``); variables are 1-based.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple


class TheoryListener(Protocol):
    """What the SAT core needs from a theory solver."""

    def is_theory_var(self, var: int) -> bool:
        """True if SAT variable ``var`` denotes a theory atom."""

    def assert_lit(self, lit: int, trail_index: int) -> Optional[List[int]]:
        """Assert a theory literal; return a conflicting literal set or None.

        A conflict is a list of asserted literals that are jointly
        theory-inconsistent (the negation of their conjunction will be
        learned as a clause).
        """

    def check(self) -> Optional[List[int]]:
        """Full consistency check; same conflict convention as above."""

    def backtrack_to(self, trail_size: int) -> None:
        """Retract every assertion made at trail index >= ``trail_size``."""

    # Listeners may additionally provide
    #   propagate(value) -> (implied, conflict)
    # returning theory-entailed literals after a feasible check();
    # ``implied`` is [(lit, explanation_lits)] and ``conflict`` a
    # ready-made falsified clause (or None).  The core enqueues each
    # implied literal with reason clause [lit, -e1, -e2, ...] and counts
    # it in stats["theory_props"].  The hook is looked up dynamically,
    # so plain listeners without it keep working.


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    ``luby(i) = 2^(k-1)`` when ``i == 2^k - 1``; otherwise it recurses on
    ``i - 2^(k-1) + 1`` for the ``k`` with ``2^(k-1) <= i < 2^k - 1``.
    """
    if i < 1:
        raise ValueError("luby sequence is 1-based")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


#: restart policies a :class:`SolverConfig` may select
RESTART_POLICIES = ("luby", "geometric")


@dataclass(frozen=True)
class SolverConfig:
    """One search configuration of the CDCL core.

    The default values reproduce the historical engine byte for byte
    (Luby restarts with base 100, negative default phase, 0.95 VSIDS
    decay, index-ordered tie-breaking).  A portfolio diversifies these
    knobs — restart policy and base, default phase, decay, and a
    decision seed that perturbs initial variable activities through a
    reproducible RNG, so equal-activity ties break differently per
    configuration but identically across runs of the same config.
    """

    restart: str = "luby"  # "luby" | "geometric"
    restart_base: int = 100
    restart_growth: float = 1.5  # geometric policy only
    phase: bool = False  # default phase for fresh variables
    decay: float = 0.95  # VSIDS activity decay
    seed: Optional[int] = None  # tie-break RNG; None = index order

    def __post_init__(self) -> None:
        if self.restart not in RESTART_POLICIES:
            raise ValueError(
                f"unknown restart policy {self.restart!r}; "
                f"valid policies: {', '.join(RESTART_POLICIES)}"
            )
        if self.restart_base < 1:
            raise ValueError("restart_base must be >= 1")
        if self.restart_growth <= 1.0:
            raise ValueError("restart_growth must be > 1.0")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")

    def restart_limit(self, restart_count: int) -> int:
        """Conflicts allowed before restart number ``restart_count + 1``."""
        if self.restart == "luby":
            return luby(restart_count + 1) * self.restart_base
        return max(1, int(self.restart_base * self.restart_growth**restart_count))

    def token(self) -> str:
        """Canonical compact form, e.g. ``geometric@64x1.5/p1/d0.92/s3``."""
        head = f"{self.restart}@{self.restart_base}"
        if self.restart == "geometric":
            head += f"x{self.restart_growth:g}"
        parts = [head, f"p{int(self.phase)}", f"d{self.decay:g}"]
        if self.seed is not None:
            parts.append(f"s{self.seed}")
        return "/".join(parts)

    @classmethod
    def from_token(cls, text: str) -> "SolverConfig":
        """Parse :meth:`token` output (also accepts ``default``/empty)."""
        text = text.strip()
        if not text or text == "default":
            return cls()
        parts = text.split("/")
        head = parts[0]
        kwargs: Dict[str, object] = {}
        try:
            if "@" in head:
                name, _, rest = head.partition("@")
                if "x" in rest:
                    base, _, growth = rest.partition("x")
                    kwargs["restart_growth"] = float(growth)
                else:
                    base = rest
                kwargs["restart_base"] = int(base)
            else:
                name = head
            kwargs["restart"] = name
            for part in parts[1:]:
                if not part:
                    continue
                tag, value = part[0], part[1:]
                if tag == "p":
                    kwargs["phase"] = bool(int(value))
                elif tag == "d":
                    kwargs["decay"] = float(value)
                elif tag == "s":
                    kwargs["seed"] = int(value)
                else:
                    raise ValueError(f"unknown field {part!r}")
            return cls(**kwargs)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad solver config token {text!r}: {exc} "
                "(expected e.g. 'luby@100/p0/d0.95' or "
                "'geometric@64x1.5/p1/d0.92/s3')"
            ) from exc


#: the configurations :func:`diversified_configs` hands out first; the
#: leading entry is the production default so a portfolio of size 1
#: degenerates to the solo engine
_PORTFOLIO_SEEDS: Tuple[SolverConfig, ...] = (
    SolverConfig(),
    SolverConfig(
        restart="geometric", restart_base=64, restart_growth=1.5,
        phase=True, decay=0.92, seed=1,
    ),
    SolverConfig(restart="luby", restart_base=32, decay=0.85, seed=2),
    SolverConfig(
        restart="geometric", restart_base=128, restart_growth=1.3,
        decay=0.99, seed=3,
    ),
)


def diversified_configs(n: int) -> List[SolverConfig]:
    """``n`` deterministic, pairwise-distinct search configurations."""
    if n < 1:
        raise ValueError("need at least one configuration")
    out = list(_PORTFOLIO_SEEDS[:n])
    index = len(_PORTFOLIO_SEEDS)
    while len(out) < n:
        out.append(
            SolverConfig(
                restart="luby" if index % 2 else "geometric",
                restart_base=32 + 16 * (index % 5),
                phase=bool(index % 2),
                decay=round(0.82 + 0.04 * (index % 5), 2),
                seed=index,
            )
        )
        index += 1
    return out


class ClauseExchange(Protocol):
    """Transport for learned-clause exchange between portfolio solvers.

    ``publish`` ships clauses this solver learned (already filtered by
    the size/LBD export caps); ``poll`` returns clauses learned
    elsewhere, to be imported at decision level 0.  Both receive the
    solver's running conflict count so a recorded exchange schedule can
    be replayed deterministically (:class:`ScriptedExchange`).
    """

    def publish(self, clauses: List[Tuple[int, ...]], conflicts: int) -> None: ...

    def poll(self, conflicts: int) -> List[Tuple[int, ...]]: ...


class ScriptedExchange:
    """Replays a recorded import schedule (``SatSolver.import_log``).

    Feeding the winner's log to a solo solver of the same configuration
    reproduces its search bit for bit: imports land at the same conflict
    counts, in the same order, so every decision afterwards is
    identical.  This is the determinism contract of ``race_configs``.
    """

    def __init__(self, log: Iterable[Tuple[int, Tuple[int, ...]]]) -> None:
        self._by_count: Dict[int, List[Tuple[int, ...]]] = {}
        for conflicts, clause in log:
            self._by_count.setdefault(int(conflicts), []).append(tuple(clause))

    def publish(self, clauses: List[Tuple[int, ...]], conflicts: int) -> None:
        pass  # exports do not influence the local search

    def poll(self, conflicts: int) -> List[Tuple[int, ...]]:
        return self._by_count.pop(conflicts, [])


class SatSolver:
    """CDCL solver; see module docstring."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config if config is not None else SolverConfig()
        #: decision-seed RNG: perturbs fresh-variable activities by a
        #: tiny reproducible amount so equal-activity ties break in a
        #: config-specific (but deterministic) order
        self._rng = (
            random.Random(self.config.seed)
            if self.config.seed is not None
            else None
        )
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        self.learnts: List[List[int]] = []
        # watch lists in a flat array indexed by 2*var + (literal < 0):
        # _bcp is the hot path and literal-keyed dict lookups cost a
        # hash per visit; entries 0/1 pad for the unused variable 0
        self.watches: List[List[List[int]]] = [[], []]
        # per-variable state (index 0 unused)
        self.assign: List[int] = [0]  # 0 unassigned, +1 true, -1 false
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.saved_phase: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.ok = True
        self.theory: Optional[TheoryListener] = None
        self.theory_qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / self.config.decay
        self._heap: List[tuple[float, int]] = []
        self.default_phase = self.config.phase
        # learned-clause exchange (portfolio cooperation); disabled
        # unless set_exchange() installs a transport
        self.exchange: Optional[ClauseExchange] = None
        self.exchange_interval = 64
        self.export_size_cap = 8
        self.export_lbd_cap = 6
        self._export_pending: List[Tuple[int, ...]] = []
        self._next_exchange = 0
        self._last_lbd = 0
        #: every imported clause with the conflict count it arrived at —
        #: replaying this log through ScriptedExchange reproduces the
        #: search bit for bit (the race_configs determinism contract)
        self.import_log: List[Tuple[int, Tuple[int, ...]]] = []
        # statistics
        self.stats = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "theory_conflicts": 0,
            "theory_props": 0,
            "learned_literals": 0,
            "solves": 0,
            "clauses_exported": 0,
            "clauses_imported": 0,
        }
        #: when True, wall time is attributed per search phase into
        #: :attr:`phase_time` (off by default: perf_counter per phase
        #: call is measurable on the hot path)
        self.profile = False
        self.phase_time = {"bcp": 0.0, "theory": 0.0, "decide": 0.0, "analyze": 0.0}
        self.conflict_budget: Optional[int] = None
        #: After an UNSAT :meth:`solve` under assumptions: the subset of
        #: assumption literals the refutation actually used (the *failed
        #: assumption core*).  None after SAT/UNKNOWN; [] when the
        #: formula is UNSAT independently of any assumption.
        self.core: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # variables and clauses
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        var = self.num_vars
        self.watches.append([])
        self.watches.append([])
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        # the perturbation is far below any VSIDS bump, so it only
        # decides ties between otherwise equal-activity variables
        activity = self._rng.random() * 1e-6 if self._rng is not None else 0.0
        self.activity.append(activity)
        self.saved_phase.append(self.default_phase)
        heapq.heappush(self._heap, (-activity, var))  # _heap_push, inlined
        return var

    def ensure_vars(self, count: int) -> None:
        while self.num_vars < count:
            self.new_var()

    def value(self, lit: int) -> int:
        val = self.assign[abs(lit)]
        return val if lit > 0 else -val

    def decision_level(self) -> int:
        return len(self.trail_lim)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause (must be called at decision level 0).

        Returns False if the clause makes the instance trivially UNSAT.
        """
        if not self.ok:
            return False
        assert not self.trail_lim, "clauses must be added at level 0"
        # every encoded clause passes through here, so ensure_vars(),
        # value() and the watch index are inlined
        assign = self.assign
        num_vars = self.num_vars
        seen = set()
        out: List[int] = []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var > num_vars:
                self.ensure_vars(var)
                num_vars = var
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = assign[var]
            if val:
                if (val > 0) == (lit > 0):
                    return True  # already satisfied at level 0
                continue  # falsified at level 0; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            return True
        # store an exact-size copy: `out` grew by appends and carries
        # spare capacity, which adds up over ~10^5 clauses on large grids
        stored = list(out)
        self.clauses.append(stored)
        first, second = stored[0], stored[1]
        watches = self.watches
        watches[(first << 1 | 1) if first > 0 else (-first << 1)].append(stored)
        watches[(second << 1 | 1) if second > 0 else (-second << 1)].append(stored)
        return True

    def _watch_index(self, lit: int) -> int:
        return ((lit << 1) if lit > 0 else (-lit << 1)) | (lit < 0)

    def _watch(self, clause: List[int]) -> None:
        self.watches[self._watch_index(-clause[0])].append(clause)
        self.watches[self._watch_index(-clause[1])].append(clause)

    # ------------------------------------------------------------------
    # trail operations
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        value = 1 if lit > 0 else -1
        self.assign[var] = value
        self.level[var] = self.decision_level()
        self.reason[var] = reason
        self.trail.append(lit)

    def cancel_until(self, target_level: int) -> None:
        if self.decision_level() <= target_level:
            return
        bound = self.trail_lim[target_level]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            var = abs(lit)
            self.saved_phase[var] = lit > 0
            self.assign[var] = 0
            self.reason[var] = None
            self._heap_push(var)
        del self.trail[bound:]
        del self.trail_lim[target_level:]
        self.qhead = bound
        if self.theory is not None and self.theory_qhead > bound:
            self.theory.backtrack_to(bound)
            self.theory_qhead = bound

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------
    def _heap_push(self, var: int) -> None:
        heapq.heappush(self._heap, (-self.activity[var], var))

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            scale = 1e-100
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= scale
            self.var_inc *= scale
        self._heap_push(var)

    def _decay(self) -> None:
        self.var_inc *= self.var_decay

    def _pick_branch_var(self) -> Optional[int]:
        while self._heap:
            neg_act, var = heapq.heappop(self._heap)
            if self.assign[var] == 0 and -neg_act == self.activity[var]:
                return var
        # heap exhausted: linear scan (rare; repopulates nothing)
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0:
                return var
        return None

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _bcp(self) -> Optional[List[int]]:
        """Unit propagation; returns a falsified clause on conflict."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.stats["propagations"] += 1
            watchlist = self.watches[
                ((lit << 1) if lit > 0 else (-lit << 1)) | (lit < 0)
            ]
            if not watchlist:
                continue
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                neg = -lit
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.assign[abs(first)] == (1 if first > 0 else -1):
                    watchlist[j] = clause
                    j += 1
                    continue
                found = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if self.value(other) != -1:
                        clause[1], clause[k] = other, neg
                        # watch index of -other, inlined
                        self.watches[
                            ((-other << 1) if other < 0 else (other << 1)) | (other > 0)
                        ].append(clause)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                watchlist[j] = clause
                j += 1
                if self.value(first) == -1:
                    # conflict: keep remaining watches in place
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    return clause
                self._enqueue(first, clause)
            del watchlist[j:]
        return None

    def _theory_propagate(self) -> Optional[List[int]]:
        """Feed newly assigned theory literals to the theory and check.

        After a feasible check, asks the theory for entailed literals
        (see the ``propagate`` hook on :class:`TheoryListener`) and
        enqueues them with their explanations as reasons.

        Returns a *conflict clause* (list of literals, all currently
        false) or None.
        """
        theory = self.theory
        if theory is None:
            return None
        while self.theory_qhead < len(self.trail):
            lit = self.trail[self.theory_qhead]
            if theory.is_theory_var(abs(lit)):
                conflict = theory.assert_lit(lit, self.theory_qhead)
                if conflict is not None:
                    self.theory_qhead += 1
                    self.stats["theory_conflicts"] += 1
                    return [-l for l in conflict]
            self.theory_qhead += 1
        conflict = theory.check()
        if conflict is not None:
            self.stats["theory_conflicts"] += 1
            return [-l for l in conflict]
        propagate = getattr(theory, "propagate", None)
        if propagate is not None:
            implied, confl = propagate(self.value)
            if confl is not None:
                self.stats["theory_conflicts"] += 1
                return confl
            for lit, expl in implied:
                val = self.value(lit)
                if val == 1:
                    continue
                reason = [lit]
                reason.extend(-e for e in expl)
                if val == -1:
                    self.stats["theory_conflicts"] += 1
                    return reason
                self._enqueue(lit, reason)
                self.stats["theory_props"] += 1
        return None

    def _propagate_all(self) -> Optional[List[int]]:
        """BCP and theory propagation to fixpoint.

        Theory-entailed literals land on the trail, so BCP and the
        theory alternate until neither adds anything (or one conflicts).
        """
        if self.profile:
            return self._propagate_all_profiled()
        while True:
            confl = self._bcp()
            if confl is not None:
                return confl
            confl = self._theory_propagate()
            if confl is not None:
                return confl
            if self.qhead >= len(self.trail):
                return None

    def _propagate_all_profiled(self) -> Optional[List[int]]:
        phase_time = self.phase_time
        while True:
            start = perf_counter()
            confl = self._bcp()
            phase_time["bcp"] += perf_counter() - start
            if confl is not None:
                return confl
            start = perf_counter()
            confl = self._theory_propagate()
            phase_time["theory"] += perf_counter() - start
            if confl is not None:
                return confl
            if self.qhead >= len(self.trail):
                return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: List[int]) -> tuple[Optional[List[int]], int]:
        """Return (learnt clause with asserting literal first, backjump level).

        Returns (None, 0) when the conflict proves UNSAT (level 0).
        """
        # A theory conflict may only involve literals below the current
        # decision level; in that case first backtrack to the highest
        # level mentioned so the invariant of 1-UIP analysis holds.
        conflict_level = max((self.level[abs(q)] for q in conflict), default=0)
        if conflict_level == 0:
            return None, 0
        if conflict_level < self.decision_level():
            self.cancel_until(conflict_level)

        current = self.decision_level()
        learnt: List[int] = [0]
        seen = [False] * (self.num_vars + 1)
        path_count = 0
        p = 0
        index = len(self.trail) - 1
        confl = conflict
        while True:
            start = 0 if p == 0 else 1
            for k in range(start, len(confl)):
                q = confl[k]
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current:
                        path_count += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p_lit = self.trail[index]
            var = abs(p_lit)
            index -= 1
            path_count -= 1
            if path_count == 0:
                learnt[0] = -p_lit
                break
            confl = self.reason[var]
            assert confl is not None, "non-decision literal must have a reason"
            p = p_lit
        # conflict-clause minimization: drop literals implied by the rest
        marked = {abs(q) for q in learnt}
        out = [learnt[0]]
        for q in learnt[1:]:
            reason = self.reason[abs(q)]
            if reason is None or not all(
                abs(r) in marked or self.level[abs(r)] == 0 for r in reason[1:]
            ):
                out.append(q)
        learnt = out
        if len(learnt) == 1:
            backjump = 0
        else:
            # move the highest-level remaining literal to position 1
            best = 1
            for k in range(2, len(learnt)):
                if self.level[abs(learnt[k])] > self.level[abs(learnt[best])]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            backjump = self.level[abs(learnt[1])]
        self.stats["learned_literals"] += len(learnt)
        if self.exchange is not None:
            # LBD (glue): distinct decision levels in the learnt clause,
            # computed here while the pre-backjump levels are still valid
            self._last_lbd = len({self.level[abs(q)] for q in learnt})
        return learnt, backjump

    def _record_learnt(self, learnt: List[int]) -> None:
        if self.exchange is not None:
            size = len(learnt)
            if size <= self.export_size_cap and (
                size == 1 or self._last_lbd <= self.export_lbd_cap
            ):
                self._export_pending.append(tuple(learnt))
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            stored = list(learnt)  # exact-size copy, as in add_clause
            self.learnts.append(stored)
            self._watch(stored)
            self._enqueue(learnt[0], stored)

    def _reduce_db(self) -> None:
        """Drop the longer half of non-reason learned clauses."""
        locked = {
            id(self.reason[abs(l)])
            for l in self.trail
            if self.reason[abs(l)] is not None
        }
        self.learnts.sort(key=len)
        keep = len(self.learnts) // 2
        removed = []
        kept = self.learnts[:keep]
        for clause in self.learnts[keep:]:
            if id(clause) in locked or len(clause) <= 2:
                kept.append(clause)
            else:
                removed.append(clause)
        if not removed:
            return
        dead = {id(c) for c in removed}
        self.learnts = kept
        for watchlist in self.watches:
            watchlist[:] = [c for c in watchlist if id(c) not in dead]

    # ------------------------------------------------------------------
    # learned-clause exchange (cooperative portfolio)
    # ------------------------------------------------------------------
    def set_exchange(
        self,
        exchange: Optional[ClauseExchange],
        interval: int = 64,
        size_cap: int = 8,
        lbd_cap: int = 6,
    ) -> None:
        """Install (or remove) a clause-exchange transport.

        Every ``interval`` conflicts the solver publishes learnt clauses
        that passed the ``size_cap``/``lbd_cap`` export filter and
        imports foreign clauses at decision level 0.  Imported clauses
        are recorded in :attr:`import_log` with the conflict count they
        arrived at, so the search is reproducible via
        :class:`ScriptedExchange`.
        """
        self.exchange = exchange
        self.exchange_interval = max(1, interval)
        self.export_size_cap = size_cap
        self.export_lbd_cap = lbd_cap
        self._export_pending = []

    def _exchange_point(self, conflicts: int) -> None:
        """Publish pending exports and import foreign clauses (level 0)."""
        exchange = self.exchange
        assert exchange is not None
        if self._export_pending:
            exchange.publish(self._export_pending, conflicts)
            self.stats["clauses_exported"] += len(self._export_pending)
            self._export_pending = []
        imports = exchange.poll(conflicts)
        if not imports:
            return
        self.cancel_until(0)
        for lits in imports:
            clause = tuple(int(q) for q in lits)
            self.import_log.append((conflicts, clause))
            self._import_clause(clause)
            self.stats["clauses_imported"] += 1

    def _import_clause(self, lits: Tuple[int, ...]) -> None:
        """Attach one foreign learnt clause at decision level 0.

        Mirrors :meth:`add_clause` filtering (tautology, satisfied,
        false-literal stripping) but lands the clause in the learnt DB.
        Imported clauses are implied by the shared formula, so they can
        only prune the search, never change the verdict.
        """
        assert self.decision_level() == 0
        seen = set()
        out: List[int] = []
        for lit in lits:
            var = abs(lit)
            if var > self.num_vars:
                return  # foreign variable: not our instance, drop
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            val = self.value(lit)
            if val == 1:
                return  # satisfied at level 0
            if val == -1:
                continue  # false at level 0: strip
            seen.add(lit)
            out.append(lit)
        if not out:
            # an implied clause false at level 0: the formula is UNSAT
            self.ok = False
            return
        if len(out) == 1:
            self._enqueue(out[0], None)
            return
        self.learnts.append(out)
        self._watch(out)

    def _final_core(self, failing_lit: int) -> List[int]:
        """Final-conflict analysis (MiniSat's ``analyzeFinal``).

        ``failing_lit`` is an assumption found false on the current
        trail.  Walking the implication graph backwards from it collects
        every *decision* literal the refutation rests on; because this
        is only called while the trail holds assumption pseudo-decisions
        (no search decisions yet at that depth), those are exactly the
        failed assumptions.  The returned literals are a subset ``A'``
        of the assumptions with ``formula /\\ A'`` UNSAT.
        """
        core = [failing_lit]
        seen = {abs(failing_lit)}
        for i in range(len(self.trail) - 1, -1, -1):
            lit = self.trail[i]
            var = abs(lit)
            if var not in seen:
                continue
            seen.discard(var)
            reason = self.reason[var]
            if reason is None:
                if self.level[var] > 0:
                    core.append(lit)
            else:
                for q in reason[1:]:
                    if self.level[abs(q)] > 0:
                        seen.add(abs(q))
        return core

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> Optional[bool]:
        """Solve under assumptions.

        Returns True (SAT; model available via :attr:`assign`), False
        (UNSAT under these assumptions), or None if the conflict budget
        was exhausted.  The trail is left intact on SAT so that callers
        can read the model and theory state; call :meth:`cancel_until`
        (or solve again) afterwards.  After an UNSAT answer,
        :attr:`core` holds the failed-assumption core.  Learned clauses
        persist across calls, so repeated solves over the same formula
        under different assumptions start warm.
        """
        self.stats["solves"] += 1
        self.core = None
        if not self.ok:
            self.core = []
            return False
        self.cancel_until(0)
        assumptions = list(assumptions)
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        restart_count = 0
        conflicts_until_restart = self.config.restart_limit(0)
        conflicts_in_round = 0
        max_learnts = max(2000, len(self.clauses) // 2)
        total_conflicts = 0
        self.import_log = []
        self._export_pending = []
        self._next_exchange = self.exchange_interval

        while True:
            conflict = self._propagate_all()
            if conflict is not None:
                self.stats["conflicts"] += 1
                total_conflicts += 1
                conflicts_in_round += 1
                if self.decision_level() == 0:
                    self.ok = False
                    self.core = []
                    return False
                if self.profile:
                    start = perf_counter()
                    learnt, backjump = self._analyze(conflict)
                    self.phase_time["analyze"] += perf_counter() - start
                else:
                    learnt, backjump = self._analyze(conflict)
                if learnt is None:
                    self.ok = False
                    self.core = []
                    return False
                self.cancel_until(backjump)
                self._record_learnt(learnt)
                self._decay()
                if (
                    self.conflict_budget is not None
                    and total_conflicts >= self.conflict_budget
                ):
                    self.cancel_until(0)
                    return None
                if (
                    self.exchange is not None
                    and total_conflicts >= self._next_exchange
                ):
                    self._next_exchange += self.exchange_interval
                    self._exchange_point(total_conflicts)
                    if not self.ok:
                        # an imported (implied) clause was empty after
                        # level-0 stripping: UNSAT outright
                        self.core = []
                        return False
                continue

            if conflicts_in_round >= conflicts_until_restart:
                restart_count += 1
                self.stats["restarts"] += 1
                conflicts_in_round = 0
                conflicts_until_restart = self.config.restart_limit(restart_count)
                self.cancel_until(0)
                continue

            if len(self.learnts) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.3)

            # assumptions come first, as pseudo-decisions
            if self.decision_level() < len(assumptions):
                lit = assumptions[self.decision_level()]
                val = self.value(lit)
                if val == 1:
                    self.trail_lim.append(len(self.trail))
                    continue
                if val == -1:
                    # conflicting assumption: UNSAT under assumptions;
                    # trace the implication of ``-lit`` back to the
                    # assumptions responsible before unwinding the trail
                    self.core = self._final_core(lit)
                    self.cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                continue

            if self.profile:
                start = perf_counter()
                var = self._pick_branch_var()
                self.phase_time["decide"] += perf_counter() - start
            else:
                var = self._pick_branch_var()
            if var is None:
                return True  # full assignment, theory-consistent
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            lit = var if self.saved_phase[var] else -var
            self._enqueue(lit, None)
