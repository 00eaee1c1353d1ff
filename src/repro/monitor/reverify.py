"""Bridge from live triggers to targeted formal verification.

When a detector fires, the monitor stops trusting statistics and asks
the paper's exact model two standing questions:

1. **Stealthy-attack consistency** — is the observed state drift
   producible by an undetectable FDI attack on the drifted buses, and
   how cheap is the cheapest such attack?  (:func:`verify_attack` for
   the verdict + witness, :func:`minimum_attack_cost` for the cost.)
2. **Vulnerability shift** — after a topology change, did the minimum
   attack cost of the new in-service grid drop below the configured
   threshold?  (Chu/Zhang/Kosut/Sankar, arXiv:1903.07781: outages can
   make previously expensive attacks cheap.)

Each local cost search is one :func:`minimum_attack_cost` call: its
probes are assumption flips on one warm session, so a 6-probe binary
search costs one encode.  When the monitor is pointed at a running
service (``client``), probes are submitted as high-priority jobs
instead.  Only a service started with ``repro serve --sessions``
answers them on one warm encoding (its ``/statsz`` session counters
show the reuse); a default service encodes each probe cold, and its
result cache answers repeats.

Verdicts attached to incidents are deterministic: outcomes, witnesses,
costs, probe counts — never wall-clock times — so replayed scenarios
produce identical incident lists.

When the cheapest attack is at or below the threshold, the bridge also
synthesizes the countermeasure (:func:`synthesize_architecture`) whose
secured buses make the observed attack pattern infeasible; the result
matches an equivalent batch ``repro synthesize`` call bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.mincost import attack_cost, minimum_attack_cost, search_min_cost
from repro.core.spec import AttackGoal, AttackSpec
from repro.core.synthesis import SynthesisSettings, synthesize_architecture
from repro.core.verification import (
    VerificationOutcome,
    VerificationResult,
    verify_attack,
)
from repro.grid.model import Grid
from repro.obs.trace import get_tracer
from repro.runtime.serialize import attack_to_payload, result_from_payload

if TYPE_CHECKING:
    from repro.service.client import ServiceClient


@dataclass
class ReverifyConfig:
    """Knobs for the bridge.

    ``cost_threshold``   — a minimum attack cost (compromised meters or
                           buses) at or below this is an operational
                           vulnerability: the verdict escalates and a
                           countermeasure is synthesized
    ``synthesis_budget`` — max secured buses for the countermeasure
    ``dimension``        — cost dimension: ``measurements`` (T_CZ) or
                           ``buses`` (T_CB)
    ``job_priority``     — priority for service-submitted probes;
                           smaller runs sooner, so the default preempts
                           interactive/background traffic
    """

    cost_threshold: int = 8
    synthesis_budget: int = 2
    dimension: str = "measurements"
    job_priority: int = -10
    job_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.dimension not in ("measurements", "buses"):
            raise ValueError("dimension must be 'measurements' or 'buses'")
        if self.cost_threshold < 0:
            raise ValueError("cost_threshold must be nonnegative")
        if self.synthesis_budget < 0:
            raise ValueError("synthesis_budget must be nonnegative")


class ReverificationBridge:
    """Targeted verification/min-cost/synthesis for one monitored grid."""

    def __init__(
        self,
        grid: Grid,
        reference_bus: int = 1,
        config: Optional[ReverifyConfig] = None,
        client: "Optional[ServiceClient]" = None,
    ) -> None:
        self.grid = grid
        self.reference_bus = reference_bus
        self.config = config or ReverifyConfig()
        self.client = client
        self.counters: Dict[str, int] = {
            "stealthy_checks": 0,
            "topology_checks": 0,
            "verifications": 0,
            "mincost_probes": 0,
            "syntheses": 0,
        }
        self._all_lines = tuple(range(1, grid.num_lines + 1))

    # ------------------------------------------------------------------
    def spec_for(
        self, mapped_lines: Sequence[int], goal: AttackGoal
    ) -> AttackSpec:
        """The attack spec of the currently in-service topology.

        The full topology uses the grid as-is; after an outage the grid
        is restricted (lines renumbered 1..k), which is exactly the
        spec an operator would hand to a batch ``repro verify`` for the
        post-outage system.
        """
        mapped = tuple(sorted(mapped_lines))
        if mapped == self._all_lines:
            grid = self.grid
        else:
            grid = self.grid.restrict(mapped)
        return AttackSpec.default(grid, goal=goal, reference_bus=self.reference_bus)

    # ------------------------------------------------------------------
    def _verify(self, spec: AttackSpec) -> Dict[str, Any]:
        """One verdict: outcome + witness, identical to a batch verify."""
        self.counters["verifications"] += 1
        if self.client is not None:
            job = self.client.verify(
                spec=spec,
                priority=self.config.job_priority,
                timeout=self.config.job_timeout,
            )
            result = job.get("result") or {}
            return {
                "outcome": result.get("outcome", "unknown"),
                "attack": result.get("attack"),
                "backend": result.get("backend", "smt"),
            }
        result = verify_attack(spec)
        return {
            "outcome": result.outcome.value,
            "attack": attack_to_payload(result.attack),
            "backend": result.backend,
        }

    def _min_cost(self, spec: AttackSpec) -> Tuple[Optional[int], int]:
        """``(cost, probes)`` for the cheapest attack reaching the goal."""
        if self.client is not None:
            return self._min_cost_remote(spec)
        result = minimum_attack_cost(spec, dimension=self.config.dimension)
        self.counters["mincost_probes"] += result.probes
        return result.cost, result.probes

    def _min_cost_remote(self, spec: AttackSpec) -> Tuple[Optional[int], int]:
        """:func:`search_min_cost` with every probe a service job.

        The probe sequence is the local one, so an incident's
        ``probes`` does not depend on where the monitor runs; each
        probe travels as a high-priority verify job.  A service run
        with ``--sessions`` answers the whole family on one warm
        encoding; without it, every probe is a cold encode.
        """
        probes = 0

        def probe(budget: Optional[int]) -> VerificationResult:
            nonlocal probes
            probes += 1
            self.counters["mincost_probes"] += 1
            if self.config.dimension == "measurements":
                limits = dataclasses.replace(spec.limits, max_measurements=budget)
            else:
                limits = dataclasses.replace(spec.limits, max_buses=budget)
            job = self.client.verify(
                spec=spec.with_limits(limits),
                priority=self.config.job_priority,
                timeout=self.config.job_timeout,
            )
            payload = job.get("result")
            if not payload:  # failed or expired job: no verdict
                return VerificationResult(
                    VerificationOutcome.UNKNOWN, None, "smt", 0.0
                )
            return result_from_payload(payload)

        cost, _ = search_min_cost(
            probe, lambda attack: attack_cost(attack, self.config.dimension, spec)
        )
        return cost, probes

    def _synthesize(self, spec: AttackSpec) -> Dict[str, Any]:
        """The countermeasure: secured buses defeating the spec's goal."""
        self.counters["syntheses"] += 1
        budget = self.config.synthesis_budget
        if self.client is not None:
            job = self.client.synthesize(
                spec=spec,
                budget=budget,
                priority=self.config.job_priority,
                timeout=self.config.job_timeout,
            )
            result = job.get("result") or {}
            return {
                "feasible": bool(result.get("feasible")),
                "secured_buses": result.get("architecture"),
                "iterations": result.get("iterations"),
                "budget": budget,
            }
        result = synthesize_architecture(
            spec, SynthesisSettings(max_secured_buses=budget)
        )
        return {
            "feasible": result.feasible,
            "secured_buses": result.architecture,
            "iterations": result.iterations,
            "budget": budget,
        }

    # ------------------------------------------------------------------
    def check_stealthy(
        self, mapped_lines: Sequence[int], suspected_buses: Sequence[int]
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """Is the live drift consistent with an undetectable attack?

        Returns ``(verification, countermeasure)``: the verification
        verdict (outcome, witness, min cost vs. threshold) and — when
        the cheapest attack is at or below the threshold — the
        synthesized countermeasure.
        """
        suspects = sorted(
            bus for bus in set(suspected_buses) if bus != self.reference_bus
        )
        if not suspects:
            raise ValueError("no non-reference suspected buses to check")
        self.counters["stealthy_checks"] += 1
        with get_tracer().span(
            "monitor.reverify",
            check="stealthy",
            suspects=suspects,
            remote=self.client is not None,
        ) as span:
            spec = self.spec_for(mapped_lines, AttackGoal.states(*suspects))
            verification = self._verify(spec)
            verification.update(
                {
                    "check": "stealthy",
                    "suspected_buses": suspects,
                    "dimension": self.config.dimension,
                    "cost_threshold": self.config.cost_threshold,
                    "min_cost": None,
                    "probes": 0,
                }
            )
            countermeasure: Optional[Dict[str, Any]] = None
            if verification["outcome"] == "sat":
                cost, probes = self._min_cost(spec)
                verification["min_cost"] = cost
                verification["probes"] = probes
                if cost is not None and cost <= self.config.cost_threshold:
                    countermeasure = self._synthesize(spec)
            span.set(
                outcome=verification["outcome"],
                min_cost=verification["min_cost"],
                countermeasure=countermeasure is not None
                and bool(countermeasure.get("feasible")),
            )
        return verification, countermeasure

    def check_topology_shift(
        self,
        mapped_lines: Sequence[int],
        baseline_cost: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Min attack cost of the post-change topology vs. the threshold.

        The goal is *any* state corruption — the standing "is this grid
        attackable at all, and how cheaply" question — so the answer
        tracks the grid's overall exposure, not one suspect.
        """
        self.counters["topology_checks"] += 1
        with get_tracer().span(
            "monitor.reverify",
            check="topology_shift",
            remote=self.client is not None,
        ) as span:
            spec = self.spec_for(mapped_lines, AttackGoal.any())
            cost, probes = self._min_cost(spec)
            breached = cost is not None and cost <= self.config.cost_threshold
            verification = {
                "check": "topology_shift",
                "outcome": "sat" if cost is not None else "unsat",
                "dimension": self.config.dimension,
                "min_cost": cost,
                "baseline_cost": baseline_cost,
                "cost_threshold": self.config.cost_threshold,
                "threshold_breached": breached,
                "cost_dropped": (
                    baseline_cost is not None
                    and cost is not None
                    and cost < baseline_cost
                ),
                "probes": probes,
                "in_service_lines": sorted(mapped_lines),
            }
            span.set(min_cost=cost, threshold_breached=breached)
        return verification

    def baseline_cost(self) -> Optional[int]:
        """Min attack cost of the full topology (monitor-start anchor)."""
        spec = self.spec_for(self._all_lines, AttackGoal.any())
        cost, _ = self._min_cost(spec)
        return cost

    def snapshot(self) -> Dict[str, Any]:
        return {
            **self.counters,
            "cost_threshold": self.config.cost_threshold,
            "synthesis_budget": self.config.synthesis_budget,
            "dimension": self.config.dimension,
            "remote": self.client is not None,
        }
