"""Canonical, picklable payloads for specs, results and attacks.

The parallel runtime ships work to worker processes and keys the result
cache on problem identity, so it needs a representation of
:class:`~repro.core.spec.AttackSpec` that is

* **compact** — a spec holds a :class:`~repro.grid.model.Grid` with
  adjacency indexes and a measurement plan of sets; the payload is plain
  lists/dicts of numbers,
* **picklable / JSON-able** — safe to cross a process boundary under
  either the ``fork`` or ``spawn`` start method and to persist on disk,
* **canonical** — two equal specs produce byte-identical payload JSON,
  so a stable hash of the payload identifies the verification problem.
  Line admittances travel as the exact ``p/q`` string of their
  ``Fraction`` (``"400/23"``), so every process solves with the same
  coefficients; the operating-point floats round-trip exactly through
  ``repr``, which is what :func:`json.dumps` writes.

``spec_fingerprint`` is the cache key: a SHA-256 over the canonical
JSON plus every solver-facing discriminator (backend, epsilon, ...).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackGoal, AttackSpec, LineAttributes, ResourceLimits
from repro.core.verification import (
    VerificationOutcome,
    VerificationResult,
)
from repro.estimation.measurement import MeasurementPlan
from repro.grid.model import Grid, Line
from repro.smt.solver import engine_signature

PAYLOAD_FORMAT = 1

_DEFAULT_ATTRS = LineAttributes()


def spec_to_payload(spec: AttackSpec) -> Dict[str, Any]:
    """Flatten a spec into a canonical JSON-able dict."""
    line_attrs = {}
    for index in sorted(spec.line_attrs):
        a = spec.line_attrs[index]
        if a == _DEFAULT_ATTRS:
            continue
        line_attrs[str(index)] = [
            int(a.knows_admittance),
            int(a.in_true_topology),
            int(a.fixed),
            int(a.status_secured),
        ]
    plan = spec.plan
    payload: Dict[str, Any] = {
        "format": PAYLOAD_FORMAT,
        "name": spec.grid.name,
        "num_buses": spec.grid.num_buses,
        "lines": [
            [line.index, line.from_bus, line.to_bus, str(line.admittance)]
            for line in spec.grid.lines
        ],
        "line_attrs": line_attrs,
        "taken": sorted(plan.taken),
        "secured": sorted(plan.secured),
        "inaccessible": sorted(plan.inaccessible),
        "goal": {
            "targets": sorted(spec.goal.target_states),
            "exclusive": bool(spec.goal.exclusive),
            "distinct": [list(pair) for pair in spec.goal.distinct_pairs],
            "any_state": bool(spec.goal.any_state),
        },
        "limits": [spec.limits.max_measurements, spec.limits.max_buses],
        "reference_bus": spec.reference_bus,
        "allow_topology_attack": bool(spec.allow_topology_attack),
        "strict_knowledge": bool(spec.strict_knowledge),
        "base_flows": (
            None
            if spec.base_flows is None
            else [[i, spec.base_flows[i]] for i in sorted(spec.base_flows)]
        ),
        "base_angles": (
            None
            if spec.base_angles is None
            else [[j, spec.base_angles[j]] for j in sorted(spec.base_angles)]
        ),
    }
    return payload


def payload_to_spec(payload: Dict[str, Any]) -> AttackSpec:
    """Rebuild the spec a payload came from (exact round-trip)."""
    if payload.get("format") != PAYLOAD_FORMAT:
        raise ValueError(f"unsupported spec payload format {payload.get('format')!r}")
    # admittance: a "p/q" string, or a number from an older payload
    lines = [Line(int(i), int(f), int(t), y) for i, f, t, y in payload["lines"]]
    grid = Grid(int(payload["num_buses"]), lines, name=payload.get("name", ""))
    line_attrs = {
        int(index): LineAttributes(*(bool(flag) for flag in flags))
        for index, flags in payload["line_attrs"].items()
    }
    plan = MeasurementPlan(
        grid,
        taken=set(payload["taken"]),
        secured=set(payload["secured"]),
        inaccessible=set(payload["inaccessible"]),
    )
    goal = AttackGoal(
        target_states=frozenset(payload["goal"]["targets"]),
        exclusive=payload["goal"]["exclusive"],
        distinct_pairs=tuple(tuple(pair) for pair in payload["goal"]["distinct"]),
        any_state=payload["goal"]["any_state"],
    )
    max_measurements, max_buses = payload["limits"]
    return AttackSpec(
        grid=grid,
        plan=plan,
        line_attrs=line_attrs,
        goal=goal,
        limits=ResourceLimits(max_measurements=max_measurements, max_buses=max_buses),
        reference_bus=int(payload["reference_bus"]),
        allow_topology_attack=payload["allow_topology_attack"],
        strict_knowledge=payload["strict_knowledge"],
        base_flows=(
            None
            if payload["base_flows"] is None
            else {int(i): float(v) for i, v in payload["base_flows"]}
        ),
        base_angles=(
            None
            if payload["base_angles"] is None
            else {int(j): float(v) for j, v in payload["base_angles"]}
        ),
    )


def canonical_json(payload: Dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_fingerprint(
    spec: AttackSpec,
    backend: str = "smt",
    epsilon: Optional[Fraction] = None,
    extra: Tuple[str, ...] = (),
) -> str:
    """Stable hash identifying one verification problem instance.

    The grid's display name is excluded — renaming a system does not
    change the problem — while everything the solver sees (including the
    backend and any non-default epsilon) is included.  The solver's
    :func:`~repro.smt.solver.engine_signature` is part of the material:
    models and stats schemas may legitimately change across kernel
    versions, so disk-cache entries written by an older engine miss
    instead of being silently reused.
    """
    payload = spec_to_payload(spec)
    payload.pop("name", None)
    material = canonical_json(payload) + "\x00" + backend
    material += "\x00engine=" + engine_signature()
    if epsilon is not None:
        material += "\x00eps=" + str(epsilon)
    for item in extra:
        material += "\x00" + item
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def family_spec(spec: AttackSpec) -> AttackSpec:
    """The representative of a spec's *session family*.

    A :class:`~repro.core.verification.VerificationSession` answers any
    spec that differs from its base only in resource limits and in the
    goal's target/any/exclusive fields, so the family representative is
    the spec with limits cleared and the goal reduced to its (statically
    encoded) pairwise-distinct requirements.
    """
    return spec.with_limits(ResourceLimits()).with_goal(
        AttackGoal(distinct_pairs=spec.goal.distinct_pairs)
    )


def family_fingerprint(spec: AttackSpec, epsilon: Optional[Fraction] = None) -> str:
    """Stable hash of a spec's session family (the warm-session key)."""
    return spec_fingerprint(family_spec(spec), backend="session", epsilon=epsilon)


# ----------------------------------------------------------------------
# results and attack vectors
# ----------------------------------------------------------------------
def attack_to_payload(attack: Optional[AttackVector]) -> Optional[Dict[str, Any]]:
    if attack is None:
        return None
    return {
        "measurement_deltas": {
            str(k): v for k, v in sorted(attack.measurement_deltas.items())
        },
        "state_deltas": {str(k): v for k, v in sorted(attack.state_deltas.items())},
        "excluded_lines": sorted(attack.excluded_lines),
        "included_lines": sorted(attack.included_lines),
    }


def attack_from_payload(payload: Optional[Dict[str, Any]]) -> Optional[AttackVector]:
    if payload is None:
        return None
    return AttackVector(
        measurement_deltas={
            int(k): float(v) for k, v in payload["measurement_deltas"].items()
        },
        state_deltas={int(k): float(v) for k, v in payload["state_deltas"].items()},
        excluded_lines=frozenset(payload["excluded_lines"]),
        included_lines=frozenset(payload["included_lines"]),
    )


def result_to_payload(result: VerificationResult) -> Dict[str, Any]:
    return {
        "outcome": result.outcome.value,
        "attack": attack_to_payload(result.attack),
        "backend": result.backend,
        "runtime_seconds": result.runtime_seconds,
        "statistics": dict(result.statistics),
    }


def result_from_payload(payload: Dict[str, Any]) -> VerificationResult:
    return VerificationResult(
        outcome=VerificationOutcome(payload["outcome"]),
        attack=attack_from_payload(payload["attack"]),
        backend=payload["backend"],
        runtime_seconds=float(payload["runtime_seconds"]),
        statistics=dict(payload["statistics"]),
    )
