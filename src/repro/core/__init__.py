"""The paper's contribution: UFDI threat analytics and countermeasure synthesis.

* :mod:`repro.core.spec` — the attack model (paper Table I): attacker
  knowledge, accessibility, resource limits, goals, topology-poisoning
  capability, all per-grid configuration.
* :mod:`repro.core.verification` — the formal UFDI attack verification
  model (Section III, Eqs. 3-26), decided by the bundled SMT engine.
* :mod:`repro.core.synthesis` — security-architecture synthesis
  (Section IV, Algorithm 1, Eqs. 27-30).
* :mod:`repro.core.casestudy` — the exact IEEE 14-bus configuration of
  the paper's Tables II/III case studies.
* :mod:`repro.core.io` — the text input-file format of Section III-H.
"""

from repro.core.spec import (
    AttackGoal,
    AttackSpec,
    LineAttributes,
    ResourceLimits,
)
from repro.core.verification import VerificationOutcome, VerificationResult, verify_attack
from repro.core.synthesis import (
    SynthesisResult,
    SynthesisSettings,
    enumerate_architectures,
    synthesize_against_all,
    synthesize_architecture,
    synthesize_measurement_architecture,
)

__all__ = [
    "AttackGoal",
    "AttackSpec",
    "LineAttributes",
    "ResourceLimits",
    "SynthesisResult",
    "SynthesisSettings",
    "VerificationOutcome",
    "VerificationResult",
    "enumerate_architectures",
    "synthesize_against_all",
    "synthesize_architecture",
    "synthesize_measurement_architecture",
    "verify_attack",
]
