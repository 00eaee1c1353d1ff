"""Attack construction: vectors, algebraic baselines, topology poisoning.

:mod:`repro.attacks.vector` defines the :class:`AttackVector` exchanged
between the formal models, the numerical estimator and the reports.
:mod:`repro.attacks.liu` implements the classical algebraic UFDI
constructions of Liu, Ning & Reiter (``a = Hc``), used as baselines and
as independent ground truth for the SMT model.
:mod:`repro.attacks.topology_attack` builds numerically coordinated
topology-poisoning attacks from an operating point.

Only :class:`AttackVector` is re-exported, because the verification
model returns it; import the numerical constructions from their modules,
e.g. ``from repro.attacks.liu import perfect_knowledge_attack``.
"""

from repro.attacks.vector import AttackVector

__all__ = ["AttackVector"]
