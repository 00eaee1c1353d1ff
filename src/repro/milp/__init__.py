"""MILP mirror of the verification model: the tests' oracle.

:mod:`repro.milp.backend` decides the same constraint system the SMT
engine solves, as a big-M mirror of the SMT encoding solved with
scipy's HiGHS (``scipy.optimize.milp``).  It is the independent
cross-check of the bundled SMT solver, not a production engine.
"""

from repro.milp.backend import MilpResult, solve_encoder_milp

__all__ = ["MilpResult", "solve_encoder_milp"]
