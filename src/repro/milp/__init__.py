"""MILP backend for the verification model.

:mod:`repro.milp.backend` is an alternative decider for the same
constraint system the SMT engine solves: a big-M mirror of the SMT
encoding solved with scipy's HiGHS (``scipy.optimize.milp``); the fast
path on large systems and the cross-validation oracle for the bundled
SMT solver.
"""

from repro.milp.backend import MilpResult, solve_encoder_milp

__all__ = ["MilpResult", "solve_encoder_milp"]
