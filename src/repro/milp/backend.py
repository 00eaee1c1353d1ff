"""Big-M MILP mirror of the SMT encoding, solved with HiGHS.

The tests' independent cross-check of the SMT engine: only tests, the
backend ablation benchmark and ``examples/scaling_study.py`` call
:func:`verify_milp`.  It is no production engine; DESIGN.md §2 has its
timings against the SMT engine.

The mirror consumes the *exact same* formula the SMT solver decides:
the CNF clauses (boolean structure plus cardinality counters) become
covering constraints over binaries, and each arithmetic atom variable is
linked to its linear form with big-M indicator constraints.  Because
both backends share one encoder there is no duplicated modeling logic —
agreement between them validates the solver, not just the model.

Caveat (documented in DESIGN.md): big-M encodings bound the continuous
variables to ``[-B, B]`` and separate negated atoms by a small
``strict_eps``.  The UFDI system is homogeneous, so any attack scales
into the box; only solutions requiring a dynamic range beyond ``B/eps``
could be missed.  The SMT backend has no such limit and is the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.attacks.vector import AttackVector
from repro.core.spec import AttackSpec
from repro.core.verification import (
    UfdiEncoder,
    VerificationOutcome,
    VerificationResult,
)
from repro.smt.solver import Model


@dataclass
class MilpResult:
    """Outcome of a MILP feasibility solve."""

    outcome: VerificationOutcome
    attack: Optional[AttackVector]
    statistics: Dict[str, int] = field(default_factory=dict)


def verify_milp(spec: AttackSpec) -> VerificationResult:
    """:func:`repro.core.verification.verify_attack`'s verdict, decided
    by the MILP mirror of the same encoding (backend ``"milp"``)."""
    start = time.perf_counter()
    milp_result = solve_encoder_milp(UfdiEncoder(spec))
    return VerificationResult(
        milp_result.outcome,
        milp_result.attack,
        "milp",
        time.perf_counter() - start,
        milp_result.statistics,
    )


def solve_encoder_milp(
    encoder,
    secured_buses: Sequence[int] = (),
    secured_measurements: Sequence[int] = (),
    box: float = 1e4,
    strict_eps: float = 1e-6,
    time_limit: Optional[float] = None,
    max_refinements: int = 200,
    _retry_boxes: Sequence[float] = (1e3, 1e2),
) -> MilpResult:
    """Decide the encoder's formula: HiGHS enumeration + exact refinement.

    HiGHS works within floating-point feasibility tolerances, which on
    tightly resource-constrained instances can admit *spurious* integer
    solutions (a "zero" delta of 1e-6 slipping past a cardinality
    limit).  Every candidate integer assignment is therefore re-checked
    **exactly**: the boolean atom values are asserted into a fresh
    rational simplex; if consistent the attack is extracted from the
    exact simplex model, otherwise the simplex conflict explanation is
    added to the MILP as a cut and the solve repeats — a lazy DPLL(T)
    loop with HiGHS as the boolean enumerator.  SAT answers are thus
    exact; SECURE answers inherit MILP completeness up to the ``box``
    bound on continuous variables (harmless for the homogeneous UFDI
    system; see module docstring).

    ``secured_buses``/``secured_measurements`` mirror the assumption
    mechanism of :meth:`UfdiEncoder.check` (requires an encoder built
    with ``symbolic_security=True``).
    """
    cnf = encoder.solver._cnf
    num_bin = cnf.num_vars
    num_real = encoder.solver._next_real
    n_cols = num_bin + num_real

    rows: List[Tuple[Dict[int, float], float, float]] = []  # (coeffs, lb, ub)

    def real_col(real_index: int) -> int:
        return num_bin + real_index

    def add_clause_row(clause: Sequence[int]) -> None:
        coeffs: Dict[int, float] = {}
        lb = 1.0
        for lit in clause:
            col = abs(lit) - 1
            if lit > 0:
                coeffs[col] = coeffs.get(col, 0.0) + 1.0
            else:
                coeffs[col] = coeffs.get(col, 0.0) - 1.0
                lb -= 1.0
        rows.append((coeffs, lb, np.inf))

    for clause in cnf.clauses:
        add_clause_row(clause)

    # atom indicator links; each integer row is read at its monic scale
    # (first coefficient 1), the scale strict_eps and big-M were set for
    for sat_var, (row, op, bound) in cnf.atom_of_var.items():
        bcol = sat_var - 1
        lead = row[0][1]
        expr = {real_col(ri): c / lead for ri, c in row}
        b = float(bound / lead)
        big_m = sum(abs(c) for c in expr.values()) * box + abs(b) + 1.0
        if op == "<=":
            # x=1 -> e <= b        : e + M x <= b + M
            rows.append(({**expr, bcol: big_m}, -np.inf, b + big_m))
            # x=0 -> e >= b + eps  : e + M x >= b + eps
            rows.append(({**expr, bcol: big_m}, b + strict_eps, np.inf))
        else:
            # x=1 -> e >= b        : e - M x >= b - M
            rows.append(({**expr, bcol: -big_m}, b - big_m, np.inf))
            # x=0 -> e <= b - eps  : e - M x <= b - eps
            rows.append(({**expr, bcol: -big_m}, -np.inf, b - strict_eps))

    # assumptions: pin securing binaries
    fixed_ones: List[int] = []
    for bus in secured_buses:
        fixed_ones.append(cnf.var_for_bool(encoder.sb[bus]) - 1)
    for meas in secured_measurements:
        sz = encoder.sz.get(meas)
        if sz is not None:
            fixed_ones.append(cnf.var_for_bool(sz) - 1)

    lower = np.concatenate([np.zeros(num_bin), -box * np.ones(num_real)])
    upper = np.concatenate([np.ones(num_bin), box * np.ones(num_real)])
    for col in fixed_ones:
        lower[col] = 1.0

    integrality = np.concatenate([np.ones(num_bin), np.zeros(num_real)])
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit

    stats = {
        "milp_binaries": num_bin,
        "milp_continuous": num_real,
        "milp_refinements": 0,
    }
    for _ in range(max_refinements):
        data, row_idx, col_idx = [], [], []
        lbs, ubs = [], []
        for r, (coeffs, lb, ub) in enumerate(rows):
            for col, value in coeffs.items():
                row_idx.append(r)
                col_idx.append(col)
                data.append(value)
            lbs.append(lb)
            ubs.append(ub)
        a = sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(len(rows), n_cols)
        )
        res = milp(
            c=np.zeros(n_cols),
            constraints=LinearConstraint(a, np.array(lbs), np.array(ubs)),
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options=options,
        )
        stats["milp_constraints"] = len(rows)
        if res.status == 2:  # proven infeasible
            return MilpResult(VerificationOutcome.SECURE, None, stats)
        if res.status != 0:
            # status 4 is a HiGHS numerical failure, typically from
            # big-M conditioning; retry with a tighter variable box
            # (sound here: the UFDI system is homogeneous, so attacks
            # rescale into any box)
            if _retry_boxes:
                return solve_encoder_milp(
                    encoder,
                    secured_buses=secured_buses,
                    secured_measurements=secured_measurements,
                    box=_retry_boxes[0],
                    strict_eps=strict_eps,
                    time_limit=time_limit,
                    max_refinements=max_refinements,
                    _retry_boxes=_retry_boxes[1:],
                )
            return MilpResult(VerificationOutcome.UNKNOWN, None, stats)
        assignment = [False] + [x > 0.5 for x in res.x[:num_bin]]  # 1-based
        exact = _exact_theory_check(cnf, assignment)
        if isinstance(exact, dict):  # consistent: exact real values
            model = _exact_model(encoder, assignment, exact)
            return MilpResult(
                VerificationOutcome.ATTACK_EXISTS,
                encoder.extract_attack(model=model),
                stats,
            )
        # inconsistent: add the conflict explanation as a cut
        stats["milp_refinements"] += 1
        add_clause_row([-lit for lit in exact])
    return MilpResult(VerificationOutcome.UNKNOWN, None, stats)


def _exact_theory_check(cnf, assignment: Sequence[bool]):
    """Exact simplex check of an integer assignment's theory literals.

    Returns a dict ``real_index -> Fraction`` when consistent, or the
    list of conflicting atom literals otherwise.
    """
    from repro.smt.theory import LraTheory

    theory = LraTheory()
    for sat_var, atom in cnf.atom_of_var.items():
        theory.register_atom(sat_var, atom)
    for sat_var in cnf.atom_of_var:
        lit = sat_var if assignment[sat_var] else -sat_var
        conflict = theory.assert_lit(lit, sat_var)
        if conflict is not None:
            return conflict
    conflict = theory.check()
    if conflict is not None:
        return conflict
    return theory.real_values()


def _exact_model(encoder, assignment: Sequence[bool], reals: Dict[int, Fraction]) -> Model:
    """Build a Model from a verified integer assignment + exact reals."""
    cnf = encoder.solver._cnf
    bools: Dict[int, bool] = {}
    for bool_index, sat_var in cnf._bool_vars.items():
        bools[bool_index] = assignment[sat_var]
    return Model(bools, dict(reals))
