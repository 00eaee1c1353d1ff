"""Every theory propagation on a real encoding is entailed by its reason.

Row-implied bound propagation hands the SAT core a literal together with
the bound literals that entail it, and the core keeps ``[lit, -e1, ...]``
as the reason clause.  An unsound reason is a wrong UNSAT waiting to
happen, so the reasons produced while solving the Section III-I case
study and the ieee30 state-8 probe are re-checked here, one by one, on
the non-propagating ``reference`` kernel: the reason's bounds together
with the negated literal must be infeasible.  The negative control drops
one reason literal and expects the checker to find the rest too weak.
"""

import pytest

from repro.analysis.sweeps import spec_for_case
from repro.core.casestudy import attack_objective_1, attack_objective_2
from repro.core.verification import UfdiEncoder
from repro.smt.theory import LraTheory

SPECS = {
    "objective1-16-7": lambda: attack_objective_1(16, 7),
    "objective1-15-6": lambda: attack_objective_1(15, 6),
    "objective2": lambda: attack_objective_2(),
    "objective2-secure46": lambda: attack_objective_2(True),
    "objective2-secure46-topology": lambda: attack_objective_2(True, True),
    "ieee30-state8-budget6": lambda: spec_for_case(
        "ieee30", target_bus=8, max_measurements=6
    ),
}

#: (lit, explanation) pairs checked per encoding
SAMPLE = 300


def propagations(name, monkeypatch):
    """Solve ``name`` on the default engine; return its atoms and the
    first :data:`SAMPLE` ``(lit, explanation)`` pairs the theory gave."""
    pairs = []
    propagate = LraTheory.propagate

    def spy(self, value):
        implied, conflict = propagate(self, value)
        pairs.extend((lit, list(expl)) for lit, expl in implied)
        if conflict is not None:
            # [lit, -e1, -e2, ...] with lit entailed but already false
            pairs.append((conflict[0], [-e for e in conflict[1:]]))
        return implied, conflict

    monkeypatch.setattr(LraTheory, "propagate", spy)
    encoder = UfdiEncoder(SPECS[name]())
    encoder.solve()
    return encoder.solver._cnf.atom_of_var, pairs[:SAMPLE]


def infeasible(atom_of_var, lits):
    """Do the bounds of ``lits`` conflict on a fresh reference theory?"""
    theory = LraTheory(kernel="reference", propagate=False)
    for lit in lits:
        theory.register_atom(abs(lit), atom_of_var[abs(lit)])
    for index, lit in enumerate(lits):
        if theory.assert_lit(lit, index) is not None:
            return True
    return theory.check() is not None


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_explanation_entails_its_literal(name, monkeypatch):
    atom_of_var, pairs = propagations(name, monkeypatch)
    assert pairs, "the default engine propagated nothing"
    for lit, expl in pairs:
        assert expl
        assert infeasible(atom_of_var, expl + [-lit]), (lit, expl)


@pytest.mark.parametrize("name", ["objective1-16-7", "ieee30-state8-budget6"])
def test_dropping_a_reason_literal_is_caught(name, monkeypatch):
    atom_of_var, pairs = propagations(name, monkeypatch)
    assert len(pairs) == SAMPLE
    for lit, expl in pairs:
        assert not infeasible(atom_of_var, expl[:-1] + [-lit]), (lit, expl)
