"""Pins on the search that real UFDI encodings take, and on its encode path.

The encoder's atoms reach the solver as primitive integer rows.  How an
atom is canonicalized or a row installed must not change which atoms,
clauses, pivots and row-implied propagations the search sees, so
``verify_attack``'s outcome, search counters and witnesses are pinned
here on the Section III-I case study and two sweep instances (about
1 s together), under the shipped pivot rule and under its Bland's-rule
fallback alone.  The pure SAT core's search is pinned by
``GOLDEN_SEARCH_STATS`` in ``tests/smt/test_sat_watches.py``.

Building an encoding hashes no ``Fraction``: atoms are keyed by their
integer rows and integer bound parts.
"""

from fractions import Fraction

import pytest

from repro.analysis.sweeps import spec_for_case
from repro.core.casestudy import attack_objective_1, attack_objective_2
from repro.core.verification import UfdiEncoder, verify_attack
from repro.smt import simplex as simplex_module

COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "pivots",
    "theory_checks",
    "theory_props",
)

SPECS = {
    "objective1-16-7": lambda: attack_objective_1(16, 7),
    "objective1-15-6": lambda: attack_objective_1(15, 6),
    "objective2": lambda: attack_objective_2(),
    "objective2-secure46": lambda: attack_objective_2(True),
    "objective2-secure46-topology": lambda: attack_objective_2(True, True),
    "ieee118-state30": lambda: spec_for_case("ieee118", target_bus=30),
    "ieee30-state8-budget6": lambda: spec_for_case(
        "ieee30", target_bus=8, max_measurements=6
    ),
}

#: outcome and COUNTERS of verify_attack on the default engine
SEARCH = {
    "objective1-16-7": ("sat", (22, 75, 5466, 29, 145, 454)),
    "objective1-15-6": ("unsat", (12, 36, 2700, 13, 68, 287)),
    "objective2": ("sat", (0, 10, 298, 0, 13, 80)),
    "objective2-secure46": ("unsat", (2, 1, 264, 0, 4, 64)),
    "objective2-secure46-topology": ("sat", (2, 17, 352, 3, 28, 87)),
    "ieee118-state30": ("sat", (0, 231, 3158, 0, 346, 1144)),
    "ieee30-state8-budget6": ("unsat", (96, 178, 38222, 130, 336, 2864)),
}

#: the same under Bland's rule alone (``_BLAND_AFTER = 0``): the search
#: of engine v9, whose entering variable was always the smallest
#: movable index, so the fallback rule is that engine's search
SEARCH_BLAND = {
    "objective1-16-7": ("sat", (23, 77, 5497, 32, 148, 496)),
    "objective1-15-6": ("unsat", (12, 31, 2305, 14, 60, 231)),
    "objective2": ("sat", (0, 10, 298, 0, 13, 80)),
    "objective2-secure46": ("unsat", (2, 1, 264, 0, 4, 64)),
    "objective2-secure46-topology": ("sat", (2, 17, 352, 2, 28, 87)),
    "ieee118-state30": ("sat", (0, 231, 3158, 0, 346, 1144)),
    "ieee30-state8-budget6": ("unsat", (106, 168, 41937, 139, 347, 1797)),
}

#: the SAT witnesses: (measurement_deltas, state_deltas, excluded_lines),
#: the same under both pivot rules
WITNESSES = {
    "objective1-16-7": (
        {
            8: 15.651385575168755, 9: 5.884817417885019,
            16: -11.834319526627219, 18: -11.834319526627219,
            20: 9.404682924772398, 28: -15.651385575168755,
            29: -5.884817417885019, 36: 11.834319526627219,
            38: 11.834319526627219, 40: -9.404682924772398,
            44: -21.536202993053774, 47: 15.651385575168755,
            49: 17.71913694451224, 51: -11.834319526627219,
            53: -9.404682924772398, 54: 9.404682924772398,
        },
        {
            7: -3.2730177514792897, 8: -3.2730177514792897,
            9: -3.2730177514792897, 10: -2.2730177514792897,
            14: -3.2730177514792897,
        },
        set(),
    ),
    "objective2": (
        {
            12: -3.909151323247723, 32: 3.909151323247723,
            39: -5.003001801080648, 46: 3.909151323247723,
            53: 5.003001801080648,
        },
        {12: 1.0},
        set(),
    ),
    "objective2-secure46-topology": (
        {
            12: -3.909151323247723, 13: 3.909151323247723,
            32: 3.909151323247723, 33: -3.909151323247723,
            39: -5.003001801080648, 53: 8.912153124328372,
        },
        {12: 1.0},
        {13},
    ),
    "ieee118-state30": (
        {
            29: -13.395847287340924, 82: 2.0485926168722086,
            147: -13.294336612603031, 215: 13.395847287340924,
            268: -2.0485926168722086, 333: 13.294336612603031,
            386: 13.395847287340924, 395: 13.294336612603031,
            402: -28.738776516816163, 455: 2.0485926168722086,
        },
        {30: 1.0},
        set(),
    ),
}


def _assert_pinned(name, table):
    result = verify_attack(SPECS[name]())
    outcome, counters = table[name]
    assert result.outcome.value == outcome
    assert tuple(result.statistics[k] for k in COUNTERS) == counters
    if name not in WITNESSES:
        assert result.attack is None
        return
    deltas, states, excluded = WITNESSES[name]
    assert dict(result.attack.measurement_deltas) == deltas
    assert dict(result.attack.state_deltas) == states
    assert set(result.attack.excluded_lines) == excluded
    assert not result.attack.included_lines


@pytest.mark.parametrize("name", sorted(SEARCH))
def test_verify_search_is_pinned(name):
    _assert_pinned(name, SEARCH)


@pytest.mark.parametrize("name", sorted(SEARCH_BLAND))
def test_bland_fallback_is_the_v9_search(name, monkeypatch):
    monkeypatch.setattr(simplex_module, "_BLAND_AFTER", 0)
    _assert_pinned(name, SEARCH_BLAND)


def _refuse_hash(self):
    raise AssertionError(f"Fraction {self} hashed while encoding")


@pytest.mark.parametrize(
    "name", ["objective2-secure46-topology", "ieee30-state8-budget6", "ieee118-state30"]
)
def test_encoding_hashes_no_fraction(name, monkeypatch):
    spec = SPECS[name]()
    monkeypatch.setattr(Fraction, "__hash__", _refuse_hash)
    UfdiEncoder(spec)
    # the warm-session encoder: securing, budgets and goal symbolic
    UfdiEncoder(spec, symbolic_security=True, symbolic_budgets=True, symbolic_goal=True)
