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

``ENCODINGS`` pins what each pinned search starts from: the encoding's
sizes and digests of the SAT core's clauses, the theory's atom map and
the simplex rows, plus a digest of the exact model on SAT rows.  Making
the encode cheaper must leave all of them as they are.
"""

import hashlib
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
    "ieee300-state75": lambda: spec_for_case("ieee300", target_bus=75),
    "synthetic1000-state250": lambda: spec_for_case("synthetic1000", target_bus=250),
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
    "ieee300-state75": ("sat", (0, 595, 7412, 0, 893, 2588)),
    "synthetic1000-state250": ("sat", (0, 1993, 25946, 0, 2989, 9288)),
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
    "ieee300-state75": (
        {
            74: -7.511454968827461, 167: 2.1093931275971904,
            169: 4.9239253532916445, 485: 7.511454968827461,
            578: -2.1093931275971904, 580: -4.9239253532916445,
            864: 7.511454968827461, 897: -14.544773449716295,
            990: 2.1093931275971904, 992: 4.9239253532916445,
        },
        {75: 1.0},
        set(),
    ),
    "synthetic1000-state250": (
        {
            249: -3.673904258055035, 295: 2.449839535510424,
            356: 10.24380249948781, 435: 4.18025248725023,
            1420: 2.901999477640094, 1749: 3.673904258055035,
            1795: -2.449839535510424, 1856: -10.24380249948781,
            1935: -4.18025248725023, 2920: -2.901999477640094,
            3082: 3.673904258055035, 3250: -23.44979825794359,
            3296: 2.449839535510424, 3314: 2.901999477640094,
            3357: 10.24380249948781, 3436: 4.18025248725023,
        },
        {250: 1.0},
        set(),
    ),
}

SIZES = (
    "sat_variables",
    "clauses",
    "theory_atoms",
    "simplex_rows",
    "rows_nnz",
    "lattice_lemmas",
)

#: for every SEARCH row: SIZES right after ``UfdiEncoder(spec)``, the
#: SHA-256 of its clauses, atom map and simplex rows (see
#: ``_encoding_digest``), and on SAT rows the SHA-256 of the exact
#: model's real values
ENCODINGS = {
    "objective1-16-7": (
        (810, 1541, 162, 28, 77, 245),
        "e5a80e9e7fbe4e974e5480995e0554289ce1adb36d91e62806c9851c155d644f",
        "61da88cdbc6662396fbc1c5ce183d9f8d0838cf0c099bf1fa7dc049ffa2b2e14",
    ),
    "objective1-15-6": (
        (784, 1495, 162, 28, 77, 245),
        "6795521d2ac0a99f71d368c83c68ed792cfa8a752ad76ef4bce9fa6e04517508",
        None,
    ),
    "objective2": (
        (298, 562, 160, 28, 77, 236),
        "3e96753b43391ecf1ac43270f5712e0b9d67f237e1e6f0075a52f6dfac772522",
        "2d19ef26adf9338a3b72923b4e6ae9a4862d2679eb5c7bf9cbf04bc676e5b977",
    ),
    "objective2-secure46": (
        (293, 547, 158, 28, 77, 231),
        "a565b82662f241445076ee8121cd323b66e273f719fdec6569c9ec21115dc9b8",
        None,
    ),
    "objective2-secure46-topology": (
        (319, 595, 174, 30, 87, 247),
        "466feb0b9cd384a3ce9d193a6453d7a01553c1457c8bf6954e7d0e848b75309a",
        "84b08d0e5827302f5eabe2209e6461e6b8368fb2aa5c360201f5cb9e7c71c2ba",
    ),
    "ieee118-state30": (
        (3158, 6588, 1622, 286, 821, 2455),
        "2a3c16159836173c1ba00e4bfc6716c48de45b76f0f250072e2463150fd4ea32",
        "971336a881b93f3adea0894a3de3adc7305d68aef92027642985ed42edbfa15e",
    ),
    "ieee30-state8-budget6": (
        (1407, 2972, 386, 66, 181, 589),
        "46dbaea640abd8361a4a39ceff9c27ecd8dd984cd75970142794a2cfc80ff5bc",
        None,
    ),
    "ieee300-state75": (
        (7412, 15364, 3794, 647, 1811, 5713),
        "8866ee1b5eb732ac70a05570c43892952df6364702369761a6035ca49bde5ea9",
        "64c021c50b76aa665472934e90fa66fb7be1aae2187187f0107114ada1c55e8a",
    ),
    "synthetic1000-state250": (
        (25946, 53922, 13298, 2322, 6637, 19981),
        "99fb62adb33df503c6d294ac3e225b3539d28efb5c6f7a57095fe27c5b52d9d6",
        "da88718642b1479071fca0632544a6ee1ba4b8a166d1afaba4dfde4af8e10927",
    ),
}


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _encoding_digest(solver) -> str:
    """The SAT core's clauses, the theory's atom map and the simplex
    rows with their denominators, each in the order they were built."""
    simplex = solver._theory.simplex
    return _sha256(
        (
            solver._sat.clauses,
            list(solver._theory._atom_map.items()),
            [
                (basic, list(row.items()), simplex.row_den[basic])
                for basic, row in simplex.rows.items()
            ],
        )
    )


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


def test_encodings_cover_every_search_pin():
    assert set(ENCODINGS) == set(SEARCH)


@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_encoding_is_pinned(name):
    sizes, encoding, model = ENCODINGS[name]
    encoder = UfdiEncoder(SPECS[name]())
    stats = encoder.statistics()
    assert tuple(stats[k] for k in SIZES) == sizes
    assert _encoding_digest(encoder.solver) == encoding
    result = encoder.solve()
    assert result.outcome.value == SEARCH[name][0]
    if model is None:
        assert result.attack is None
        return
    reals = encoder.solver.model()._reals
    assert _sha256(sorted(reals.items())) == model


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
