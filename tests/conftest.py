"""Shared fixtures and helpers for the test suite.

``tests/data`` holds two frozen JSON files, verbatim as printed in the
bundled reference tables:

* ``coeff_tables.json`` — the numbered coefficient grids (4..36) as exact
  fraction strings, cell for cell.
* ``printed_values.json`` — error-table values, minimal truncation
  numbers, named error constants, and the polynomial/trigonometric ratio
  list, all at their printed precision.

A few printed values contradict other printed values.  :data:`ERRATA`
lists each one with its location, the printed string, the corrected value
and the reckoning that proves it; ``test_errata.py`` redoes every
reckoning on the data files alone.  The data files keep the printed
strings; :func:`reference_coeff_tables`, :func:`reference_printed` and
the fixtures built on them return the reference with the errata applied
(:func:`corrected`), and :func:`verbatim` returns a file exactly as frozen.

Comparisons against printed values use :func:`printed_match`, which
treats a printed string as a half-ulp interval around its decimal value,
or :func:`within_printed_unit`, which allows one unit of the last digit.

The tests named in :data:`SLOW_TESTS` are marked ``slow``, so that
``pytest -m "not slow"`` gives a quick run; a plain ``pytest`` runs them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"

#: ``file::test`` ids of the tests marked ``slow``.  Criterion 6 validates every
#: case on 10^5 paths and takes most of the suite's time.
SLOW_TESTS = ("test_acceptance.py::test_criterion_6_statistical_validation",)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.nodeid.endswith(SLOW_TESTS):
            item.add_marker(pytest.mark.slow)


@dataclass(frozen=True)
class Erratum:
    """One misprinted reference value and its correction.

    ``path`` is the key path of the value inside the JSON document
    ``file``; ``printed`` is the string stored there.
    """

    location: str
    file: str
    path: tuple[str | int, ...]
    printed: str
    corrected: str
    reckoning: str


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        "table 6 cell (6,4)",
        "coeff_tables.json",
        ("6", 6, 4),
        "-118/45045",
        "118/45045",
        "Tiling: the orderings of (2,4,6) must sum to prod(int P_j) = 0; the "
        "printed cells sum to -236/45045, and the five other orderings fix "
        "this cell at +118/45045.",
    ),
    Erratum(
        "table 19 cell (0,0)",
        "coeff_tables.json",
        ("19", 0, 0),
        "-2/105",
        "2/105",
        "Tiling: the 24 orderings of (0,0,2,2) must sum to 0; the printed "
        "cells sum to -16/105, and the five other distinct orderings fix "
        "this cell at +2/105.",
    ),
    Erratum(
        "error table 3 at q=10^4",
        "printed_values.json",
        ("error_tables", "3", "values", 4),
        "6.3178e-14",
        "6.2475e-14",
        "The closed form (1/(2q+5) - 1/(2q+1))/16 + (1/(2q+1)^2 + "
        "1/(2q+3)^2)/8 reproduces the printed q = 1..1000 entries; in exact "
        "rationals at q = 10^4 it is 6.24750078e-14, below the bound "
        "1/(16 q^3) = 6.25e-14 that the printed value exceeds.",
    ),
    Erratum(
        "constant quad_0000_q2",
        "printed_values.json",
        ("constants", "quad_0000_q2"),
        "0.0236084",
        "0.0229140",
        "I_4 - sum C^2 over the printed cells of tables 11-19 ({0,1,2}^4) "
        "is 0.0229139923.",
    ),
    Erratum(
        "constant triple_010_q2",
        "printed_values.json",
        ("constants", "triple_010_q2"),
        "0.0173903",
        "0.0168348",
        "I_3 - sum C^2 over the printed cells of tables 26-28 ({0,1,2}^3, "
        "weights (0,1,0)) is 0.0168348450.",
    ),
    Erratum(
        "constant quint_00000_q1",
        "printed_values.json",
        ("constants", "quint_00000_q1"),
        "0.00759105",
        "0.00758952",
        "I_5 - sum C^2 over the printed cells of tables 29-36 ({0,1}^5) "
        "is 0.0075895219.",
    ),
    Erratum(
        "order ratio entry 1",
        "printed_values.json",
        ("pol_over_trig_ratios", 1),
        "2.22",
        "2.25",
        "pol/trig from the printed table-37 columns at dt = 2^-6 is 9/4 = 2.25.",
    ),
)


@lru_cache(maxsize=None)
def _load(name: str) -> dict:
    with open(DATA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verbatim(name: str) -> dict:
    """A data file exactly as frozen, printed misprints included."""
    return copy.deepcopy(_load(name))


@lru_cache(maxsize=None)
def corrected(name: str) -> dict:
    """A data file with every erratum's printed value replaced by its correction."""
    doc = verbatim(name)
    for erratum in ERRATA:
        if erratum.file != name:
            continue
        *head, last = erratum.path
        node = doc
        for key in head:
            node = node[key]
        if node[last] != erratum.printed:
            raise ValueError(
                f"{erratum.location}: {name} holds {node[last]!r}, "
                f"erratum records {erratum.printed!r}"
            )
        node[last] = erratum.corrected
    return doc


def reference_coeff_tables() -> dict[int, list[list[Fraction]]]:
    """Coefficient grids keyed by table number, errata applied, cells as Fractions."""
    raw = corrected("coeff_tables.json")
    return {
        int(num): [[Fraction(cell) for cell in row] for row in rows]
        for num, rows in raw.items()
    }


def reference_printed() -> dict:
    """Printed values with errata applied: error tables, q tables, constants, ratios."""
    return corrected("printed_values.json")


def printed_match(computed: float, printed: str) -> bool:
    """True when ``computed`` rounds to the printed decimal string.

    A printed value like ``"0.0238"`` or ``"6.2450e-4"`` pins its last
    shown digit, so the acceptance window is half an ulp of that digit
    (with a one-part-in-1e7 cushion for the decimal-to-binary round trip).
    """
    dec = Decimal(printed)
    ulp = Decimal(1).scaleb(dec.as_tuple().exponent)
    return abs(Decimal(repr(float(computed))) - dec) <= ulp * Decimal("0.50000001")


def within_printed_unit(computed: float, text: str) -> bool:
    """True when ``computed`` is within one unit of ``text``'s last digit."""
    printed = Decimal(text)
    ulp = Decimal(1).scaleb(printed.as_tuple().exponent)
    return abs(Decimal(repr(float(computed))) - printed) <= ulp * Decimal("1.0000001")


@pytest.fixture(scope="session")
def coeff_tables() -> dict[int, list[list[Fraction]]]:
    return reference_coeff_tables()


@pytest.fixture(scope="session")
def printed() -> dict:
    return reference_printed()
