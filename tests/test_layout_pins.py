"""Pinned table layouts and validation cases: each registry entry must stay as it is.

Hashes every field of the coefficient-table registry that the command-line
tool and the tests read (the basis indices of every cell included), and
every field of the named validation cases (the closed-form error at
``dt = 0.5`` included).  A refactor of either registry must leave both
digests unchanged.

To re-record after an intended change of a layout or a case, run this
module as a script from the repository root (``PYTHONPATH=src python
tests/test_layout_pins.py``); it prints both digests.
"""

from __future__ import annotations

import hashlib

from stochint.oracle import VALIDATION_CASES
from stochint.tables import COEFF_TABLES

COEFF_TABLES_DIGEST = "7df86417ff656d8fb44b4391fe7026294e5fb15911cc4093b3de39fdd3aef0df"
VALIDATION_CASES_DIGEST = "31a30fc8c90578db8879977f898dd00f086b07d1cec8d67e5a81c44c1c5f9b02"


def _digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def coeff_tables_digest() -> str:
    return _digest([
        (
            number, t.spec.k, t.spec.weights, t.rows, t.cols, t.row_label, t.col_label,
            [t.js(r, c) for r in range(t.rows) for c in range(t.cols)],
        )
        for number, t in sorted(COEFF_TABLES.items())
    ])


def validation_cases_digest() -> str:
    return _digest([
        (
            name, case.spec.k, case.spec.weights, case.components, case.q, case.jmax,
            case.banded, case.theory(case.q, 0.5),
        )
        for name, case in sorted(VALIDATION_CASES.items())
    ])


def test_coeff_table_layouts_pinned():
    assert len(COEFF_TABLES) == 33
    assert coeff_tables_digest() == COEFF_TABLES_DIGEST


def test_validation_cases_pinned():
    assert validation_cases_digest() == VALIDATION_CASES_DIGEST


if __name__ == "__main__":
    print(f'COEFF_TABLES_DIGEST = "{coeff_tables_digest()}"')
    print(f'VALIDATION_CASES_DIGEST = "{validation_cases_digest()}"')
