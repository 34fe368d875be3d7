"""Pinned validation reports: the oracle's numbers may move only by rounding.

Each named case of :data:`stochint.oracle.VALIDATION_CASES` is validated at
a fast shape (``P = 1024`` paths, ``N = 256`` steps, ``dt = 0.5``) for two
seeds, and the report is compared with :data:`PINNED`, recorded when the
oracle built its coefficient tensor afresh for every chunk and grid and the
scaled tensor multiplied one axis at a time.  A change that only rounds the
coefficients differently moves ``empirical`` and ``stat_err`` by a few
ulps; a change to the paths, the projection, the grid doublings or the
expansion itself moves them by far more than the gate below.

To re-record after an intended change of the reports, run this module as a
script from the repository root (``PYTHONPATH=src python
tests/test_validation_pins.py``); it prints the new :data:`PINNED` literal.
"""

from __future__ import annotations

import math

import pytest

from stochint.oracle import VALIDATION_CASES, SimConfig, validate_expansion

PATHS, STEPS, DT = 1024, 256, 0.5

#: (case, seed) -> (final grid steps, empirical, stat_err, z).
PINNED = {
    ("pair_distinct", 11): (256, 0.01276628135641176, 0.0006553556861112547, 0.4063157794385187),
    ("pair_equal_weighted", 11): (256, 7.593678584640484e-06, 7.048315961631163e-07, -0.2853248874669321),
    ("pair_weighted_distinct", 11): (256, 0.0006552177138201801, 3.249846760888954e-05, -0.09587854604292233),
    ("triple_distinct", 11): (1024, 0.0026257661247200323, 0.00017750524333857154, 1.0226961212343584),
    ("pair_distinct", 12): (256, 0.012041928470247017, 0.000624901744985491, -0.7330296857526285),
    ("pair_equal_weighted", 12): (256, 7.282654812199561e-06, 7.339873563222962e-07, -0.6977364989846293),
    ("pair_weighted_distinct", 12): (256, 0.0006494320495929503, 3.2590018932532155e-05, -0.2731379220313166),
    ("triple_distinct", 12): (256, 0.002386349620847654, 0.00013741590479219098, -0.4212218381765492),
}


def _report(case: str, seed: int):
    return validate_expansion(case, SimConfig(steps=STEPS, paths=PATHS, seed=seed, dt=DT))


def test_every_case_is_pinned():
    assert {case for case, _ in PINNED} == set(VALIDATION_CASES)


@pytest.mark.parametrize("case, seed", sorted(PINNED))
def test_report_matches_pin(case, seed):
    steps, empirical, stat_err, z = PINNED[case, seed]
    report = _report(case, seed)
    assert report.steps == steps
    assert math.isclose(report.empirical, empirical, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(report.stat_err, stat_err, rel_tol=1e-12, abs_tol=0.0)
    assert abs(report.z - z) < 1e-6


if __name__ == "__main__":
    print("PINNED = {")
    for case, seed in PINNED:
        r = _report(case, seed)
        print(f"    ({case!r}, {seed}): ({r.steps}, {r.empirical!r}, {r.stat_err!r}, {r.z!r}),")
    print("}")
