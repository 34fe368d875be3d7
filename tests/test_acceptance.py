"""End-to-end acceptance checks against the bundled reference values.

One test per claim bundle, so a verbose run reports exactly seven
pass/fail lines.  Each test collects every mismatch before asserting and
lists them all in its failure message.  The reference values come from
the ``coeff_tables`` and ``printed`` fixtures, which apply the errata
listed in ``conftest.py`` to the printed data.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from stochint.basis import RatPoly, definite_integral, legendre_poly, product_expand
from stochint.coeffs import KernelSpec, bar_coeff, coeff_tensor, scaled_tensor
from stochint.errors import exact_error, kernel_norm, series_error
from stochint.expansion import (
    IndexPattern,
    NoiseDraws,
    draw_noise,
    legendre_closed_single,
    legendre_double_series,
)
from stochint.oracle import SimConfig, validate_expansion
from stochint.tables import (
    compute_coeff_table,
    compute_error_table,
    compute_q_table,
    pol_over_trig_ratios,
)

from conftest import printed_match, within_printed_unit


def test_criterion_1_exact_coefficient_tables(coeff_tables):
    """Tables 4-36 as exact rational equalities, zero tolerance, < 10 s."""
    start = time.perf_counter()
    mismatches = []
    for number in range(4, 37):
        computed = compute_coeff_table(number)
        frozen = coeff_tables[number]
        for r, row in enumerate(computed):
            for c, value in enumerate(row):
                if value != frozen[r][c]:
                    mismatches.append(
                        f"table {number} cell ({r},{c}): "
                        f"computed {value}, reference {frozen[r][c]}"
                    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds the 10 s budget"
    assert not mismatches, (
        f"{len(mismatches)} cell(s) differ from the reference grids:\n"
        + "\n".join(mismatches)
    )


def test_criterion_2_error_series_tables(printed):
    """Tables 1, 2, 3, 38, 41, 42 to 4 significant figures, < 30 s."""
    start = time.perf_counter()
    mismatches = []
    for number in (1, 2, 3, 38, 41, 42):
        reference = printed["error_tables"][str(number)]
        values = compute_error_table(number, qs=reference["q"])
        for q, value, text in zip(reference["q"], values, reference["values"]):
            if not printed_match(value, text):
                mismatches.append(
                    f"table {number} q={q}: computed {value!r}, reference {text}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30 s budget"
    assert not mismatches, (
        f"{len(mismatches)} entr(ies) differ from the reference tables:\n"
        + "\n".join(mismatches)
    )


def test_criterion_3_exact_error_constants(printed):
    """Named mean-square error constants to the printed precision, < 60 s."""
    cases = [
        ("triple_000_q6", KernelSpec.unweighted(3), 6),
        ("quad_0000_q2", KernelSpec.unweighted(4), 2),
        ("triple_100_q2", KernelSpec(3, (1, 0, 0)), 2),
        ("triple_010_q2", KernelSpec(3, (0, 1, 0)), 2),
        ("triple_001_q2", KernelSpec(3, (0, 0, 1)), 2),
        ("quint_00000_q1", KernelSpec.unweighted(5), 1),
    ]
    start = time.perf_counter()
    mismatches = []
    for key, spec, q in cases:
        tensor = scaled_tensor(coeff_tensor(spec, q), 1.0)
        value = exact_error(tensor, IndexPattern(tuple(range(1, spec.k + 1))))
        text = printed["constants"][key]
        if not within_printed_unit(value, text):
            mismatches.append(f"{key}: computed {value!r}, reference {text}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60 s budget"
    assert not mismatches, (
        f"{len(mismatches)} constant(s) differ from the reference values:\n"
        + "\n".join(mismatches)
    )


def test_criterion_4_truncation_order_tables(printed):
    """Tables 37, 39, 40 exactly, plus the order-ratio list to 2 decimals."""
    mismatches = []
    for number in (37, 39, 40):
        reference = printed["q_tables"][str(number)]
        columns = compute_q_table(number)
        for name, values in columns.items():
            for i, (got, want) in enumerate(zip(values, reference[name])):
                if got != want:
                    mismatches.append(
                        f"table {number} column {name} row {i}: "
                        f"computed {got}, reference {want}"
                    )
    ratios = pol_over_trig_ratios()
    reference_ratios = printed["pol_over_trig_ratios"]
    assert len(ratios) == len(reference_ratios)
    for i, (value, text) in enumerate(zip(ratios, reference_ratios)):
        if abs(value - float(text)) >= 0.005:
            mismatches.append(
                f"order ratio entry {i}: computed {value:.2f}, reference {text}"
            )
    assert not mismatches, (
        f"{len(mismatches)} entr(ies) differ from the reference order tables:\n"
        + "\n".join(mismatches)
    )


def test_criterion_5_pathwise_identities():
    """Equal-component product identities over 1000 seeds, rel <= 1e-10."""
    dt = 0.5
    zeta = np.stack([draw_noise(24, 1, seed).zeta for seed in range(1000)], axis=1)
    batch = NoiseDraws(zeta=zeta, xi=None, mu=None, seed=0)
    pattern = IndexPattern((1, 1))
    i0 = legendre_closed_single(0, 1, batch, dt)
    i1 = legendre_closed_single(1, 1, batch, dt)
    i2 = legendre_closed_single(2, 1, batch, dt)
    worst = 0.0
    for q in (0, 1, 5, 20):
        s10 = legendre_double_series((1, 0), pattern, batch, q, dt)
        s01 = legendre_double_series((0, 1), pattern, batch, q, dt)
        s11 = legendre_double_series((1, 1), pattern, batch, q, dt)
        s20 = legendre_double_series((2, 0), pattern, batch, q, dt)
        s02 = legendre_double_series((0, 2), pattern, batch, q, dt)
        for lhs, rhs in (
            (s10 + s01, i0 * i1),
            (s11, i1 * i1 / 2.0),
            (s20 + s02, i0 * i2),
        ):
            rel = np.abs(lhs - rhs) / np.abs(rhs)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-10, f"worst relative identity error {worst:.3e} above 1e-10"


def test_criterion_6_statistical_validation():
    """Coupled Monte Carlo at P=1e5 paths, N=2^12 steps; |z| < 3; <= 5 min."""
    start = time.perf_counter()
    cfg = SimConfig(steps=4096, paths=100_000, seed=20260823, dt=0.5, calculus="ito")
    failures = []
    for case in (
        "pair_distinct",
        "pair_equal_weighted",
        "triple_distinct",
        "pair_weighted_distinct",
    ):
        report = validate_expansion(case, cfg)
        if not abs(report.z) < 3.0:
            failures.append(
                f"{case}: z = {report.z:+.3f} "
                f"(empirical {report.empirical:.4e}, "
                f"theoretical {report.theoretical:.4e})"
            )
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, f"runtime {elapsed:.0f}s exceeds the 5 min budget"
    assert not failures, "z-scores outside 3 sigma:\n" + "\n".join(failures)


def test_criterion_7_property_suites():
    """Orthonormality, product formula, tiling, monotonicity, q*E bound."""
    # Orthonormality in exact arithmetic.
    for m in range(9):
        for n in range(9):
            integral = definite_integral(
                legendre_poly(m) * legendre_poly(n), Fraction(-1), Fraction(1)
            )
            expected = Fraction(2, 2 * n + 1) if m == n else Fraction(0)
            assert integral == expected, f"orthonormality failed at ({m},{n})"

    # Product formula reconstructs the polynomial product exactly.
    for m in range(6):
        for n in range(6):
            acc = RatPoly(())
            for j, c in product_expand(m, n):
                acc = acc + legendre_poly(j).scale(c)
            assert acc == legendre_poly(m) * legendre_poly(n), (
                f"product expansion failed at ({m},{n})"
            )

    # Permutation-sum tiling: summing one coefficient over all argument
    # orders removes the simplex ordering, leaving a product of full-cube
    # single integrals.
    for k in (2, 3):
        spec = KernelSpec.unweighted(k)
        for j in itertools.product(range(5), repeat=k):
            total = sum(
                bar_coeff(spec, tuple(j[s] for s in sigma))
                for sigma in itertools.permutations(range(k))
            )
            expected = Fraction(1)
            for jr in j:
                expected *= definite_integral(
                    legendre_poly(jr), Fraction(-1), Fraction(1)
                )
            assert total == expected, f"tiling identity failed at k={k}, j={j}"

    # Parseval monotonicity and exact-error monotonicity in q.
    spec = KernelSpec.unweighted(2)
    tensor = scaled_tensor(coeff_tensor(spec, 12), 1.0)
    pattern = IndexPattern((1, 2))
    norm = kernel_norm(spec, 1.0)
    masses = [float(np.sum(tensor.truncated(q) ** 2)) for q in range(13)]
    errors = [exact_error(tensor, pattern, q) for q in range(13)]
    for a, b in zip(masses, masses[1:]):
        assert a < b < norm
    for a, b in zip(errors, errors[1:]):
        assert a > b > 0.0

    # Bounded error decay: q * E(q) stays below a fixed constant all the
    # way to q = 1e4 (the closed pair series decays like 1/(8q)).
    assert all(
        q * series_error("pair_legendre", q, 1.0) <= 0.13
        for q in range(1, 10_001)
    )
