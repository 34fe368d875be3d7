"""Mean-square truncation errors: exact forms, closed series, bounds."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stochint.coeffs import KernelSpec, coeff_tensor, scaled_tensor
from stochint.errors import (
    SERIES_KINDS,
    TRIG_SERIES_CAP,
    EqualityPattern,
    SeriesCapError,
    error_bound,
    error_report,
    exact_error,
    kernel_norm,
    kernel_norm_exact,
    series_error,
)
from stochint.errors import _polygamma, _tail_sum_fourths, _tail_sum_squares
from stochint.expansion import pair_series_support

from monomial_reference import kernel_norm_simplex


class TestKernelNorm:
    # I_k = dt^(2 sum(l) + k) / prod_r (2(l_1 + ... + l_r) + r)
    KNOWN = {
        (2, (0, 0)): Fraction(1, 2),
        (3, (0, 0, 0)): Fraction(1, 6),
        (4, (0, 0, 0, 0)): Fraction(1, 24),
        (5, (0, 0, 0, 0, 0)): Fraction(1, 120),
        (2, (1, 0)): Fraction(1, 12),
        (2, (0, 1)): Fraction(1, 4),
        (3, (1, 0, 0)): Fraction(1, 60),
        (3, (0, 1, 0)): Fraction(1, 20),
        (3, (0, 0, 1)): Fraction(1, 10),
    }

    @pytest.mark.parametrize("key", sorted(KNOWN))
    def test_known_values(self, key):
        k, weights = key
        spec = KernelSpec(k, weights)
        assert kernel_norm_exact(spec) == self.KNOWN[key]

    def test_exact_equals_simplex_route(self):
        # Two independent computations: product formula vs simplex integral.
        for k in (1, 2, 3, 4):
            for weights in itertools.product(range(3), repeat=k):
                if sum(weights) > 3:
                    continue
                spec = KernelSpec(k, weights)
                assert kernel_norm_exact(spec) == kernel_norm_simplex(spec)

    def test_float_scaling(self):
        spec = KernelSpec(2, (1, 0))
        dt = 0.37
        assert kernel_norm(spec, dt) == pytest.approx(dt**4 / 12.0, rel=1e-15)


class TestEqualityPattern:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            EqualityPattern(3, ((1, 2),))
        with pytest.raises(ValueError):
            EqualityPattern(2, ((1, 1), (2,)))

    def test_constructors(self):
        assert EqualityPattern.distinct(3).groups == ((1,), (2,), (3,))
        assert EqualityPattern.all_equal(3).groups == ((1, 2, 3),)
        assert EqualityPattern.from_components((1, 2, 1)).groups == ((1, 3), (2,))

    def test_position_permutations_count(self):
        # Product of factorials of the group sizes.
        assert len(EqualityPattern.distinct(3).position_permutations()) == 1
        assert len(EqualityPattern.all_equal(3).position_permutations()) == 6
        assert len(EqualityPattern.from_components((1, 1, 2)).position_permutations()) == 2

    def test_permutations_fix_groups(self):
        pattern = EqualityPattern.from_components((1, 2, 1, 2))
        for sigma in pattern.position_permutations():
            assert sorted(sigma) == [1, 2, 3, 4]
            # Positions 1,3 may swap with each other only; same for 2,4.
            assert {sigma[0], sigma[2]} == {1, 3}
            assert {sigma[1], sigma[3]} == {2, 4}


class TestExactError:
    def test_pair_distinct_matches_closed_series(self):
        dt = 0.5
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 50), dt)
        pattern = EqualityPattern.distinct(2)
        for q in (0, 1, 2, 5, 10, 25, 50):
            exact = exact_error(tensor, pattern, q=q)
            closed = series_error("pair_legendre", q, dt)
            assert exact == pytest.approx(closed, rel=1e-12)

    def test_banded_weighted_pair_matches_closed_series(self):
        dt = 0.5
        spec = KernelSpec(2, (1, 0))
        for q in (1, 2, 5, 9):
            tensor = scaled_tensor(coeff_tensor(spec, q + 2), dt)
            mask = pair_series_support(q)
            distinct = exact_error(
                tensor, EqualityPattern.distinct(2), q=q + 2, support=mask
            )
            equal = exact_error(
                tensor, EqualityPattern.all_equal(2), q=q + 2, support=mask
            )
            assert distinct == pytest.approx(
                series_error("pair_legendre_weighted", q, dt), rel=1e-11
            )
            assert equal == pytest.approx(
                series_error("pair_legendre_weighted_equal", q, dt), rel=1e-11
            )

    def test_monotone_in_q(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 8), 0.5)
        pattern = EqualityPattern.distinct(3)
        errors = [exact_error(tensor, pattern, q=q) for q in range(9)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert all(e > 0 for e in errors)

    def test_named_constants(self):
        # Unit-interval error constants of the plain expansions, frozen
        # from the exact rational computation.
        cases = [
            (KernelSpec.unweighted(3), 6, 0.019553857606871283),
            (KernelSpec.unweighted(4), 2, 0.022913992272758504),
            (KernelSpec(3, (1, 0, 0)), 2, 0.008154289),
            (KernelSpec(3, (0, 1, 0)), 2, 0.016834845),
            (KernelSpec(3, (0, 0, 1)), 2, 0.025280140),
            (KernelSpec.unweighted(5), 1, 0.007589521919879063),
        ]
        for spec, q, expected in cases:
            tensor = scaled_tensor(coeff_tensor(spec, q, threads=4), 1.0)
            value = exact_error(tensor, EqualityPattern.distinct(spec.k), q=q)
            assert value == pytest.approx(expected, rel=1e-7)

    def test_support_shape_checked(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 3), 0.5)
        with pytest.raises(ValueError):
            exact_error(
                tensor,
                EqualityPattern.distinct(2),
                q=3,
                support=np.ones((2, 2), dtype=bool),
            )

    def test_pattern_multiplicity_checked(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 2), 0.5)
        with pytest.raises(ValueError):
            exact_error(tensor, EqualityPattern.distinct(3))


class TestErrorBound:
    def test_dominates_exact_error(self):
        dt = 0.5
        for spec, comps in [
            (KernelSpec.unweighted(2), (1, 1)),
            (KernelSpec.unweighted(3), (1, 1, 2)),
            (KernelSpec.unweighted(3), (1, 1, 1)),
        ]:
            tensor = scaled_tensor(coeff_tensor(spec, 6), dt)
            pattern = EqualityPattern.from_components(comps)
            for q in range(7):
                assert error_bound(tensor, q=q) >= exact_error(
                    tensor, pattern, q=q
                ) - 1e-15

    def test_factorial_prefactor(self):
        dt = 0.5
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 4), dt)
        values = tensor.truncated(4)
        tail = kernel_norm(tensor.spec, dt) - float(np.sum(values * values))
        assert error_bound(tensor, q=4) == pytest.approx(6.0 * tail, rel=1e-14)

    def test_report_bundles_routes(self):
        dt = 0.5
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 4), dt)
        report = error_report(
            tensor, EqualityPattern.distinct(2), q=4, series_kind="pair_legendre"
        )
        assert report.exact == pytest.approx(report.series, rel=1e-12)
        assert report.bound >= report.exact
        assert report.kernel_norm == pytest.approx(dt * dt / 2.0, rel=1e-15)


class TestClosedSeries:
    @pytest.mark.parametrize("kind", ["triple_trig", "triple_trig_tail", "pair_trig_weighted"])
    def test_trig_interaction_series_capped(self, kind):
        assert math.isfinite(series_error(kind, TRIG_SERIES_CAP, 1.0))
        with pytest.raises(SeriesCapError, match="cap"):
            series_error(kind, TRIG_SERIES_CAP + 1, 1.0)

    def test_known_kinds(self):
        assert set(SERIES_KINDS) == {
            "pair_legendre",
            "pair_legendre_weighted",
            "pair_legendre_weighted_equal",
            "pair_trig",
            "pair_trig_tail",
            "pair_trig_weighted",
            "single_trig_weighted",
            "triple_trig",
            "triple_trig_tail",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            series_error("no_such_kind", 1, 0.5)
        with pytest.raises(ValueError):
            series_error("pair_legendre", -1, 0.5)
        with pytest.raises(ValueError):
            series_error("pair_legendre_weighted", 0, 0.5)
        for dt in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                series_error("pair_legendre", 1, dt)

    def test_pair_legendre_closed_form(self):
        # dt^2 / (4 (2q + 1))
        for q in (0, 3, 10, 100):
            assert series_error("pair_legendre", q, 0.7) == pytest.approx(
                0.49 / (4 * (2 * q + 1)), rel=1e-15
            )

    def test_weighted_pair_first_value(self):
        # q = 1 leaves the finite part empty: value fixed by the tail sums
        # a = 1/3, b = 1/5, c = 1/7 alone.
        a, b, c = 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0
        expected = (
            a + (a * a + b * b) / 16.0 - (a + b) / 32.0 + 5.0 * (b + c) / 32.0
        ) / 16.0
        assert series_error("pair_legendre_weighted", 1, 1.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_weighted_equal_pair_first_value(self):
        a, b, c = 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0
        expected = ((c - a) / 16.0 + (a * a + b * b) / 8.0) / 16.0
        assert series_error("pair_legendre_weighted_equal", 1, 1.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_trig_pair_tail_relation(self):
        # Modeling the discarded tail with extra Gaussians removes
        # exactly dt^2 alpha(q) / pi^2 from the pair error.
        from scipy.special import polygamma

        dt = 0.7
        for q in (0, 1, 5, 50):
            alpha = float(polygamma(1, q + 1))
            gap = series_error("pair_trig", q, dt) - series_error(
                "pair_trig_tail", q, dt
            )
            assert gap == pytest.approx(dt * dt * alpha / math.pi**2, rel=1e-13)

    def test_trig_alpha_matches_brute_tail(self):
        # alpha(q) = sum_{r > q} 1/r^2, evaluated here by an independent
        # accelerated summation.
        import mpmath as mp

        for q in (0, 2, 7):
            tail = float(mp.nsum(lambda r: 1.0 / r**2, [q + 1, mp.inf]))
            assert series_error("pair_trig_tail", q, 1.0) == pytest.approx(
                tail / (2.0 * math.pi**2), rel=1e-12
            )

    def test_single_trig_weighted_form(self):
        from scipy.special import polygamma

        dt = 0.7
        for q in (0, 1, 4):
            alpha = float(polygamma(1, q + 1))
            assert series_error("single_trig_weighted", q, dt) == pytest.approx(
                dt**3 * alpha / (2.0 * math.pi**2), rel=1e-13
            )

    def test_triple_trig_exceeds_tail_variant(self):
        for q in (1, 2, 10):
            assert series_error("triple_trig", q, 0.5) > series_error(
                "triple_trig_tail", q, 0.5
            )

    def test_all_kinds_decrease_and_vanish(self):
        dt = 0.5
        for kind in SERIES_KINDS:
            q0 = 1 if "weighted" in kind and "single" not in kind else 0
            values = [series_error(kind, q, dt) for q in range(q0, q0 + 30)]
            assert all(v > 0 for v in values)
            assert values[-1] < values[0]
            assert series_error(kind, 4000, dt) < 1e-3 * values[0]

    def test_frequency_interaction_sums_match_brute_force(self):
        # The closed triple/weighted-pair forms reduce two double
        # frequency sums to harmonic partial sums in O(q); compare the
        # reduction with the direct O(q^2) sums.
        from stochint.errors import _frequency_interaction_sums

        for q in (1, 2, 3, 10, 40):
            s_b, s_c = _frequency_interaction_sums(q)
            pairs = [
                (r, l)
                for r in range(1, q + 1)
                for l in range(1, q + 1)
                if l != r
            ]
            brute_b = sum(1.0 / (l * l * (r * r - l * l)) for r, l in pairs)
            brute_c = sum(1.0 / (r * r - l * l) ** 2 for r, l in pairs)
            assert s_b == pytest.approx(brute_b, rel=1e-12, abs=1e-15)
            assert s_c == pytest.approx(brute_c, rel=1e-12, abs=1e-15)

    def test_triple_trig_reconstruction_from_brute_sums(self):
        # Rebuild the triple error bracket from scratch using the brute
        # double sums and partial harmonic sums.
        dt = 0.5
        pi2 = math.pi**2
        pi4 = pi2 * pi2
        for q in (1, 3, 10):
            pairs = [
                (r, l)
                for r in range(1, q + 1)
                for l in range(1, q + 1)
                if l != r
            ]
            s_b = sum(1.0 / (l * l * (r * r - l * l)) for r, l in pairs)
            s_c = sum(1.0 / (r * r - l * l) ** 2 for r, l in pairs)
            h2 = sum(1.0 / r**2 for r in range(1, q + 1))
            h4 = sum(1.0 / r**4 for r in range(1, q + 1))
            d = 5.0 * (h2 * h2 - h4) - s_b + 6.0 * s_c
            expected = dt**3 * (
                5.0 / 36.0 - h2 / (2.0 * pi2) - 79.0 * h4 / (32.0 * pi4) - d / (4.0 * pi4)
            )
            assert series_error("triple_trig", q, dt) == pytest.approx(
                expected, rel=1e-12
            )
            expected_weighted = dt**4 / 4.0 * (
                1.0 / 9.0
                - h2 / (2.0 * pi2)
                - 5.0 * h4 / (8.0 * pi4)
                - (2.0 * s_c + s_b) / pi4
            )
            assert series_error("pair_trig_weighted", q, dt) == pytest.approx(
                expected_weighted, rel=1e-12
            )

    def test_decay_rates(self):
        # Pair errors decay like 1/q, the tail-augmented and weighted
        # variants at least as fast.
        dt = 1.0
        for kind in ("pair_legendre", "pair_trig", "pair_trig_tail"):
            r = series_error(kind, 400, dt) / series_error(kind, 200, dt)
            assert r == pytest.approx(0.5, abs=0.02)


class TestPolygammaPort:
    """The Cephes Hurwitz-zeta port against scipy, kept as a test-only reference.

    scipy is imported inside each test that uses it, here and in
    ``TestClosedSeries``, not at module level: a test process that has
    loaded ``scipy.special`` runs the oracle slower, and every test
    collected with this module would pay for it.
    """

    #: q = 0..20000 and a log grid up to 1e8.
    QS = sorted(set(range(20001)) | {int(v) for v in np.round(np.logspace(0, 8, 3001))})

    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_scipy(self, n):
        from scipy.special import polygamma

        x = np.array(self.QS, dtype=np.float64) + 1.0
        reference = polygamma(n, x)
        mismatched = [
            q for q, xi, ref in zip(self.QS, x.tolist(), reference.tolist())
            if _polygamma(n, xi) != ref
        ]
        assert mismatched == []

    def test_import_does_not_load_scipy(self):
        import stochint

        code = "import sys, stochint.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_tail_sums_match_the_scipy_forms(self):
        from scipy.special import polygamma

        for q in self.QS[::97] + [10**8]:
            assert _tail_sum_squares(q) == float(polygamma(1, q + 1))
            assert _tail_sum_fourths(q) == float(polygamma(3, q + 1)) / 6.0
