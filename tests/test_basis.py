"""Exact rational polynomial layer: arithmetic, Legendre family, products."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.basis import (
    RatPoly,
    antiderivative,
    definite_integral,
    legendre_poly,
    product_expand,
    _legendre_terms,
)

import fraction_reference

# Coefficient lists (ascending powers) cross-checked against an
# independent computer-algebra evaluation of the same polynomials.
KNOWN_COEFFS = {
    0: [Fraction(1)],
    1: [0, Fraction(1)],
    2: [Fraction(-1, 2), 0, Fraction(3, 2)],
    3: [0, Fraction(-3, 2), 0, Fraction(5, 2)],
    4: [Fraction(3, 8), 0, Fraction(-15, 4), 0, Fraction(35, 8)],
    5: [0, Fraction(15, 8), 0, Fraction(-35, 4), 0, Fraction(63, 8)],
}

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
poly_coeffs = st.lists(small_fractions, min_size=0, max_size=5)


def _poly(coeffs: list[Fraction]) -> RatPoly:
    return RatPoly.from_coeffs(coeffs)


class TestRatPoly:
    def test_constructors(self):
        assert RatPoly.zero().degree == -1
        assert RatPoly.one()(Fraction(7, 3)) == 1
        assert RatPoly.x()(Fraction(7, 3)) == Fraction(7, 3)
        assert not RatPoly.zero()
        assert RatPoly.one()

    def test_trailing_zero_normalization(self):
        assert _poly([1, 2, 0, 0]) == _poly([1, 2])
        assert _poly([0, 0]).degree == -1

    @settings(max_examples=60, deadline=None)
    @given(poly_coeffs, poly_coeffs, small_fractions)
    def test_evaluation_homomorphism(self, a, b, x):
        p, q = _poly(a), _poly(b)
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)

    @settings(max_examples=40, deadline=None)
    @given(poly_coeffs, small_fractions)
    def test_scale(self, a, c):
        p = _poly(a)
        x = Fraction(1, 3)
        assert p.scale(c)(x) == c * p(x)

    @settings(max_examples=40, deadline=None)
    @given(poly_coeffs, poly_coeffs)
    def test_derivative_product_rule(self, a, b):
        p, q = _poly(a), _poly(b)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(poly_coeffs)
    def test_antiderivative_inverts_derivative(self, a):
        p = _poly(a)
        assert antiderivative(p).derivative() == p

    @settings(max_examples=40, deadline=None)
    @given(poly_coeffs)
    def test_definite_integral_splits(self, a):
        p = _poly(a)
        lo, mid, hi = Fraction(-1), Fraction(1, 4), Fraction(2)
        assert definite_integral(p, lo, hi) == definite_integral(
            p, lo, mid
        ) + definite_integral(p, mid, hi)

    @pytest.mark.parametrize("k", range(6))
    def test_monomial_integral(self, k):
        p = _poly([0] * k + [1])
        a, b = Fraction(-1, 2), Fraction(3, 2)
        expected = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert definite_integral(p, a, b) == expected


class TestLegendreFamily:
    @pytest.mark.parametrize("n", sorted(KNOWN_COEFFS))
    def test_low_degree_coefficients(self, n):
        p = legendre_poly(n)
        padded = list(p.coeffs) + [Fraction(0)] * (n + 1 - len(p.coeffs))
        assert padded == [Fraction(c) for c in KNOWN_COEFFS[n]]

    def test_integer_terms(self):
        for n in range(41):
            assert _legendre_terms(n) == [c * 2**n for c in legendre_poly(n).coeffs]

    @pytest.mark.parametrize("n", range(13))
    def test_orthogonality_and_norm(self, n):
        pn = legendre_poly(n)
        for m in range(n + 1):
            integral = definite_integral(pn * legendre_poly(m), -1, 1)
            if m == n:
                assert integral == Fraction(2, 2 * n + 1)
            else:
                assert integral == 0

    @pytest.mark.parametrize("n", range(7))
    def test_rodrigues_construction(self, n):
        # Independent route: n-th derivative of (x^2 - 1)^n / (2^n n!).
        base = RatPoly.from_coeffs([-1, 0, 1])
        power = RatPoly.one()
        for _ in range(n):
            power = power * base
        for _ in range(n):
            power = power.derivative()
        rodrigues = power.scale(Fraction(1, 2**n * math.factorial(n)))
        assert rodrigues == legendre_poly(n)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_three_term_recurrence(self, n):
        lhs = legendre_poly(n + 1).scale(n + 1)
        rhs = (RatPoly.x() * legendre_poly(n)).scale(2 * n + 1) - legendre_poly(
            n - 1
        ).scale(n)
        assert lhs == rhs

    def test_cold_build_needs_no_recursion(self):
        # Building P_n recursed once per lower index; under a recursion
        # limit a little above the current stack depth, P_300 needs none.
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        legendre_poly.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            p = legendre_poly(300)
        finally:
            sys.setrecursionlimit(limit)
        assert p.degree == 300 and p(1) == 1
        assert legendre_poly.cache_info().maxsize is not None

    @pytest.mark.parametrize("n", range(11))
    def test_endpoint_values(self, n):
        p = legendre_poly(n)
        assert p(1) == 1
        assert p(-1) == (-1) ** n
        assert legendre_poly(n + 1)(-1) == -p(-1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_derivative_identity(self, n):
        # (2n + 1) P_n = P'_{n+1} - P'_{n-1}
        lhs = legendre_poly(n).scale(2 * n + 1)
        rhs = legendre_poly(n + 1).derivative() - legendre_poly(n - 1).derivative()
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lower_moments_vanish(self, n):
        for k in range(n):
            p = RatPoly.from_coeffs([0] * k + [1]) * legendre_poly(n)
            assert definite_integral(p, -1, 1) == 0

    @pytest.mark.parametrize("n", range(9))
    def test_leading_moment(self, n):
        # int_{-1}^{1} x^n P_n dx = 2^{n+1} (n!)^2 / (2n+1)!
        p = RatPoly.from_coeffs([0] * n + [1]) * legendre_poly(n)
        expected = Fraction(
            2 ** (n + 1) * math.factorial(n) ** 2, math.factorial(2 * n + 1)
        )
        assert definite_integral(p, -1, 1) == expected


class TestProductExpansion:
    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("n", range(9))
    def test_reconstruction(self, m, n):
        terms = product_expand(m, n)
        acc = RatPoly.zero()
        for idx, coeff in terms:
            acc = acc + legendre_poly(idx).scale(coeff)
        assert acc == legendre_poly(m) * legendre_poly(n)

    def test_symmetry(self):
        assert product_expand(3, 5) == product_expand(5, 3)

    def test_matches_double_factorial_route(self):
        # The integer rows against K built from a_k = (2k-1)!!/k! in Fractions.
        for m in range(25):
            for n in range(25):
                assert product_expand(m, n) == fraction_reference.product_expand(m, n)

    def test_coefficients_sum_to_one(self):
        # Evaluating the reconstruction at x = 1 gives P_m(1) P_n(1) = 1.
        for m in range(7):
            for n in range(7):
                assert sum(c for _, c in product_expand(m, n)) == 1

    def test_degree_one_square(self):
        assert dict(product_expand(1, 1)) == {
            0: Fraction(1, 3),
            2: Fraction(2, 3),
        }

    def test_band_limits(self):
        # P_m P_n expands over degrees |m - n| .. m + n of matching parity.
        for m in range(6):
            for n in range(6):
                indices = [idx for idx, _ in product_expand(m, n)]
                assert min(indices) == abs(m - n)
                assert max(indices) == m + n
                assert all((idx - (m + n)) % 2 == 0 for idx in indices)

