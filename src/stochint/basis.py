r"""Exact rational polynomial arithmetic and Legendre polynomials.

Everything in this module is computed over arbitrary-precision rationals;
floating point appears nowhere.  The module supplies dense rational
polynomials, antiderivatives with zero constant term, exact definite
integrals, Legendre polynomials :math:`P_n` generated by the three-term
recurrence

.. math:: x P_j(x) = \frac{(j+1) P_{j+1}(x) + j P_{j-1}(x)}{2j+1},

and the product linearization

.. math:: P_m(x) P_n(x) = \sum_{k=0}^{m} K_{m,n,k}\, P_{m+n-2k}(x),
          \qquad
          K_{m,n,k} = \frac{a_{m-k}\, a_k\, a_{n-k}}{a_{m+n-k}}
          \cdot \frac{2n+2m-4k+1}{2n+2m-2k+1},
          \qquad a_k = \frac{(2k-1)!!}{k!},

with :math:`(-1)!! = 1` so that :math:`a_0 = 1`.  With :math:`a_k` replaced
by the central binomial :math:`\binom{2k}{k} = 2^k a_k` the powers of two
cancel, so each :math:`K` is a ratio of integers; :func:`_product_rows`
gives them over one denominator per product, and the coefficient engine
works on Legendre-coefficient vectors through them.  The polynomials serve
the kernel norms, the oracle and independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

__all__ = [
    "Rational",
    "RatPoly",
    "legendre_poly",
    "product_expand",
    "antiderivative",
    "definite_integral",
]

# Exact rational scalar used throughout: arbitrary-precision numerator,
# positive denominator, always in lowest terms.
Rational = Fraction


def _as_rational(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class RatPoly:
    r"""Dense univariate polynomial over rationals.

    ``coeffs[i]`` is the coefficient of :math:`x^i`.  The tuple carries no
    trailing zeros above the degree; the zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient above degree")

    @staticmethod
    def from_coeffs(values: list[int | Fraction] | tuple[int | Fraction, ...]) -> RatPoly:
        coeffs = [_as_rational(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return RatPoly(tuple(coeffs))

    @staticmethod
    def zero() -> RatPoly:
        return RatPoly(())

    @staticmethod
    def one() -> RatPoly:
        return RatPoly((Fraction(1),))

    @staticmethod
    def x() -> RatPoly:
        return RatPoly((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: RatPoly) -> RatPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return RatPoly.from_coeffs(out)

    def __sub__(self, other: RatPoly) -> RatPoly:
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: RatPoly) -> RatPoly:
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly.from_coeffs(out)

    def scale(self, factor: int | Fraction) -> RatPoly:
        f = _as_rational(factor)
        if f == 0:
            return RatPoly.zero()
        return RatPoly(tuple(c * f for c in self.coeffs))

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> RatPoly:
        if len(self.coeffs) <= 1:
            return RatPoly.zero()
        return RatPoly.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )


def antiderivative(p: RatPoly) -> RatPoly:
    """Antiderivative of ``p`` with zero constant term."""
    if not p.coeffs:
        return RatPoly.zero()
    out = [Fraction(0)]
    out.extend(c / (i + 1) for i, c in enumerate(p.coeffs))
    return RatPoly.from_coeffs(out)


def definite_integral(p: RatPoly, a: int | Fraction, b: int | Fraction) -> Fraction:
    """Exact integral of ``p`` over ``[a, b]``."""
    anti = antiderivative(p)
    return anti(b) - anti(a)


@lru_cache(maxsize=None)
def legendre_poly(n: int) -> RatPoly:
    r"""Legendre polynomial :math:`P_n` with exact rational coefficients.

    Generated by the three-term recurrence; normalized so
    :math:`P_n(1) = 1`.

    Args:
        n: polynomial index, ``n >= 0``.

    Returns:
        The exact polynomial :math:`P_n`.
    """
    if n < 0:
        raise ValueError("Legendre index must be nonnegative")
    if n == 0:
        return RatPoly.one()
    if n == 1:
        return RatPoly.x()
    prev, cur = legendre_poly(n - 2), legendre_poly(n - 1)
    # (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1}  with  j = n - 1
    j = n - 1
    xc = (RatPoly.x() * cur).scale(Fraction(2 * j + 1, j + 1))
    return xc - prev.scale(Fraction(j, j + 1))


def _common_multiple(pairs) -> int:
    """Least ``m`` with ``c * m`` divisible by ``d`` for every ``(c, d)`` in ``pairs``."""
    return math.lcm(*(d // math.gcd(c, d) for c, d in pairs))


_Row = tuple[int, tuple[tuple[int, int], ...]]


def _linearization(m: int, n: int, central: Sequence[int]) -> _Row:
    """:math:`P_m P_n` as ``(den, ((index, a), ...))``: the sum of ``a / den`` times
    :math:`P_{index}`, from the central binomials ``central[i]``, ``i <= m + n``."""
    if m > n:
        m, n = n, m
    s = m + n
    terms = [
        (central[m - k] * central[k] * central[n - k] * (2 * s - 4 * k + 1),
         central[s - k] * (2 * s - 2 * k + 1))
        for k in range(m + 1)
    ]
    den = _common_multiple(terms)
    return den, tuple((s - 2 * k, a * den // d) for k, (a, d) in enumerate(terms))


def _product_rows() -> Callable[[int, int], _Row]:
    """A memo of the integer linearization of :math:`P_m P_n` for one engine call.

    Each call makes a fresh memo, so no table outlives the call that needs
    it, and the memo keeps the 4096 rows used last: a dense k=3 tensor at
    q=60 reads 3782 rows, and the exact triple sum reuses a row within about
    4q reads.
    """
    central = [1]

    @lru_cache(maxsize=4096)
    def row(m: int, n: int) -> _Row:
        while len(central) <= m + n:
            i = len(central)
            central.append(central[-1] * (4 * i - 2) // i)
        return _linearization(m, n, central)

    return row


def product_expand(m: int, n: int) -> tuple[tuple[int, Fraction], ...]:
    r"""Expand :math:`P_m P_n` in the Legendre basis.

    Args:
        m, n: indices of the two factors (swapped internally so the
            linearization runs over ``k = 0..min(m, n)``).

    Returns:
        Tuple of ``(index, K)`` pairs: :math:`P_m P_n = \sum K\, P_{index}`.
    """
    if m < 0 or n < 0:
        raise ValueError("Legendre indices must be nonnegative")
    den, terms = _linearization(m, n, [math.comb(2 * i, i) for i in range(m + n + 1)])
    return tuple((idx, Fraction(a, den)) for idx, a in terms)
