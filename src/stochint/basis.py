r"""Exact rational polynomial arithmetic and Legendre polynomials.

Everything in this module is computed over arbitrary-precision integers
and rationals; floats appear only in the boundary rule ``_checked_float``.
The module supplies dense rational polynomials, antiderivatives with zero
constant term, exact definite integrals, Legendre polynomials :math:`P_n`
from their explicit sum

.. math:: P_n(x) = 2^{-n} \sum_{k \le n/2} (-1)^k \binom{n}{k}
          \binom{2n - 2k}{n}\, x^{n - 2k},

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
works on Legendre-coefficient vectors through them.  The oracle's basis
rows read the explicit sum as integers (``_legendre_terms``); the rational
polynomial layer (``RatPoly``, ``legendre_poly``, ``product_expand``,
``antiderivative``, ``definite_integral``) serves cross-checks only.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

__all__ = [
    "RatPoly",
    "legendre_poly",
    "product_expand",
    "antiderivative",
    "definite_integral",
]


def _checked_int(value, name: str, low: int | None = 0, high: int | None = None) -> int:
    """``value`` as an ``int`` in ``low..high``, with no end where a bound is None.

    The one integer rule of every library boundary: a ``bool``, anything
    ``operator.index`` refuses (``1.5``, ``"1"``) and a value out of range
    raise ``ValueError`` naming ``name``, so no integer is rounded, read
    from the end of an array or left for numpy to refuse.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} {value!r} is not an integer")
    value = operator.index(value)
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} {value} is outside {low}..{high}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f">= {low}"
        raise ValueError(f"{name} must be {bound}, not {value}")
    return value


def _checked_float(value, name: str, low: float = 0.0, high: float = math.inf) -> float:
    """``value`` as a ``float`` in ``(low, high)``: the one float rule.  A ``bool``, a
    non-``numbers.Real`` (``"0.5"``, ``Decimal``), NaN and ±inf raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not a real number")
    try:
        value = float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not low < value < high:
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), not {value!r}")
    return value


def _listing(keys) -> str:
    """A registry's keys, sorted; table numbers with no gap read ``first..last``."""
    keys = sorted(keys)
    if isinstance(keys[0], int) and keys == list(range(keys[0], keys[-1] + 1)):
        return f"{keys[0]}..{keys[-1]}"
    return ", ".join(map(str, keys))


def _checked_name(value, names, what: str):
    """``value`` if it is a key of ``names``: the one name rule.  A name is a ``str``; a
    table number is an ``int`` by :func:`_checked_int`, so ``True`` and ``4.0`` name nothing."""
    try:
        key = value if isinstance(value, str) else _checked_int(value, what, None)
    except ValueError:
        key = None
    if key not in names:
        raise ValueError(f"unknown {what} {value!r}; known: {_listing(names)}")
    return key


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


@lru_cache(maxsize=128, typed=True)
def legendre_poly(n: int) -> RatPoly:
    r"""Legendre polynomial :math:`P_n` with exact rational coefficients.

    Built from the explicit sum in the module docstring, with no recursion
    and no lower :math:`P_j`; normalized so :math:`P_n(1) = 1`.  The cache
    keeps the 128 polynomials used last, keyed by type too: ``True`` and
    ``1.0`` equal a cached ``np.int64(1)`` and would skip the index check.

    Args:
        n: polynomial index, ``n >= 0``.

    Returns:
        The exact polynomial :math:`P_n`.
    """
    n = _checked_int(n, "Legendre index")
    return RatPoly.from_coeffs([Fraction(c, 2**n) for c in _legendre_terms(n)])


def _legendre_terms(n: int) -> list[int]:
    """``2**n`` times the coefficients of :math:`P_n`, lowest power first, by the explicit sum."""
    terms = [0] * (n + 1)
    for k in range(n // 2 + 1):
        term = math.comb(n, k) * math.comb(2 * n - 2 * k, n)
        terms[n - 2 * k] = -term if k % 2 else term
    return terms


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
    m, n = (_checked_int(i, "Legendre index") for i in (m, n))
    den, terms = _linearization(m, n, [math.comb(2 * i, i) for i in range(m + n + 1)])
    return tuple((idx, Fraction(a, den)) for idx, a in terms)
