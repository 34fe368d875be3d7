"""The Fraction route to the exact coefficients, kept as the ``==`` reference.

The library holds each Legendre series as integer numerators over one
denominator, and the product linearization as integer rows.  This module
keeps the same three rules (weight factor, product with :math:`P_j`,
integral from -1) on lists of :class:`~fractions.Fraction`, with the
linearization coefficients built from :math:`a_k = (2k-1)!!/k!` as the
:mod:`stochint.basis` docstring writes them, and builds from them the dense
tensor, single coefficients, the exact rows of the pair-series band table
and the Parseval fiber sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from stochint.coeffs import KernelSpec


@lru_cache(maxsize=None)
def double_factorial_ratio(k: int) -> Fraction:
    """The sequence a_k = (2k-1)!!/k!, with a_0 = 1."""
    if k == 0:
        return Fraction(1)
    return double_factorial_ratio(k - 1) * Fraction(2 * k - 1, k)


@lru_cache(maxsize=None)
def product_expand(m: int, n: int) -> tuple[tuple[int, Fraction], ...]:
    """``(index, K)`` pairs with ``P_m P_n = sum(K * P_index)``."""
    if m > n:
        m, n = n, m
    a = double_factorial_ratio
    return tuple(
        (m + n - 2 * k,
         a(m - k) * a(k) * a(n - k) / a(m + n - k)
         * Fraction(2 * n + 2 * m - 4 * k + 1, 2 * n + 2 * m - 2 * k + 1))
        for k in range(m + 1)
    )


# Legendre series are lists ``c`` standing for ``sum(c[n] * P_n)``: nonzero
# entries are Fractions, absent terms the integer 0.


def times_weight(series: list, l: int) -> list:
    """Multiply a series by ``(-(1+x))**l``."""
    for _ in range(l):
        out = [0] * (len(series) + 1)
        for n, c in enumerate(series):
            if c:
                out[n] -= c
                c = c / (2 * n + 1)
                out[n + 1] -= (n + 1) * c
                if n:
                    out[n - 1] -= n * c
        series = out
    return series


def times_legendre(series: list, j: int) -> list:
    """Multiply a series by ``P_j``."""
    out = [0] * (len(series) + j)
    for n, c in enumerate(series):
        if c:
            for idx, k in product_expand(j, n):
                out[idx] += c * k
    return out


def integral(series: list) -> list:
    """Antiderivative of a series that vanishes at -1."""
    out = [0] * (len(series) + 1)
    for n, c in enumerate(series):
        if c:
            if n == 0:
                out[0] += c
                out[1] += c
            else:
                c = c / (2 * n + 1)
                out[n + 1] += c
                out[n - 1] -= c
    return out


def outer_series(spec: KernelSpec, prefix: tuple[int, ...]) -> list:
    """Series ``h = w_{l_k} F_{k-1}`` of the inner indices ``(j_1..j_{k-1})``."""
    series = [Fraction(1)]
    for l, j in zip(spec.weights, prefix):
        series = integral(times_legendre(times_weight(series, l), j))
    return times_weight(series, spec.weights[-1])


def outer_coeff(h: list, j: int) -> Fraction:
    """Orthogonality lookup ``int_{-1}^{1} P_j h = 2 h_j / (2j+1)``."""
    return h[j] * Fraction(2, 2 * j + 1) if j < len(h) else Fraction(0)


def bar_coeff(spec: KernelSpec, j: tuple[int, ...]) -> Fraction:
    return outer_coeff(outer_series(spec, tuple(j[:-1])), j[-1])


def coeff_tensor(spec: KernelSpec, q: int) -> np.ndarray:
    """Object array of every :math:`\\bar C` on ``{0..q}^k``, axis 0 innermost."""
    values = np.empty((q + 1,) * spec.k, dtype=object)
    for prefix in itertools.product(range(q + 1), repeat=spec.k - 1):
        h = outer_series(spec, prefix)
        values[prefix] = [outer_coeff(h, j) for j in range(q + 1)]
    return values


def fiber_square_sum(spec: KernelSpec, prefix: tuple[int, ...], q: int) -> Fraction:
    """``sum((2 j + 1) * bar**2 for j_k = j <= q)`` by Parseval: ``4 h_j**2 / (2j+1)``."""
    h = outer_series(spec, prefix)[: q + 1]
    return sum((4 * c * c / (2 * j + 1) for j, c in enumerate(h) if c), Fraction(0))


def pair_band_rows(weights: tuple[int, int], q: int) -> tuple[list, Fraction]:
    """The exact rows ``(offset, start, upper, lower)`` and the diagonal trace
    that :func:`stochint.coeffs._pair_bands` keeps, by the rules it documents."""
    spec = KernelSpec(2, weights)
    total = spec.total_weight
    series = [outer_series(spec, (a,)) for a in range(q + total + 2)]

    def cell(a: int, b: int) -> Fraction:
        value = outer_coeff(series[a], b)
        if {a, b} == {q, q + 1}:
            value -= (-1) ** total * bar_coeff(KernelSpec.unweighted(2), (a, b))
        return value

    rows = []
    for d in range(total + 2):
        n = (max(q, 1) if d == 0 and weights == (1, 1) else q) + 1
        upper = [cell(a, a + d) for a in range(n)]
        lower = [cell(a + d, a) if d else Fraction(0) for a in range(n)]
        kept = [a for a in range(n) if upper[a] or lower[a]]
        if kept:
            lo, hi = kept[0], kept[-1] + 1
            rows.append((d, lo, tuple(upper[lo:hi]), tuple(lower[lo:hi])))
    _, start, diagonal, _ = rows[0]
    trace = sum(((2 * a + 1) * c for a, c in enumerate(diagonal, start)), Fraction(0))
    return rows, trace / 2 ** (total + 2)
