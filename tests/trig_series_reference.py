r"""Exact forms of the trigonometric error series, against exact coefficient sums.

At finite ``q`` and ``dt = 1`` every quantity here is a polynomial in
:math:`1/\pi` with rational coefficients, held as a tuple whose entry ``p``
multiplies :math:`\pi^{-p}` (no trailing zeros), so two of them agree
exactly when they are ``==``, one power of :math:`1/\pi` at a time.

* :func:`full_grid_tail` is :math:`I_k - \sum C_j^2` over
  :math:`j \in \{0..2q\}^k`: the mean-square error of the expansion that
  keeps every frequency up to ``q``.  Its cells come from one walk of the
  exact ``_trig_bars``.
* :data:`SERIES` holds the closed form of each series of
  :func:`stochint.errors.series_error` whose identity is pinned, written
  with :math:`\sum_{n > q} 1/n^2 = \pi^2/6 - H_2(q)`,
  :math:`H_2(q) = \sum_{n \le q} 1/n^2`.

Pinned so far: ``pair_trig`` (unweighted pair,
:math:`\tfrac{3}{2\pi^2}\sum_{n>q} 1/n^2 = \tfrac14 - \tfrac32 H_2(q)/\pi^2`)
and ``single_trig_weighted`` (single integral with weight ``(t-s)``,
:math:`\tfrac{1}{2\pi^2}\sum_{n>q} 1/n^2 = \tfrac1{12} - H_2(q)/(2\pi^2)`):
each is the full-grid tail of its kernel.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from stochint.coeffs import KernelSpec, _trig_bars
from stochint.errors import kernel_norm_exact


def _trimmed(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def harmonic2(q: int) -> Fraction:
    """``H2(q) = sum(1/n**2 for n in 1..q)``."""
    return sum((Fraction(1, n * n) for n in range(1, q + 1)), Fraction(0))


def full_grid_tail(spec: KernelSpec, q: int) -> tuple[Fraction, ...]:
    r"""Exact :math:`I_k - \sum_{j \in \{0..2q\}^k} C_j^2` at ``dt = 1``, by powers of :math:`1/\pi`.

    ``C_j = bar_j * 2**(nonzero indices / 2) / 2**(L + k)``, the scaling of
    ``trig_coeff``, so :math:`C_j^2` is rational in each power.
    """
    total = defaultdict(Fraction)
    total[0] = kernel_norm_exact(spec)
    cells = itertools.product(range(2 * q + 1), repeat=spec.k)
    for j, bar in _trig_bars(spec, cells):
        weight = Fraction(2 ** sum(map(bool, j)), 4 ** (spec.total_weight + spec.k))
        for (a, x), (b, y) in itertools.product(enumerate(bar), repeat=2):
            total[a + b] -= weight * x * y
    return _trimmed(total[p] for p in range(max(total) + 1))


def pair_trig(q: int) -> tuple[Fraction, ...]:
    return _trimmed((Fraction(1, 4), Fraction(0), -Fraction(3, 2) * harmonic2(q)))


def single_trig_weighted(q: int) -> tuple[Fraction, ...]:
    return _trimmed((Fraction(1, 12), Fraction(0), -harmonic2(q) / 2))


#: Series kind of ``series_error`` -> (its kernel, its exact form at ``dt = 1``).
SERIES = {
    "pair_trig": (KernelSpec.unweighted(2), pair_trig),
    "single_trig_weighted": (KernelSpec(1, (1,)), single_trig_weighted),
}
