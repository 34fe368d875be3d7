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

:func:`triple_trig` is the exact form of the unweighted triple series,
:math:`\tfrac5{36} - \tfrac{H_2}{2\pi^2} - \tfrac{79}{32}\tfrac{H_4}{\pi^4}
- \tfrac{d}{4\pi^4}` with :math:`d = 5(H_2^2 - H_4) - S_b + 6 S_c` and the
interaction sums :math:`S_b, S_c` of :func:`interaction_sums`.  It is not
in :data:`SERIES`: its :math:`\pi^0` and :math:`\pi^{-2}` parts are the
full-grid tail's, but its :math:`\pi^{-4}` part lies below it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

from stochint.coeffs import KernelSpec
from stochint.errors import kernel_norm_exact

from trig_coeff_reference import _trig_bars


def _trimmed(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def harmonic(q: int, p: int) -> Fraction:
    """``H_p(q) = sum(1/n**p for n in 1..q)``."""
    return sum((Fraction(1, n**p) for n in range(1, q + 1)), Fraction(0))


def interaction_sums(q: int) -> tuple[Fraction, Fraction]:
    """``(S_b, S_c)``: the sums of ``1/(l²(r² − l²))`` and ``1/(r² − l²)²`` over
    ``1 <= r, l <= q``, ``r != l``, term by term."""
    pairs = [(r, l) for r in range(1, q + 1) for l in range(1, q + 1) if r != l]
    s_b = sum((Fraction(1, l * l * (r * r - l * l)) for r, l in pairs), Fraction(0))
    s_c = sum((Fraction(1, (r * r - l * l) ** 2) for r, l in pairs), Fraction(0))
    return s_b, s_c


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
    return _trimmed((Fraction(1, 4), Fraction(0), -Fraction(3, 2) * harmonic(q, 2)))


def single_trig_weighted(q: int) -> tuple[Fraction, ...]:
    return _trimmed((Fraction(1, 12), Fraction(0), -harmonic(q, 2) / 2))


def triple_trig(q: int) -> tuple[Fraction, ...]:
    h2, h4 = harmonic(q, 2), harmonic(q, 4)
    s_b, s_c = interaction_sums(q)
    d = 5 * (h2 * h2 - h4) - s_b + 6 * s_c
    pi4 = -Fraction(79, 32) * h4 - d / 4
    return _trimmed((Fraction(5, 36), Fraction(0), -h2 / 2, Fraction(0), pi4))


#: Series kind of ``series_error`` -> (its kernel, its exact form at ``dt = 1``).
SERIES = {
    "pair_trig": (KernelSpec.unweighted(2), pair_trig),
    "single_trig_weighted": (KernelSpec(1, (1,)), single_trig_weighted),
}
