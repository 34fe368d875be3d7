"""The level-by-level route to the exact trigonometric coefficients.

The library walks trigonometric indices through the one depth-first prefix
walk of :mod:`stochint.coeffs`, so sorted cells share their levels.  This
module keeps the route it replaced as the ``==`` reference: every cell
rebuilds all ``k`` levels, and the weight ``u**l`` of a level is applied
inside the product with its basis function.  :func:`trig_bar_levelwise`,
:func:`_trig_times_basis` and :func:`_trig_integral` are the library's
former ``_trig_bar``, ``_trig_times_basis`` and ``_trig_integral``, with
their bodies unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from stochint.coeffs import KernelSpec

# A term is the key (f, s, n, p) of a dict holding its rational coefficient:
# u**n * cos(2 pi f u) (s = 0) or u**n * sin(2 pi f u) (s = 1), times pi**-p.


def _trig_times_basis(terms: dict, j: int, l: int) -> dict:
    """Multiply by ``u**l`` and basis function ``j`` without its sqrt(2), product to sum."""
    r, b = (j + 1) // 2, j % 2
    out = defaultdict(Fraction)
    for (f, s, n, p), c in terms.items():
        kind = s ^ b
        for g, sign in ((f + r, -1 if s & b else 1), (f - r, -1 if b > s else 1)):
            if g < 0:
                g, sign = -g, -sign if kind else sign
            if g or not kind:
                out[g, kind, n + l, p] += sign * c / 2
    return out


def _trig_integral(terms: dict) -> dict:
    """``int_0^u`` of each term, by parts; each ``1/(2 pi f)`` adds one power of ``1/pi``."""
    out = defaultdict(Fraction)
    for (f, s, n, p), c in terms.items():
        if not f:
            out[0, 0, n + 1, p] += c / (n + 1)
            continue
        while True:
            c, p = c / (2 * f), p + 1
            sign = -1 if s else 1  # the antiderivative of cos is sin, of sin is -cos
            out[f, 1 - s, n, p] += sign * c
            if not n:
                if s:
                    out[0, 0, 0, p] += c  # cos(0) at the lower limit
                break
            c, s, n = -sign * n * c, 1 - s, n - 1
    return out


def trig_bar_levelwise(spec: KernelSpec, j: tuple[int, ...]) -> tuple[Fraction, ...]:
    r"""Exact trigonometric :math:`\bar C`; entry ``p`` multiplies :math:`\pi^{-p}`.

    The basis functions of :func:`trig_coeff` lose their :math:`\sqrt2`.  At
    :math:`u = 1` only the cosine terms remain, as :math:`\sin(2\pi f) = 0`
    and :math:`\cos(2\pi f) = 1`.
    """
    terms = {(0, 0, 0, 0): Fraction(1)}
    for l, idx in zip(spec.weights, j):
        terms = _trig_integral(_trig_times_basis(terms, idx, l))
    at_one = defaultdict(Fraction)
    for (_, s, _, p), c in terms.items():
        if not s:
            at_one[p] += c
    scale = (-2) ** spec.total_weight * 2**spec.k
    return tuple(scale * at_one[p] for p in range(max(at_one, default=0) + 1))
