r"""Exact coefficients of simplex kernels in the trigonometric basis.

The basis on an interval of length ``dt`` is
:math:`\{1, \sqrt2 \sin(2\pi r u), \sqrt2 \cos(2\pi r u)\}/\sqrt{dt}` with
``u`` the normalized coordinate; index ``2r-1`` is the sine and ``2r`` the
cosine of frequency ``r``.  The library's trigonometric forms
(:func:`stochint.expansion.trig_milstein` and the closed series of
:func:`stochint.errors.series_error`) are closed sums; this module computes
the coefficients they are pinned to, exact in :math:`\mathbb{Q}[1/\pi]`.

A level is a dict from ``(f, s, n, p)`` to the rational coefficient of
:math:`u^n \cos(2\pi f u)` (``s = 0``) or :math:`u^n \sin(2\pi f u)`
(``s = 1``) times :math:`\pi^{-p}`.  A basis function multiplies by the
product-to-sum rules (frequencies :math:`f \pm r`), :math:`\int_0^u`
integrates by parts, each :math:`1/(2\pi f)` adding one power of
:math:`1/\pi`, and a weight shifts :math:`n`.  Its :math:`\bar C` is
:math:`(-1)^L 2^{L+k}` times the value at :math:`u = 1`, and its norm is
:math:`\sqrt2` per nonzero index, so it takes the scaling law of
:func:`stochint.coeffs.scale_coeff`, through ``coeffs._scale``.

:func:`_trig_walk` is the depth-first prefix walk of
``coeffs._outer_series`` with the trigonometric level rule, so sorted cells
share their levels.  :func:`trig_bar_levelwise` is the route it replaced,
the ``==`` reference: every cell rebuilds all ``k`` levels, and the weight
``u**l`` of a level is applied inside the product with its basis function
(:func:`_levelwise_times_basis`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Iterator

from stochint.coeffs import KernelSpec, _checked_index, _scale


def _trig_times_basis(terms: dict, j: int) -> dict:
    """Multiply by basis function ``j`` without its sqrt(2), product to sum."""
    r, b = (j + 1) // 2, j % 2
    out = defaultdict(Fraction)
    for (f, s, n, p), c in terms.items():
        kind = s ^ b
        for g, sign in ((f + r, -1 if s & b else 1), (f - r, -1 if b > s else 1)):
            if g < 0:
                g, sign = -g, -sign if kind else sign
            if g or not kind:
                out[g, kind, n, p] += sign * c / 2
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


def _trig_step(terms: dict, j: int, l: int) -> dict:
    """The trigonometric level rule: basis ``j``, ``int_0^u``, ``u**l``."""
    terms = _trig_integral(_trig_times_basis(terms, j))
    return {(f, s, n + l, p): c for (f, s, n, p), c in terms.items()} if l else terms


def _trig_walk(spec: KernelSpec, prefixes: Iterable) -> Iterator:
    """Yield ``(prefix, terms)``: ``u**l_{r+1}`` times the nested integral of ``(j_1..j_r)``.

    Depth first, as ``coeffs._outer_series``, so sorted prefixes build each
    level once (``l = 0`` past the last).
    """
    weights = (*spec.weights, 0)
    path = [((), {(0, 0, weights[0], 0): Fraction(1)})]
    for prefix in prefixes:
        while path[-1][0] != prefix[: len(path) - 1]:
            path.pop()
        for r in range(len(path), len(prefix) + 1):
            path.append((prefix[:r], _trig_step(path[-1][1], prefix[r - 1], weights[r])))
        yield prefix, path[-1][1]


def _at_one(spec: KernelSpec, terms: dict) -> tuple[Fraction, ...]:
    r""":math:`\bar C` from a last level: only the cosine terms remain at :math:`u = 1`,
    as :math:`\sin(2\pi f) = 0` and :math:`\cos(2\pi f) = 1`."""
    at_one = defaultdict(Fraction)
    for (_, s, _, p), c in terms.items():
        if not s:
            at_one[p] += c
    scale = (-2) ** spec.total_weight * 2**spec.k
    return tuple(scale * at_one[p] for p in range(max(at_one, default=0) + 1))


def _trig_bars(spec: KernelSpec, cells: Iterable[tuple[int, ...]]) -> Iterator:
    r"""Yield ``(j, bar)`` per cell: ``bar[p]`` multiplies :math:`\pi^{-p}` in :math:`\bar C_j`.

    The basis functions of :func:`trig_coeff` lose their :math:`\sqrt2`.
    """
    for j, terms in _trig_walk(spec, cells):
        yield j, _at_one(spec, terms)


def _trig_bar(spec: KernelSpec, j: tuple[int, ...]) -> tuple[Fraction, ...]:
    """:func:`_trig_bars` of the one cell ``j``."""
    [(_, bar)] = _trig_bars(spec, [j])
    return bar


def trig_coeff(spec: KernelSpec, j: tuple[int, ...], dt: float) -> float:
    """Scaled coefficient ``C`` for the trigonometric basis.

    The exact :func:`_trig_bar` is summed in floats and scaled by the law of
    :func:`stochint.coeffs.scale_coeff`.

    Args:
        spec: kernel description (weights innermost first).
        j: basis multi-index, innermost first.
        dt: interval length.
    """
    j = _checked_index(spec, j)
    bar = math.fsum(float(c) / math.pi**p for p, c in enumerate(_trig_bar(spec, j)))
    return _scale(bar, spec, math.sqrt(2 ** sum(map(bool, j))), dt)


def _levelwise_times_basis(terms: dict, j: int, l: int) -> dict:
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


def trig_bar_levelwise(spec: KernelSpec, j: tuple[int, ...]) -> tuple[Fraction, ...]:
    r"""Exact trigonometric :math:`\bar C`, one cell at a time; entry ``p`` multiplies :math:`\pi^{-p}`."""
    terms = {(0, 0, 0, 0): Fraction(1)}
    for l, idx in zip(spec.weights, j):
        terms = _trig_integral(_levelwise_times_basis(terms, idx, l))
    return _at_one(spec, terms)
