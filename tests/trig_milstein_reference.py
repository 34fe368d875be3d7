"""The trigonometric Milstein forms as they were before they became one rule.

``trig_milstein`` below is a verbatim copy of the earlier
``stochint.expansion.trig_milstein``, which wrote the tail-augmented sine sum
out once per kind and scaled each kind by hand.  The library's one-rule form
must match it to within a few units of rounding of the sum of the absolute
terms, :func:`magnitude`.
"""

from __future__ import annotations

import math

import numpy as np

from stochint.basis import _checked_float
from stochint.coeffs import KernelSpec, _dt_power
from stochint.errors import _tail_sum_fourths, _tail_sum_squares
from stochint.expansion import IndexPattern, NoiseDraws


def magnitude(kind: str, pattern, draws, q: int, dt: float):
    """Sum of the absolute values of the terms of :func:`trig_milstein`."""
    sqrt2 = math.sqrt(2.0)
    r = np.arange(1, q + 1)
    t2, t4 = math.sqrt(_tail_sum_squares(q)), math.sqrt(_tail_sum_fourths(q))
    zs = [abs(draws.zeta[c - 1]) for c in pattern.components]
    xis = [abs(draws.xi[c - 1]) for c in pattern.components]
    z, xi, mu = zs[0], xis[0], abs(draws.mu[pattern.components[0] - 1])
    sines = np.sum(z[..., 2 * r - 1] / r, axis=-1) + t2 * xi
    if kind == "I1":
        return dt**1.5 / 2.0 * (z[..., 0] + sqrt2 / math.pi * sines)
    if kind == "I2":
        cosines = np.sum(z[..., 2 * r] / r**2, axis=-1) + t4 * mu
        return dt**2.5 * (z[..., 0] / 3 + (cosines / math.pi + sines) / (sqrt2 * math.pi))
    (z1, z2), (xi1, xi2) = zs, xis
    terms = (
        z1[..., 2 * r] * z2[..., 2 * r - 1]
        + z1[..., 2 * r - 1] * z2[..., 2 * r]
        + sqrt2 * (z1[..., 2 * r - 1] * z2[..., :1] + z1[..., :1] * z2[..., 2 * r - 1])
    )
    total = z1[..., 0] * z2[..., 0] + np.sum(terms / r, axis=-1) / math.pi
    if kind == "I00_tail":
        total = total + sqrt2 / math.pi * t2 * (xi1 * z2[..., 0] + z1[..., 0] * xi2)
    return dt / 2.0 * total


def _tail_values(draws: NoiseDraws, component: int, need_mu: bool):
    if draws.xi is None or (need_mu and draws.mu is None):
        raise ValueError("tail-augmented form requested but draws carry no tail variables")
    xi = draws.xi[component - 1]
    mu = draws.mu[component - 1] if need_mu else None
    return xi, mu


def trig_milstein(kind: str, pattern: IndexPattern, draws: NoiseDraws, q: int, dt: float):
    r"""Trigonometric-basis forms for single and pair integrals.

    Kinds:

    * ``"I1"`` — weighted single :math:`\int (t-s)\,dW`; tail-augmented,
      mean-square exact at every ``q``.
    * ``"I2"`` — weighted single with :math:`(t-s)^2`; tail-augmented,
      mean-square exact.
    * ``"I00"`` — plain truncated pair series.
    * ``"I00_tail"`` — pair series plus the Gaussian tail term.

    Basis index ``2r-1`` is the sine and ``2r`` the cosine of frequency
    ``r``; tail variables come from :attr:`NoiseDraws.xi` / ``mu``.
    """
    if q < 0:
        raise ValueError("truncation order must be nonnegative")
    _checked_float(dt, "interval length")
    sqrt2 = math.sqrt(2.0)

    if kind == "I1":
        c = pattern.components[0]
        z = draws.row(c, max(1, 2 * q))
        xi, _ = _tail_values(draws, c, need_mu=False)
        r = np.arange(1, q + 1)
        sine_sum = np.sum(z[..., 2 * r - 1] / r, axis=-1) if q >= 1 else 0.0
        return -_dt_power(dt, KernelSpec(1, (1,)).scale_exponent) / 2.0 * (
            z[..., 0] - sqrt2 / math.pi * (sine_sum + math.sqrt(_tail_sum_squares(q)) * xi)
        )

    if kind == "I2":
        c = pattern.components[0]
        z = draws.row(c, 2 * q + 1)
        xi, mu = _tail_values(draws, c, need_mu=True)
        r = np.arange(1, q + 1)
        sine_sum = np.sum(z[..., 2 * r - 1] / r, axis=-1) if q >= 1 else 0.0
        cos_sum = np.sum(z[..., 2 * r] / r**2, axis=-1) if q >= 1 else 0.0
        return _dt_power(dt, KernelSpec(1, (2,)).scale_exponent) * (
            z[..., 0] / 3.0
            + (cos_sum + math.sqrt(_tail_sum_fourths(q)) * mu) / (sqrt2 * math.pi**2)
            - (sine_sum + math.sqrt(_tail_sum_squares(q)) * xi) / (sqrt2 * math.pi)
        )

    if kind in ("I00", "I00_tail"):
        if pattern.k != 2:
            raise ValueError("pair form requires two components")
        c1, c2 = pattern.components
        z1 = draws.row(c1, 2 * q + 1)
        z2 = draws.row(c2, 2 * q + 1)
        total = z1[..., 0] * z2[..., 0]
        if q >= 1:
            r = np.arange(1, q + 1)
            total = total + np.sum(
                (
                    z1[..., 2 * r] * z2[..., 2 * r - 1]
                    - z1[..., 2 * r - 1] * z2[..., 2 * r]
                    + sqrt2 * (z1[..., 2 * r - 1] * z2[..., 0] - z1[..., 0] * z2[..., 2 * r - 1])
                )
                / r,
                axis=-1,
            ) / math.pi
        value = dt / 2.0 * total
        if kind == "I00_tail":
            xi1, _ = _tail_values(draws, c1, need_mu=False)
            xi2, _ = _tail_values(draws, c2, need_mu=False)
            value = value + dt / 2.0 * (sqrt2 / math.pi) * math.sqrt(_tail_sum_squares(q)) * (
                xi1 * z2[..., 0] - z1[..., 0] * xi2
            )
        return value

    raise ValueError(f"unknown kind {kind!r}; known: I1, I2, I00, I00_tail")
