"""Hand-written banded double series of the six supported pair weights.

The library evaluates every pair series from one exact band table
(:func:`stochint.coeffs._pair_bands`).  This module keeps the forms it
replaced, written out term by term for each weight pair, as a cross-check:
each ``_series_lw`` takes the Gaussian rows ``z1``, ``z2`` (extra leading
axes pass through), the truncation order ``q`` and the interval length
``dt``.  :data:`HAND_FORMS` maps a weight pair to its form and its reach,
the number of Gaussians per component beyond ``q`` that the form reads.
:func:`pair_series_support` is the hand-written index mask of the
single-weight forms that :func:`stochint.expansion.pair_series_tensor`
replaced.
"""

from __future__ import annotations

import math

import numpy as np


def _series_00(z1, z2, q: int, dt: float):
    total = z1[..., 0] * z2[..., 0]
    if q >= 1:
        i = np.arange(1, q + 1)
        total = total + np.sum(
            (z1[..., i - 1] * z2[..., i] - z1[..., i] * z2[..., i - 1])
            / np.sqrt(4.0 * i * i - 1.0),
            axis=-1,
        )
    return dt / 2.0 * total


def _series_01(z1, z2, q: int, dt: float):
    i = np.arange(0, q + 1)
    cross = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 5.0)) * (2.0 * i + 3.0)
    diag = (2.0 * i - 1.0) * (2.0 * i + 3.0)
    bracket = z1[..., 0] * z2[..., 1] / math.sqrt(3.0)
    bracket = bracket + np.sum(
        ((i + 2.0) * z1[..., i] * z2[..., i + 2] - (i + 1.0) * z1[..., i + 2] * z2[..., i])
        / cross
        - z1[..., i] * z2[..., i] / diag,
        axis=-1,
    )
    return -dt / 2.0 * _series_00(z1, z2, q, dt) - dt * dt / 4.0 * bracket


def _series_10(z1, z2, q: int, dt: float):
    i = np.arange(0, q + 1)
    cross = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 5.0)) * (2.0 * i + 3.0)
    diag = (2.0 * i - 1.0) * (2.0 * i + 3.0)
    bracket = z2[..., 0] * z1[..., 1] / math.sqrt(3.0)
    bracket = bracket + np.sum(
        ((i + 1.0) * z2[..., i + 2] * z1[..., i] - (i + 2.0) * z2[..., i] * z1[..., i + 2])
        / cross
        + z1[..., i] * z2[..., i] / diag,
        axis=-1,
    )
    return -dt / 2.0 * _series_00(z1, z2, q, dt) - dt * dt / 4.0 * bracket


def _series_02(z1, z2, q: int, dt: float):
    i = np.arange(0, q + 1)
    far = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 7.0)) * (2.0 * i + 3.0) * (2.0 * i + 5.0)
    near = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 3.0)) * (2.0 * i - 1.0) * (2.0 * i + 5.0)
    bracket = 2.0 / (3.0 * math.sqrt(5.0)) * z2[..., 2] * z1[..., 0] + z1[..., 0] * z2[..., 0] / 3.0
    bracket = bracket + np.sum(
        (
            (i + 2.0) * (i + 3.0) * z2[..., i + 3] * z1[..., i]
            - (i + 1.0) * (i + 2.0) * z2[..., i] * z1[..., i + 3]
        )
        / far
        + (
            (i * i + i - 3.0) * z2[..., i + 1] * z1[..., i]
            - (i * i + 3.0 * i - 1.0) * z2[..., i] * z1[..., i + 1]
        )
        / near,
        axis=-1,
    )
    return (
        -dt * dt / 4.0 * _series_00(z1, z2, q, dt)
        - dt * _series_01(z1, z2, q, dt)
        + dt**3 / 8.0 * bracket
    )


def _series_20(z1, z2, q: int, dt: float):
    i = np.arange(0, q + 1)
    far = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 7.0)) * (2.0 * i + 3.0) * (2.0 * i + 5.0)
    near = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 3.0)) * (2.0 * i - 1.0) * (2.0 * i + 5.0)
    bracket = 2.0 / (3.0 * math.sqrt(5.0)) * z1[..., 2] * z2[..., 0] + z1[..., 0] * z2[..., 0] / 3.0
    bracket = bracket + np.sum(
        (
            (i + 1.0) * (i + 2.0) * z2[..., i + 3] * z1[..., i]
            - (i + 2.0) * (i + 3.0) * z2[..., i] * z1[..., i + 3]
        )
        / far
        + (
            (i * i + 3.0 * i - 1.0) * z2[..., i + 1] * z1[..., i]
            - (i * i + i - 3.0) * z2[..., i] * z1[..., i + 1]
        )
        / near,
        axis=-1,
    )
    return (
        -dt * dt / 4.0 * _series_00(z1, z2, q, dt)
        - dt * _series_10(z1, z2, q, dt)
        + dt**3 / 8.0 * bracket
    )


def _series_11(z1, z2, q: int, dt: float):
    i = np.arange(0, q + 1)
    far = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 7.0)) * (2.0 * i + 3.0) * (2.0 * i + 5.0)
    near = np.sqrt((2.0 * i + 1.0) * (2.0 * i + 3.0)) * (2.0 * i - 1.0) * (2.0 * i + 5.0)
    bracket = z1[..., 1] * z2[..., 1] / 3.0
    bracket = bracket + np.sum(
        (i + 1.0) * (i + 3.0) * (z2[..., i + 3] * z1[..., i] - z2[..., i] * z1[..., i + 3]) / far
        + (i + 1.0) ** 2 * (z2[..., i + 1] * z1[..., i] - z2[..., i] * z1[..., i + 1]) / near,
        axis=-1,
    )
    return (
        -dt * dt / 4.0 * _series_00(z1, z2, q, dt)
        - dt / 2.0 * (_series_10(z1, z2, q, dt) + _series_01(z1, z2, q, dt))
        + dt**3 / 8.0 * bracket
    )


HAND_FORMS = {
    (0, 0): (_series_00, 1),
    (0, 1): (_series_01, 3),
    (1, 0): (_series_10, 3),
    (1, 1): (_series_11, 4),
    (2, 0): (_series_20, 4),
    (0, 2): (_series_02, 4),
}


def pair_series_support(q: int) -> np.ndarray:
    """Index support of the single-time-weight pair series at order ``q``.

    Boolean mask on ``{0..q+2}^2``: the diagonal up to ``q``, the first
    off-diagonals up to ``(q-1, q)``, and the second-off-diagonal pairs
    ``(i, i+2)`` up to ``i = q``.  For weights ``(1, 0)`` / ``(0, 1)`` and
    ``q >= 1`` this is the band rule of the series (its corner cells
    vanish).  At ``q = 0`` the series also keeps the adjusted corner cells
    ``(0, 1)`` and ``(1, 0)``, which this mask leaves out.
    """
    n = q + 3
    mask = np.zeros((n, n), dtype=bool)
    for i in range(q + 1):
        mask[i, i] = True
        mask[i, i + 2] = mask[i + 2, i] = True
    for i in range(1, q + 1):
        mask[i - 1, i] = mask[i, i - 1] = True
    return mask
