"""The copying route to the trigonometric interaction sums.

:func:`stochint.errors._harmonic_prefixes` sums its prefix arrays in place
and :func:`stochint.errors._frequency_interaction_sums` reads them through
slices.  This module keeps the route they replaced as the ``==`` reference:
the prefixes are built by ``np.concatenate`` copies and read by gathered
integer indices.  Both functions are the library's former ones, with their
bodies unchanged; :func:`series_error_reference` evaluates a series through
them.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from stochint import errors
from stochint.errors import TRIG_SERIES_CAP, SeriesCapError


def _harmonic_prefixes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums ``H[m] = sum_{1..m} 1/i`` and ``H2[m] = sum 1/i^2``."""
    inv = 1.0 / np.arange(1, n + 1)
    h1 = np.concatenate(([0.0], np.cumsum(inv)))
    h2 = np.concatenate(([0.0], np.cumsum(inv * inv)))
    return h1, h2


def frequency_interaction_sums(q: int) -> tuple[float, float]:
    """``(S_b, S_c)`` of :func:`stochint.errors._frequency_interaction_sums`."""
    if q > TRIG_SERIES_CAP:
        raise SeriesCapError(
            f"trigonometric error series at q={q} exceeds the cap q <= {TRIG_SERIES_CAP}"
        )
    if q < 2:
        return 0.0, 0.0
    h1, h2 = _harmonic_prefixes(2 * q)
    l = np.arange(1, q + 1)
    h1_diff = h1[q - l] - h1[q + l]
    inner1 = (h1_diff + 1.5 / l) / (2.0 * l)
    s_b = float(np.sum(inner1 / l**2))
    inner2 = (
        h2[l - 1]
        + h2[q - l]
        + h2[q + l]
        - h2[l]
        - 1.0 / (4.0 * l**2)
        - h1_diff / l
        - 1.5 / l**2
    ) / (4.0 * l**2)
    s_c = float(np.sum(inner2))
    return s_b, s_c


def series_error_reference(kind: str, q: int, dt: float) -> float:
    """``series_error(kind, q, dt)`` with the interaction sums of this module."""
    with mock.patch.object(errors, "_frequency_interaction_sums", frequency_interaction_sums):
        return errors.series_error(kind, q, dt)
