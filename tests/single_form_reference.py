"""Hand-written exact single integrals with weights ``(t-s)**l``, ``l = 0..3``.

The library evaluates every weighted single integral from the exact
coefficients (``bar_coeff`` scaled by ``scale_coeff``).  This module keeps
the table it replaced, written out by hand, as a cross-check:
``_SINGLE_FORMS[l]`` is ``(lead, weights)`` and the integral is
``lead * dt**(l + 1/2) * sum(weights[j] * zeta_j)``.
"""

from __future__ import annotations

import math

_SINGLE_FORMS = {
    0: (1.0, [1.0]),
    1: (-0.5, [1.0, 1.0 / math.sqrt(3.0)]),
    2: (1.0 / 3.0, [1.0, math.sqrt(3.0) / 2.0, 1.0 / (2.0 * math.sqrt(5.0))]),
    3: (-0.25, [1.0, 3.0 * math.sqrt(3.0) / 5.0, 1.0 / math.sqrt(5.0), 1.0 / (5.0 * math.sqrt(7.0))]),
}


def single_form(l: int, z, dt: float):
    """Hand form of the single integral on the Gaussian row ``z`` (leading axes pass through)."""
    lead, weights = _SINGLE_FORMS[l]
    acc = weights[0] * z[..., 0]
    for j in range(1, l + 1):
        acc = acc + weights[j] * z[..., j]
    return lead * dt ** (l + 0.5) * acc
