"""Trigonometric coefficients by nested Gauss-Legendre quadrature.

:func:`trig_coeff_reference.trig_coeff` computes the coefficients exactly,
as a polynomial in ``1/pi`` with rational coefficients.  This module keeps
the route that exact engine replaced as an independent cross-check: nested
panelwise Gauss-Legendre quadrature on the unit interval, doubling the panel
count until two successive refinements agree to within a quarter of ``tol``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from stochint.coeffs import KernelSpec

_GL_NODES = 24


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _cumulative_matrix(n: int) -> np.ndarray:
    """Map values at Gauss-Legendre nodes to cumulative integrals.

    Row ``i`` gives the quadrature of the degree ``n-1`` interpolant from
    the panel start ``-1`` to node ``i`` (panel in local coordinates).
    """
    nodes, weights = _gl_rule(n)
    # Legendre-coefficient projection of the interpolant
    proj = np.empty((n, n))
    for deg in range(n):
        pvals = np.polynomial.legendre.legval(nodes, [0.0] * deg + [1.0])
        proj[deg] = (2 * deg + 1) / 2.0 * weights * pvals
    # antiderivative of P_deg vanishing at -1: (P_{deg+1} - P_{deg-1})/(2 deg + 1)
    cum = np.zeros((n, n))
    for deg in range(n):
        if deg == 0:
            anti = np.polynomial.legendre.legval(nodes, [1.0, 1.0])  # x + 1
        else:
            hi = np.polynomial.legendre.legval(nodes, [0.0] * (deg + 1) + [1.0])
            lo = np.polynomial.legendre.legval(nodes, [0.0] * (deg - 1) + [1.0])
            anti = (hi - lo) / (2 * deg + 1)
        cum += np.outer(anti, proj[deg])
    return cum


def _trig_basis_values(j: int, u: np.ndarray) -> np.ndarray:
    if j == 0:
        return np.ones_like(u)
    r = (j + 1) // 2
    if j % 2 == 1:
        return math.sqrt(2.0) * np.sin(2.0 * math.pi * r * u)
    return math.sqrt(2.0) * np.cos(2.0 * math.pi * r * u)


def _nested_trig_integral(spec: KernelSpec, j: tuple[int, ...], panels: int) -> float:
    """Nested simplex integral in unit coordinates with ``panels`` panels."""
    n = _GL_NODES
    nodes, weights = _gl_rule(n)
    cum = _cumulative_matrix(n)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 / panels
    u = (edges[:-1, None] + half) + half * nodes[None, :]  # (panels, n)

    running = np.ones_like(u)
    for level in range(spec.k):
        g = _trig_basis_values(j[level], u) * u ** spec.weights[level] * running
        panel_ints = half * g @ weights  # (panels,)
        starts = np.concatenate(([0.0], np.cumsum(panel_ints)))
        if level == spec.k - 1:
            return float(starts[-1])
        running = starts[:-1, None] + half * g @ cum.T
    raise AssertionError("unreachable")


def trig_coeff(spec: KernelSpec, j: tuple[int, ...], dt: float, tol: float = 1e-12) -> float:
    """Scaled trigonometric coefficient ``C``, as :func:`trig_coeff_reference.trig_coeff`.

    ``tol`` is an absolute tolerance in units of ``dt**(L + k/2)``; a
    refinement that stalls above it raises :class:`ArithmeticError`.
    """
    max_freq = max(((idx + 1) // 2 for idx in j), default=0)
    panels = max(4, 2 * max_freq)
    prev = _nested_trig_integral(spec, j, panels)
    achieved = math.inf
    for _ in range(8):
        panels *= 2
        cur = _nested_trig_integral(spec, j, panels)
        achieved = abs(cur - prev)
        if achieved <= tol / 4.0:
            return (-1) ** spec.total_weight * cur * dt ** spec.scale_exponent
        prev = cur
    raise ArithmeticError(f"quadrature did not converge below {tol} (achieved {achieved:.3e})")
