"""Upward linear scan for the smallest admissible truncation order.

The library finds the order by galloping and bisection, and evaluates the
triple Legendre constant in floats.  This module keeps the scan it
replaced as a cross-check: one left-hand side per ``q = 0, 1, 2, ...``,
with the exact triple constant (``triple_legendre_error_constant``).
"""

from __future__ import annotations

from stochint.errors import series_error
from stochint.qselect import (
    _CONDITIONS, Condition, QSelectCapError, triple_legendre_error_constant,
)


def linear_scan(cond: Condition) -> tuple[int, int, float]:
    """``(minimal_q, reported_q, lhs_at_minimal)``; raises ``QSelectCapError`` past the cap."""
    kind, exponent, offset, tol = _CONDITIONS[cond.id]

    def lhs_fn(q: int, dt: float) -> float:
        if kind is None:
            return triple_legendre_error_constant(q) * dt**3
        return series_error(kind, q, dt)

    rhs = cond.dt**exponent
    threshold = rhs * (1.0 + tol)
    lhs = lhs_fn(0, cond.dt)
    q = 0
    while lhs > threshold:
        q += 1
        if q > cond.cap:
            raise QSelectCapError(cond, lhs, rhs)
        lhs = lhs_fn(q, cond.dt)
    return q, q + offset, lhs
