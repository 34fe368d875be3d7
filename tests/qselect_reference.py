"""Upward linear scan for the smallest admissible truncation order.

The library finds the order by galloping and bisection, and evaluates the
triple Legendre constant in floats.  This module keeps the scan it
replaced as a cross-check: one left-hand side per ``q = 0, 1, 2, ...``,
with the exact triple constant (``triple_legendre_error_constant``).
"""

from __future__ import annotations

from stochint.qselect import _CONDITIONS, Condition, QSelectCapError


def linear_scan(cond: Condition) -> tuple[int, int, float]:
    """``(minimal_q, reported_q, lhs_at_minimal)``; raises ``QSelectCapError`` past the cap."""
    series, exponent, offset, tol, exact = _CONDITIONS[cond.id]
    lhs_fn = exact if exact is not None else series
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
