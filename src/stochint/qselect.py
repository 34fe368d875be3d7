r"""Minimal truncation numbers for target mean-square accuracy.

Each condition compares the mean-square error of one approximation scheme
against a power of the step: ``error(q, dt) <= dt**e`` with ``e = 3`` or
``4``.  Because every implemented error is non-increasing in ``q``, the
smallest admissible ``q`` is found by galloping and bisection: probe
``q = 0``, then ``q = 1, 2, 4, ...`` until one is admissible, then bisect
between the last two probes.  A gallop that would pass the condition's cap
probes the cap itself, and raises :class:`QSelectCapError` at once if the
cap is not admissible.  A scan to order ``Q`` evaluates the error about
``2 log2(Q)`` times.

Reporting convention: for the *pair* schemes the reference tables count
the number of retained product-term groups, which is one more than the
smallest admissible truncation order; the *triple* schemes report the
order itself.  :func:`scan_detail` exposes both numbers.

The triple conditions compare quantities that can sit within a fraction
of a percent of the threshold at the printed step sizes, so they accept
with a small relative tolerance (:data:`TRIPLE_REL_TOL`); the pair
conditions compare exactly.

Each condition is one row of data: the closed series of
:mod:`stochint.errors` its left-hand side reads, or ``None`` for the triple
Legendre constant below; the exponent ``e``; the reported offset; and the
tolerance.  :func:`_target_error` reads the name, here and for the
oracle's validation cases: ``series_error(kind, q, dt)``, or for ``None`` the
exact constant times ``dt**3``.  A series row probes it up to the cap; the
``None`` row probes the float constant times ``dt**3`` and stops at
``min(cap, TRIPLE_FLOAT_CAP)``, since its float sum costs O(q³).

The unweighted triple Legendre error per :math:`dt^3` is
:math:`1/6 - \tfrac{1}{64} \sum_{j \in \{0..q\}^3} \prod_r (2 j_r + 1)\,
\bar C_j^2`.  By orthogonality :math:`\bar C_{j_3 j_2 j_1} = 2 h_{j_3} /
(2 j_3 + 1)` with :math:`h` the level-2 Legendre series of the inner pair
(see :mod:`stochint.coeffs`), so by Parseval each pair's outer fiber sums
to :math:`\sum_{j_3 \le q} 4 h_{j_3}^2 / (2 j_3 + 1)`: the constant takes
:math:`(q+1)^2` series instead of :math:`(q+1)^3` coefficients.  The scan
evaluates this sum in floats (relative error about 1e-14 up to ``q = 30``)
and recomputes it exactly only when the float left-hand side lies within
:data:`TIE_REL_TOL` of the threshold.  The exact sum grows about eightfold per doubling of ``q``, so a near-tie
above :data:`TRIPLE_EXACT_CAP` raises :class:`~stochint.errors.SeriesCapError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basis import _checked_float, _checked_int, _checked_name
from .coeffs import _triple_square_sum, _triple_square_sum_float
from .errors import SeriesCapError, series_error

__all__ = [
    "Condition",
    "QScanResult",
    "QSelectCapError",
    "CONDITION_IDS",
    "TIE_REL_TOL",
    "TRIPLE_EXACT_CAP",
    "TRIPLE_FLOAT_CAP",
    "TRIPLE_REL_TOL",
    "min_q",
    "scan_detail",
    "triple_legendre_error_constant",
]

#: Relative acceptance tolerance for the triple conditions.
TRIPLE_REL_TOL = 2e-3

#: A float left-hand side this close to the threshold (relative) is
#: recomputed exactly; the float triple constant is good to about 1e-14.
TIE_REL_TOL = 1e-10

#: Highest order at which a near-tie is recomputed exactly.  The exact
#: triple sum took 0.92 s at q = 60 and 7.2 s at q = 120 on a 2-vCPU host.
TRIPLE_EXACT_CAP = 60

#: Highest order the triple Legendre scan probes.  The float Parseval sum is
#: O(q³): one probe took 0.38 s at q = 256 and 3.05 s at q = 512.
TRIPLE_FLOAT_CAP = 256


class QSelectCapError(Exception):
    """The condition is not met at its cap: ``lhs_at_cap`` is the left-hand side at ``q = cap``."""

    def __init__(
        self, condition: "Condition", lhs_at_cap: float, rhs: float, cap: int | None = None
    ) -> None:
        cap = condition.cap if cap is None else cap
        super().__init__(
            f"condition {condition.id!r} unsatisfied up to q={cap}: "
            f"lhs {lhs_at_cap:.6e} > rhs {rhs:.6e}"
        )
        self.condition = condition
        self.cap = cap
        self.lhs_at_cap = lhs_at_cap
        self.rhs = rhs


def triple_legendre_error_constant(q: int) -> float:
    r"""Distinct-component error of the unweighted triple per :math:`dt^3`.

    Equals :math:`1/6 - \sum_{j \in \{0..q\}^3} C_j^2 / dt^3`, accumulated
    exactly in rationals before the single float conversion.
    """
    return float(Fraction(1, 6) - Fraction(1, 64) * _triple_square_sum(q))


def _triple_constant_float(q: int) -> float:
    """:func:`triple_legendre_error_constant` from the float Parseval sum."""
    return 1.0 / 6.0 - _triple_square_sum_float(q) / 64.0


# id -> (series kind or None, rhs exponent, reported offset, relative tolerance)
_CONDITIONS = {
    "pair_legendre_dt4": ("pair_legendre", 4, 1, 0.0),
    "pair_legendre_dt3": ("pair_legendre", 3, 1, 0.0),
    "pair_trig_tail_dt4": ("pair_trig_tail", 4, 1, 0.0),
    "pair_trig_tail_dt3": ("pair_trig_tail", 3, 1, 0.0),
    "pair_trig_dt4": ("pair_trig", 4, 1, 0.0),
    "pair_trig_dt3": ("pair_trig", 3, 1, 0.0),
    "triple_legendre_dt4": (None, 4, 0, TRIPLE_REL_TOL),
    "triple_trig_tail_dt4": ("triple_trig_tail", 4, 0, TRIPLE_REL_TOL),
    "triple_trig_dt4": ("triple_trig", 4, 0, TRIPLE_REL_TOL),
}

CONDITION_IDS = tuple(sorted(_CONDITIONS))


@dataclass(frozen=True)
class Condition:
    """One accuracy condition: scheme id, step size in (0, 1) stored as ``float``, and scan cap."""

    id: str
    dt: float
    cap: int = 1_000_000

    def __post_init__(self) -> None:
        _checked_name(self.id, _CONDITIONS, "condition id")
        object.__setattr__(self, "dt", _checked_float(self.dt, "step size", 0.0, 1.0))
        object.__setattr__(self, "cap", _checked_int(self.cap, "scan cap", 1))

    @property
    def rhs(self) -> float:
        return self.dt ** _CONDITIONS[self.id][1]


@dataclass(frozen=True)
class QScanResult:
    """Outcome of one scan: reported number and raw boundary values.

    ``route`` names what produced ``lhs_at_minimal``: ``"series"`` (a closed
    error series of :mod:`stochint.errors`), ``"float_parseval"`` (the float
    triple Parseval sum) or ``"exact"`` (the exact triple constant, used when
    the float sum lies within :data:`TIE_REL_TOL` of the threshold).
    """

    condition: Condition
    reported_q: int
    minimal_q: int
    lhs_at_minimal: float
    rhs: float
    tolerance: float
    route: str


def _target_error(kind: str | None, q: int, dt: float) -> float:
    """``series_error(kind, q, dt)``; ``None`` is the exact triple constant times ``dt**3``."""
    if kind is None:
        return triple_legendre_error_constant(q) * dt**3
    return series_error(kind, q, dt)


def _probe(cond_id: str, q: int, dt: float) -> tuple[float, str]:
    """Left-hand side at order ``q`` and the route that produced it."""
    kind, exponent, _, tol = _CONDITIONS[cond_id]
    if kind is not None:
        return _target_error(kind, q, dt), "series"
    value = _triple_constant_float(q) * dt**3
    threshold = dt**exponent * (1.0 + tol)
    if abs(value - threshold) > TIE_REL_TOL * threshold:
        return value, "float_parseval"
    if q > TRIPLE_EXACT_CAP:
        raise SeriesCapError(
            f"{cond_id} at q={q} is a near-tie, and the exact check is capped at "
            f"q <= {TRIPLE_EXACT_CAP}"
        )
    return _target_error(None, q, dt), "exact"


def scan_detail(cond: Condition) -> QScanResult:
    """Smallest admissible truncation order, by galloping and bisection.

    Raises:
        QSelectCapError: if the cap itself is not admissible: ``cond.cap``,
            or :data:`TRIPLE_FLOAT_CAP` for ``triple_legendre_dt4`` if lower.
        SeriesCapError: a probe above :data:`TRIPLE_EXACT_CAP` is a near-tie.
    """
    kind, exponent, offset, tol = _CONDITIONS[cond.id]
    cap = cond.cap if kind is not None else min(cond.cap, TRIPLE_FLOAT_CAP)
    rhs = cond.dt**exponent
    threshold = rhs * (1.0 + tol)
    lo, hi = -1, 0  # after the gallop: lo is not admissible (or is -1), hi is
    found = _probe(cond.id, 0, cond.dt)
    while found[0] > threshold:
        if hi == cap:
            raise QSelectCapError(cond, found[0], rhs, cap)
        lo, hi = hi, min(max(2 * hi, 1), cap)
        found = _probe(cond.id, hi, cond.dt)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = _probe(cond.id, mid, cond.dt)
        if trial[0] <= threshold:
            hi, found = mid, trial
        else:
            lo = mid
    return QScanResult(
        condition=cond,
        reported_q=hi + offset,
        minimal_q=hi,
        lhs_at_minimal=found[0],
        rhs=rhs,
        tolerance=tol,
        route=found[1],
    )


def min_q(cond: Condition) -> int:
    """Reported minimal number for one condition (see module docstring)."""
    return scan_detail(cond).reported_q
