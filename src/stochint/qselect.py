r"""Minimal truncation numbers for target mean-square accuracy.

Each condition compares the mean-square error of one approximation scheme
against a power of the step: ``error(q, dt) <= dt**e`` with ``e = 3`` or
``4``.  Because every implemented error is non-increasing in ``q``, the
smallest admissible ``q`` is found by an upward linear scan.

Reporting convention: for the *pair* schemes the reference tables count
the number of retained product-term groups, which is one more than the
smallest admissible truncation order; the *triple* schemes report the
order itself.  :func:`scan_detail` exposes both numbers.

The triple conditions compare quantities that can sit within a fraction
of a percent of the threshold at the printed step sizes, so they accept
with a small relative tolerance (:data:`TRIPLE_REL_TOL`); the pair
conditions compare exactly.

The unweighted triple Legendre error per :math:`dt^3` is
:math:`1/6 - \tfrac{1}{64} \sum_{j \in \{0..q\}^3} \prod_r (2 j_r + 1)\,
\bar C_j^2`.  By orthogonality :math:`\bar C_{j_3 j_2 j_1} = 2 h_{j_3} /
(2 j_3 + 1)` with :math:`h` the level-2 Legendre series of the inner pair
(see :mod:`stochint.coeffs`), so by Parseval each pair's outer fiber sums
to :math:`\sum_{j_3 \le q} 4 h_{j_3}^2 / (2 j_3 + 1)`: the constant takes
:math:`(q+1)^2` series instead of :math:`(q+1)^3` coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import KernelSpec, _fiber_square_sum
from .errors import series_error

__all__ = [
    "Condition",
    "QScanResult",
    "QSelectCapError",
    "CONDITION_IDS",
    "TRIPLE_REL_TOL",
    "condition_lhs",
    "min_q",
    "min_q_many",
    "scan_detail",
    "triple_legendre_error_constant",
]

#: Relative acceptance tolerance for the triple conditions.
TRIPLE_REL_TOL = 2e-3


class QSelectCapError(Exception):
    """Upward scan hit its cap before the condition was satisfied."""

    def __init__(self, condition: "Condition", lhs_at_cap: float, rhs: float) -> None:
        super().__init__(
            f"condition {condition.id!r} unsatisfied up to q={condition.cap}: "
            f"lhs {lhs_at_cap:.6e} > rhs {rhs:.6e}"
        )
        self.condition = condition
        self.lhs_at_cap = lhs_at_cap
        self.rhs = rhs


def _triple_square_sum(q: int) -> Fraction:
    r"""Exact :math:`\sum_{j \in \{0..q\}^3} \prod_r (2 j_r + 1)\, \bar C_j^2`."""
    spec = KernelSpec.unweighted(3)
    total = Fraction(0)
    for a in range(q + 1):
        for b in range(q + 1):
            total += (2 * a + 1) * (2 * b + 1) * _fiber_square_sum(spec, (a, b), q)
    return total


def triple_legendre_error_constant(q: int) -> float:
    r"""Distinct-component error of the unweighted triple per :math:`dt^3`.

    Equals :math:`1/6 - \sum_{j \in \{0..q\}^3} C_j^2 / dt^3`, accumulated
    exactly in rationals before the single float conversion.
    """
    gap = Fraction(1, 6) - Fraction(1, 64) * _triple_square_sum(q)
    return gap.numerator / gap.denominator


def _series_lhs(kind: str):
    """Left-hand side read from one closed error series of :mod:`stochint.errors`."""
    return lambda q, dt: series_error(kind, q, dt)


def _lhs_triple_legendre(q: int, dt: float) -> float:
    return triple_legendre_error_constant(q) * dt**3


# id -> (lhs, rhs exponent, reported offset, relative tolerance)
_CONDITIONS = {
    "pair_legendre_dt4": (_series_lhs("pair_legendre"), 4, 1, 0.0),
    "pair_legendre_dt3": (_series_lhs("pair_legendre"), 3, 1, 0.0),
    "pair_trig_tail_dt4": (_series_lhs("pair_trig_tail"), 4, 1, 0.0),
    "pair_trig_tail_dt3": (_series_lhs("pair_trig_tail"), 3, 1, 0.0),
    "pair_trig_dt4": (_series_lhs("pair_trig"), 4, 1, 0.0),
    "pair_trig_dt3": (_series_lhs("pair_trig"), 3, 1, 0.0),
    "triple_legendre_dt4": (_lhs_triple_legendre, 4, 0, TRIPLE_REL_TOL),
    "triple_trig_tail_dt4": (_series_lhs("triple_trig_tail"), 4, 0, TRIPLE_REL_TOL),
    "triple_trig_dt4": (_series_lhs("triple_trig"), 4, 0, TRIPLE_REL_TOL),
}

CONDITION_IDS = tuple(sorted(_CONDITIONS))


@dataclass(frozen=True)
class Condition:
    """One accuracy condition: scheme id, step size, and scan cap."""

    id: str
    dt: float
    cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.id not in _CONDITIONS:
            raise ValueError(f"unknown condition id {self.id!r}; known: {CONDITION_IDS}")
        if not 0.0 < self.dt < 1.0:
            raise ValueError("step size must lie in (0, 1)")
        if self.cap < 1:
            raise ValueError("scan cap must be positive")

    @property
    def rhs(self) -> float:
        return self.dt ** _CONDITIONS[self.id][1]


@dataclass(frozen=True)
class QScanResult:
    """Outcome of one scan: reported number and raw boundary values."""

    condition: Condition
    reported_q: int
    minimal_q: int
    lhs_at_minimal: float
    rhs: float
    tolerance: float


def condition_lhs(cond_id: str, q: int, dt: float) -> float:
    """Error value compared against the threshold for one condition id."""
    if cond_id not in _CONDITIONS:
        raise ValueError(f"unknown condition id {cond_id!r}; known: {CONDITION_IDS}")
    return _CONDITIONS[cond_id][0](q, dt)


def scan_detail(cond: Condition) -> QScanResult:
    """Upward scan for the smallest admissible truncation order."""
    lhs_fn, exponent, offset, tol = _CONDITIONS[cond.id]
    rhs = cond.dt**exponent
    threshold = rhs * (1.0 + tol)
    lhs = lhs_fn(0, cond.dt)
    q = 0
    while lhs > threshold:
        q += 1
        if q > cond.cap:
            raise QSelectCapError(cond, lhs, rhs)
        lhs = lhs_fn(q, cond.dt)
    return QScanResult(
        condition=cond,
        reported_q=q + offset,
        minimal_q=q,
        lhs_at_minimal=lhs,
        rhs=rhs,
        tolerance=tol,
    )


def min_q(cond: Condition) -> int:
    """Reported minimal number for one condition (see module docstring)."""
    return scan_detail(cond).reported_q


def min_q_many(conds: list[Condition], threads: int = 1) -> list[int]:
    """Reported minimal numbers of conditions; ``threads`` is accepted and ignored.

    The scans hold the interpreter lock, so threads gave no speed-up.
    """
    return [min_q(c) for c in conds]
