r"""Mean-square truncation errors of coefficient expansions.

For an iterated stochastic integral whose kernel has squared norm
:math:`I_k` over the integration simplex, the truncated expansion over
``j in {0..q}^k`` has an exactly computable mean-square error.  With
:math:`G` the group of permutations of index *positions* that only move
positions carrying equal Wiener-process components,

.. math::
    E_k^q \;=\; I_k \;-\; \sum_{j} C_j \sum_{\sigma \in G} C_{\sigma(j)} .

When all components are pairwise distinct :math:`G` is trivial and
:math:`E_k^q = I_k - \sum_j C_j^2`; in general :math:`E_k^q` is bounded by
:math:`k!\,(I_k - \sum_j C_j^2)` whatever the component pattern.

This module provides

* :func:`kernel_norm` — the exact simplex norm :math:`I_k`,
* :func:`exact_error` — the permutation-sum error above, with an optional
  support mask for expansions that keep a sparse index set,
* :func:`error_bound` — the :math:`k!` bound,
* :func:`series_error` — the closed-form error expressions for the pair,
  triple and weighted kernels in both the Legendre and trigonometric
  bases, evaluated stably for large ``q``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import KernelSpec, ScaledTensor, _check_interval

__all__ = [
    "EqualityPattern",
    "ErrorReport",
    "SERIES_KINDS",
    "SeriesCapError",
    "TRIG_SERIES_CAP",
    "kernel_norm",
    "kernel_norm_exact",
    "exact_error",
    "error_bound",
    "series_error",
    "error_report",
]


# ---------------------------------------------------------------------------
# Kernel norm
# ---------------------------------------------------------------------------


def kernel_norm_exact(spec: KernelSpec) -> Fraction:
    r"""Exact :math:`I_k / dt^{2L+k}` as a rational number.

    Iterated integration of the squared weight factors over the ordered
    simplex gives the product form
    :math:`I_k = dt^{2L+k} \big/ \prod_{r=1}^{k} \bigl(2(l_1+\dots+l_r)+r\bigr)`.
    """
    denom = 1
    acc = 0
    for r, l in enumerate(spec.weights, start=1):
        acc += l
        denom *= 2 * acc + r
    return Fraction(1, denom)


def kernel_norm(spec: KernelSpec, dt: float) -> float:
    """Squared simplex norm ``I_k`` of the weighted kernel for length ``dt``."""
    _check_interval(dt)
    return float(kernel_norm_exact(spec)) * dt ** (2 * spec.total_weight + spec.k)


# ---------------------------------------------------------------------------
# Equality patterns and the permutation-sum error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityPattern:
    """Partition of integration positions ``1..k`` by equal components.

    Positions in one group carry the same Wiener-process component; the
    groups are disjoint and cover ``1..k``.
    """

    k: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = [p for g in self.groups for p in g]
        if sorted(seen) != list(range(1, self.k + 1)):
            raise ValueError(f"groups {self.groups} are not a partition of 1..{self.k}")
        object.__setattr__(
            self,
            "groups",
            tuple(tuple(sorted(g)) for g in sorted(self.groups, key=min)),
        )

    @classmethod
    def distinct(cls, k: int) -> "EqualityPattern":
        return cls(k, tuple((p,) for p in range(1, k + 1)))

    @classmethod
    def all_equal(cls, k: int) -> "EqualityPattern":
        return cls(k, (tuple(range(1, k + 1)),))

    @classmethod
    def from_components(cls, components) -> "EqualityPattern":
        """Build the pattern from a concrete component tuple like ``(1, 2, 1)``."""
        components = tuple(components)
        buckets: dict[object, list[int]] = {}
        for pos, c in enumerate(components, start=1):
            buckets.setdefault(c, []).append(pos)
        return cls(len(components), tuple(tuple(v) for v in buckets.values()))

    def position_permutations(self) -> tuple[tuple[int, ...], ...]:
        """All position maps that permute only within equality groups.

        Each returned tuple ``sigma`` sends position ``r`` to
        ``sigma[r - 1]``.
        """
        per_group = [itertools.permutations(g) for g in self.groups]
        perms = []
        for combo in itertools.product(*per_group):
            sigma = [0] * self.k
            for group, image in zip(self.groups, combo):
                for src, dst in zip(group, image):
                    sigma[src - 1] = dst
            perms.append(tuple(sigma))
        return tuple(perms)


def _truncated(tensor: ScaledTensor, q: int | None) -> tuple[np.ndarray, int]:
    if q is None:
        q = tensor.q
    return tensor.truncated(q), q


def exact_error(
    tensor: ScaledTensor,
    pattern: EqualityPattern,
    q: int | None = None,
    support: np.ndarray | None = None,
) -> float:
    r"""Exact mean-square error of the truncated expansion.

    Args:
        tensor: interval-scaled coefficients.
        pattern: equality pattern of the Wiener components.
        q: truncation order; defaults to the tensor's own order.
        support: optional boolean mask on ``{0..q}^k`` selecting which
            coefficients the approximation actually keeps (entries outside
            the mask are treated as dropped).

    Returns:
        ``I_k - sum_j C_j * sum_{sigma in G} C_{sigma(j)}`` with ``G`` the
        within-group position permutations of ``pattern``.
    """
    if pattern.k != tensor.spec.k:
        raise ValueError("pattern multiplicity does not match tensor")
    values, q = _truncated(tensor, q)
    if support is not None:
        support = np.asarray(support, dtype=bool)
        if support.shape != values.shape:
            raise ValueError(f"support shape {support.shape} != {values.shape}")
        values = np.where(support, values, 0.0)
    mirror = np.zeros_like(values)
    for sigma in pattern.position_permutations():
        mirror = mirror + np.transpose(values, axes=[s - 1 for s in sigma])
    correlation = float(np.sum(values * mirror))
    return kernel_norm(tensor.spec, tensor.dt) - correlation


def error_bound(tensor: ScaledTensor, q: int | None = None, k: int | None = None) -> float:
    r"""Upper bound :math:`k!\,(I_k - \sum_j C_j^2)` valid for any pattern."""
    if k is not None and k != tensor.spec.k:
        raise ValueError("explicit multiplicity does not match tensor")
    values, q = _truncated(tensor, q)
    tail = kernel_norm(tensor.spec, tensor.dt) - float(np.sum(values * values))
    return math.factorial(tensor.spec.k) * tail


@dataclass(frozen=True)
class ErrorReport:
    """Exact error, its factorial bound, and optional closed-form value."""

    exact: float
    bound: float
    series: float | None
    kernel_norm: float


def error_report(
    tensor: ScaledTensor,
    pattern: EqualityPattern,
    q: int | None = None,
    series_kind: str | None = None,
    support: np.ndarray | None = None,
) -> ErrorReport:
    """Bundle :func:`exact_error`, :func:`error_bound`, :func:`series_error`."""
    _, q = _truncated(tensor, q)
    series = None
    if series_kind is not None:
        series = series_error(series_kind, q, tensor.dt)
    return ErrorReport(
        exact=exact_error(tensor, pattern, q, support=support),
        bound=error_bound(tensor, q),
        series=series,
        kernel_norm=kernel_norm(tensor.spec, tensor.dt),
    )


# ---------------------------------------------------------------------------
# Closed-form error series
# ---------------------------------------------------------------------------


#: Euler-Maclaurin divisors of :func:`_hurwitz_zeta`: ``(2i+2)!/B_{2i+2}``.
_ZETA_EM = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 2.0**-53


def _hurwitz_zeta(x: float, q: float) -> float:
    r"""Hurwitz zeta :math:`\zeta(x, q) = \sum_{n \ge 0} (n+q)^{-x}` for ``x > 1, q > 0``.

    Moshier's Cephes ``zeta(x, q)``, operation for operation: direct terms
    until ``q + i > 9`` (at least nine), then the Euler-Maclaurin tail.
    Keeping Cephes' order gives the same bits as ``scipy.special.zeta``.
    """
    s = q**-x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for divisor in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / divisor
        s = s + t
        if abs(t / s) < _MACHEP:
            break
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _polygamma(n: int, x: float) -> float:
    r""":math:`\psi^{(n)}(x) = (-1)^{n+1}\, n!\, \zeta(n+1, x)` for ``n >= 1``, as scipy forms it."""
    return (-1.0) ** (n + 1) * math.factorial(n) * _hurwitz_zeta(n + 1.0, x)


def _tail_sum_squares(q: int) -> float:
    r""":math:`\sum_{n>q} 1/n^2 = \pi^2/6 - \sum_{n \le q} 1/n^2`, stably."""
    return _polygamma(1, float(q + 1))


def _tail_sum_fourths(q: int) -> float:
    r""":math:`\sum_{n>q} 1/n^4`, stably."""
    return _polygamma(3, float(q + 1)) / 6.0


def _harmonic_prefixes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums ``H[m] = sum_{1..m} 1/i`` and ``H2[m] = sum 1/i^2``."""
    inv = 1.0 / np.arange(1, n + 1)
    h1 = np.concatenate(([0.0], np.cumsum(inv)))
    h2 = np.concatenate(([0.0], np.cumsum(inv * inv)))
    return h1, h2


#: Highest order of the trigonometric series that read
#: :func:`_frequency_interaction_sums`, which allocates about ``2q`` floats:
#: one evaluation took 0.115 s at ``q = 10**6`` and 1.9 s at ``10**7``.
TRIG_SERIES_CAP = 1_000_000


class SeriesCapError(Exception):
    """A closed error series was asked for an order above its cap."""


def _frequency_interaction_sums(q: int) -> tuple[float, float]:
    r"""O(q) evaluation of the two double-frequency interaction sums.

    Returns ``(S_b, S_c)`` where, over ``1 <= r, l <= q`` with ``r != l``,

    .. math::
        S_b = \sum_{l} \frac{1}{l^2} \sum_{r \ne l} \frac{1}{r^2 - l^2},
        \qquad
        S_c = \sum_{l} \sum_{r \ne l} \frac{1}{(r^2 - l^2)^2},

    via partial fractions in ``1/(r-l)`` and ``1/(r+l)`` so that each inner
    sum telescopes into harmonic prefix differences.  Raises
    :class:`SeriesCapError` above :data:`TRIG_SERIES_CAP`, before allocating.
    """
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


def _series_pair_legendre(q: int, dt: float) -> float:
    # dt^2/2 * (1/2 - sum_{i=1}^q 1/(4 i^2 - 1)); the sum telescopes
    return dt**2 / (4.0 * (2 * q + 1))


def _series_pair_legendre_weighted(q: int, dt: float) -> float:
    if q < 1:
        raise ValueError("weighted pair series requires q >= 1")
    a = 1.0 / (2 * q + 1)
    b = 1.0 / (2 * q + 3)
    c = 1.0 / (2 * q + 5)
    bracket = a + (a * a + b * b) / 16.0 - (a + b) / 32.0 + 5.0 * (b + c) / 32.0
    return dt**4 * bracket / 16.0


def _series_pair_legendre_weighted_equal(q: int, dt: float) -> float:
    if q < 1:
        raise ValueError("weighted pair series requires q >= 1")
    a = 1.0 / (2 * q + 1)
    b = 1.0 / (2 * q + 3)
    c = 1.0 / (2 * q + 5)
    bracket = (c - a) / 16.0 + (a * a + b * b) / 8.0
    return dt**4 * bracket / 16.0


def _series_pair_trig(q: int, dt: float) -> float:
    return 3.0 * dt**2 / (2.0 * math.pi**2) * _tail_sum_squares(q)


def _series_pair_trig_tail(q: int, dt: float) -> float:
    return dt**2 / (2.0 * math.pi**2) * _tail_sum_squares(q)


def _series_single_trig_weighted(q: int, dt: float) -> float:
    return dt**3 / (2.0 * math.pi**2) * _tail_sum_squares(q)


def _trig_partial_sums(q: int) -> tuple[float, float, float, float]:
    """``(h2, h4, s_b, s_c)``: the sums of ``1/r²`` and ``1/r⁴`` over ``r = 1..q``
    and :func:`_frequency_interaction_sums`, shared by the weighted trig series."""
    h2 = float(np.pi**2 / 6.0) - _tail_sum_squares(q)
    h4 = float(np.pi**4 / 90.0) - _tail_sum_fourths(q)
    return (h2, h4, *_frequency_interaction_sums(q))


def _triple_trig_common(q: int) -> tuple[float, float, float]:
    h2, h4, s_b, s_c = _trig_partial_sums(q)
    return h2, h4, 5.0 * (h2 * h2 - h4) - s_b + 6.0 * s_c


def _series_triple_trig_tail(q: int, dt: float) -> float:
    h2, h4, d = _triple_trig_common(q)
    pi2 = math.pi**2
    pi4 = pi2 * pi2
    bracket = 4.0 / 45.0 - h2 / (4.0 * pi2) - 55.0 * h4 / (32.0 * pi4) - d / (4.0 * pi4)
    return dt**3 * bracket


def _series_triple_trig(q: int, dt: float) -> float:
    h2, h4, d = _triple_trig_common(q)
    pi2 = math.pi**2
    pi4 = pi2 * pi2
    bracket = 5.0 / 36.0 - h2 / (2.0 * pi2) - 79.0 * h4 / (32.0 * pi4) - d / (4.0 * pi4)
    return dt**3 * bracket


def _series_pair_trig_weighted(q: int, dt: float) -> float:
    h2, h4, s_b, s_c = _trig_partial_sums(q)
    d2 = 2.0 * s_c + s_b
    pi2 = math.pi**2
    pi4 = pi2 * pi2
    bracket = 1.0 / 9.0 - h2 / (2.0 * pi2) - 5.0 * h4 / (8.0 * pi4) - d2 / pi4
    return dt**4 / 4.0 * bracket


_SERIES = {
    "pair_legendre": _series_pair_legendre,
    "pair_legendre_weighted": _series_pair_legendre_weighted,
    "pair_legendre_weighted_equal": _series_pair_legendre_weighted_equal,
    "pair_trig": _series_pair_trig,
    "pair_trig_tail": _series_pair_trig_tail,
    "single_trig_weighted": _series_single_trig_weighted,
    "triple_trig": _series_triple_trig,
    "triple_trig_tail": _series_triple_trig_tail,
    "pair_trig_weighted": _series_pair_trig_weighted,
}

SERIES_KINDS = tuple(sorted(_SERIES))


def series_error(kind: str, q: int, dt: float) -> float:
    """Closed-form mean-square error of one named approximation scheme.

    Kinds (``pair``/``triple`` = multiplicity 2/3, ``weighted`` = one
    time-weight factor, ``_tail`` = scheme that models the discarded tail
    with extra Gaussian variables, ``_equal`` = both components equal):

    ``pair_legendre``, ``pair_legendre_weighted``,
    ``pair_legendre_weighted_equal``, ``pair_trig``, ``pair_trig_tail``,
    ``pair_trig_weighted``, ``single_trig_weighted``, ``triple_trig``,
    ``triple_trig_tail``.
    """
    try:
        fn = _SERIES[kind]
    except KeyError:
        raise ValueError(f"unknown series kind {kind!r}; known: {', '.join(SERIES_KINDS)}")
    if q < 0:
        raise ValueError("truncation order must be nonnegative")
    _check_interval(dt)
    return fn(q, dt)
