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

* :class:`IndexPattern` — the component labels :math:`(i_1, \dots, i_k)`,
  which fix :math:`G`; the expansions of :mod:`stochint.expansion` take the
  same pattern,
* :func:`kernel_norm` — the exact simplex norm :math:`I_k`,
* :func:`exact_error` — the permutation-sum error above, of a coefficient
  tensor or of a pair series' :func:`~stochint.expansion.pair_series_tensor`,
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

from .basis import _checked_float, _checked_int, _checked_name
from .coeffs import KernelSpec, ScaledTensor, _dt_power

__all__ = [
    "IndexPattern",
    "SERIES_KINDS",
    "SeriesCapError",
    "TRIG_SERIES_CAP",
    "kernel_norm",
    "kernel_norm_exact",
    "exact_error",
    "error_bound",
    "series_error",
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
    return float(kernel_norm_exact(spec)) * _dt_power(dt, 2 * spec.total_weight + spec.k)


# ---------------------------------------------------------------------------
# Component patterns and the permutation-sum error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexPattern:
    """Wiener component labels ``(i_1, ..., i_k)``, innermost first.

    Each label is an integer from 1, kept as ``int``; a ``bool`` is not a label.
    """

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(_checked_int(c, "component label", 1) for c in self.components)
        if not labels:
            raise ValueError("at least one component required")
        object.__setattr__(self, "components", labels)

    @property
    def k(self) -> int:
        return len(self.components)


def _position_permutations(components: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The group ``G`` as ``np.transpose`` axis orders: each permutes only axes of equal components.

    The axes of one component form a group, groups in order of first axis;
    the orders run over the product of the groups' permutations, so
    :func:`exact_error` adds its transposes in one fixed order.
    """
    groups: dict[int, list[int]] = {}
    for axis, c in enumerate(components):
        groups.setdefault(c, []).append(axis)
    sources = [axis for group in groups.values() for axis in group]
    return tuple(
        tuple(dst for _, dst in sorted(zip(sources, itertools.chain(*images))))
        for images in itertools.product(*map(itertools.permutations, groups.values()))
    )


def exact_error(tensor: ScaledTensor, pattern: IndexPattern, q: int | None = None) -> float:
    r"""Exact mean-square error of the truncated expansion.

    Args:
        tensor: interval-scaled coefficients.
        pattern: Wiener components of the integral; only which are equal matters.
        q: truncation order; defaults to the tensor's own order.

    Returns:
        ``I_k - sum_j C_j * sum_{sigma in G} C_{sigma(j)}`` with ``G`` the
        permutations of positions that carry equal components.
    """
    if pattern.k != tensor.spec.k:
        raise ValueError("pattern multiplicity does not match tensor")
    values = tensor.truncated(q)
    mirror = np.zeros_like(values)
    for axes in _position_permutations(pattern.components):
        mirror = mirror + np.transpose(values, axes=axes)
    correlation = float(np.sum(values * mirror))
    return kernel_norm(tensor.spec, tensor.dt) - correlation


def error_bound(tensor: ScaledTensor, q: int | None = None) -> float:
    r"""Upper bound :math:`k!\,(I_k - \sum_j C_j^2)` valid for any pattern."""
    values = tensor.truncated(q)
    tail = kernel_norm(tensor.spec, tensor.dt) - float(np.sum(values * values))
    return math.factorial(tensor.spec.k) * tail


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

    Moshier's Cephes ``zeta(x, q)`` as scipy ships it, operation for
    operation: above ``q = 1e8`` the first two terms of the asymptotic
    expansion, else direct terms until ``q + i > 9`` (at least nine), then
    the Euler-Maclaurin tail.  Keeping that order gives the same bits as
    ``scipy.special.zeta``.
    """
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
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
    """Prefix sums ``H[m] = sum_{1..m} 1/i`` and ``H2[m] = sum 1/i^2``,
    summed into their arrays and squared in place: no array is copied."""
    inv = 1.0 / np.arange(1, n + 1)
    h1, h2 = np.zeros(n + 1), np.zeros(n + 1)
    np.cumsum(inv, out=h1[1:])
    np.cumsum(np.multiply(inv, inv, out=inv), out=h2[1:])
    return h1, h2


#: Highest order of the trigonometric series that read
#: :func:`_frequency_interaction_sums`, which allocates about ``2q`` floats:
#: one evaluation took 0.115 s at ``q = 10**6`` and 1.9 s at ``10**7``.
TRIG_SERIES_CAP = 1_000_000


class SeriesCapError(Exception):
    """An error series, or the exact triple constant, was asked for an order above its cap."""


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
    # h[q - l] and h[q + l] over l = 1..q, as views rather than gathered copies
    below, above = slice(q - 1, None, -1), slice(q + 1, None)
    h1_diff = h1[below] - h1[above]
    inner1 = (h1_diff + 1.5 / l) / (2.0 * l)
    s_b = float(np.sum(inner1 / l**2))
    inner2 = (
        h2[:q]
        + h2[below]
        + h2[above]
        - h2[1 : q + 1]
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
    _checked_int(q, "weighted pair series order", 1)
    a = 1.0 / (2 * q + 1)
    b = 1.0 / (2 * q + 3)
    c = 1.0 / (2 * q + 5)
    bracket = a + (a * a + b * b) / 16.0 - (a + b) / 32.0 + 5.0 * (b + c) / 32.0
    return dt**4 * bracket / 16.0


def _series_pair_legendre_weighted_equal(q: int, dt: float) -> float:
    _checked_int(q, "weighted pair series order", 1)
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


def _weighted_trig_sums(q: int) -> tuple[float, float, float, float]:
    """``(h2, h4, s_b, s_c)``: the sums of ``1/r²`` and ``1/r⁴`` over ``r = 1..q``
    and :func:`_frequency_interaction_sums`, shared by the weighted trig series."""
    s_b, s_c = _frequency_interaction_sums(q)  # first: its cap is checked before any work
    h2 = float(np.pi**2 / 6.0) - _tail_sum_squares(q)
    h4 = float(np.pi**4 / 90.0) - _tail_sum_fourths(q)
    return h2, h4, s_b, s_c


def _triple_trig_common(q: int) -> tuple[float, float, float]:
    h2, h4, s_b, s_c = _weighted_trig_sums(q)
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
    h2, h4, s_b, s_c = _weighted_trig_sums(q)
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

    ``kind`` is one of :data:`SERIES_KINDS`, the keys of ``_SERIES``
    (``pair``/``triple`` = multiplicity 2/3, ``weighted`` = one time-weight
    factor, ``_tail`` = scheme that models the discarded tail with extra
    Gaussian variables, ``_equal`` = both components equal).

    Raises:
        ValueError: unknown kind, ``q`` not a nonnegative integer, an
            interval length that is not positive and finite, or an order or
            interval length at which the error has no finite float value
            (such as ``q = 10**400``).
        SeriesCapError: ``triple_trig``, ``triple_trig_tail`` or
            ``pair_trig_weighted`` above :data:`TRIG_SERIES_CAP`, before any work.
    """
    fn = _SERIES[_checked_name(kind, _SERIES, "series kind")]
    q = _checked_int(q, "truncation order")
    dt = _checked_float(dt, "interval length")
    try:
        value = fn(q, dt)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the {kind} error at q={q}, dt={dt!r} has no finite float value")
    return value
