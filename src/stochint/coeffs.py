r"""Fourier coefficients of simplex kernels with monomial weights.

The kernel of an iterated stochastic integral of multiplicity :math:`k`
with weights :math:`(t-s)^{l_r}` (exponent :math:`l_1` attached to the
innermost integration variable) has, for the Legendre basis on an interval
of length :math:`\Delta = T - t`, the exact expansion coefficients

.. math::
    C_{j_k \ldots j_1}
    = \frac{\Delta^{L + k/2}}{2^{L + k}}
      \prod_{r=1}^{k} \sqrt{2 j_r + 1}\; \bar C_{j_k \ldots j_1},
    \qquad L = l_1 + \cdots + l_k,

where :math:`\bar C` is the purely rational nested integral

.. math::
    \bar C_{j_k \ldots j_1}
    = \int_{-1}^{1} w_{l_k}(t_k) P_{j_k}(t_k)
      \cdots \int_{-1}^{t_2} w_{l_1}(t_1) P_{j_1}(t_1)\, dt_1 \cdots dt_k,
    \qquad w_l(x) = \bigl(-(1+x)\bigr)^{l}.

The sign of each weight factor lives inside :math:`\bar C` (so the reference
coefficient tables for weighted kernels carry explicit signs) and the scale
factor above is sign-free.

The nested integral is evaluated on exact Legendre-coefficient vectors.  Let
:math:`F_0 = 1` and :math:`F_r(x) = \int_{-1}^{x} w_{l_r} P_{j_r} F_{r-1}`,
the prefix series of the inner indices :math:`(j_1, \ldots, j_r)`.  A
series :math:`\sum_n c_n P_n` is held as integer numerators over one
positive denominator, :math:`c_n = \mathrm{nums}_n / \mathrm{den}`.  A rule
that divides term :math:`n` by :math:`d_n` first scales every numerator and
the denominator by the least common multiple of
:math:`d_n / \gcd(\mathrm{nums}_n, d_n)`, so each division is exact, and
then divides all of them by their one common gcd.  A
:class:`~fractions.Fraction` is built only for an output cell.  Each level
is built from three rules:

* multiplication by :math:`P_j` uses the product linearization of
  :mod:`stochint.basis` as integer rows over one denominator
  (``basis._product_rows``), which each walk computes and drops when it
  ends;
* each weight factor :math:`-(1+x)` uses
  :math:`x P_n = ((n+1) P_{n+1} + n P_{n-1}) / (2n+1)`;
* integration from :math:`-1` uses
  :math:`\int_{-1}^{x} P_n = (P_{n+1} - P_{n-1}) / (2n+1)`, and
  :math:`P_0 + P_1` for :math:`n = 0`.

By orthogonality the outermost level is a lookup: with
:math:`h = w_{l_k} F_{k-1} = \sum_n h_n P_n`,
:math:`\bar C_{j_k \ldots j_1} = 2 h_{j_k} / (2 j_k + 1)`.

One depth-first walk, ``_outer_series``, builds the prefix series in both
bases and reuses the levels a prefix shares with the one before it.
``bar_coeff``, ``coeff_tensor`` (each prefix fills its :math:`j_k` fiber),
the coefficient tables, the triple sum and the pair-series band table read
its Legendre rule above.  ``trig_coeff`` walks the whole index with the
trigonometric rule, exact in :math:`\mathbb{Q}[1/\pi]`: a level is a dict
from ``(f, s, n, p)`` to the rational coefficient of :math:`u^n \cos(2\pi f u)`
(``s = 0``) or :math:`u^n \sin(2\pi f u)` (``s = 1``) times :math:`\pi^{-p}`.
A basis function multiplies by the product-to-sum rules (frequencies
:math:`f \pm r`), :math:`\int_0^u` integrates by parts, each
:math:`1/(2\pi f)` adding one power of :math:`1/\pi`, and a weight shifts
:math:`n`.  Its :math:`\bar C` is :math:`(-1)^L 2^{L+k}` times the value at
:math:`u = 1`, and its norm is :math:`\sqrt2` per nonzero index, so it
takes the same scaling law.

``scale_coeff`` is the one route from :math:`\bar C` to a float: it
evaluates the scaling law above as
``bar * dt**(L + k/2) / 2**(L + k) * prod(sqrt(2 j_r + 1))``, in that order,
and ``scaled_tensor`` is its vectorisation, bit for bit.  The pair-series
band table stores ``scale_coeff`` at ``dt = 1``; its readers multiply by
``_dt_power(dt, spec.scale_exponent)``, as :math:`C(dt) = dt^{L + k/2} C(1)`.

The one float twin of the exact engine is ``_triple_square_sum_float``: the
unweighted triple Parseval sum of ``_triple_square_sum`` with float
product-linearization coefficients, which the order scans of
:mod:`stochint.qselect` read.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .basis import _checked_float, _checked_int, _common_multiple, _product_rows

__all__ = [
    "KernelSpec",
    "CoeffTensor",
    "ScaledTensor",
    "TensorBudgetError",
    "TENSOR_WORK_BUDGET",
    "bar_coeff",
    "coeff_tensor",
    "scale_coeff",
    "scaled_tensor",
    "trig_coeff",
    "tensor_to_json",
    "tensor_to_csv",
]

#: Dense tensors refuse to materialize when their work exceeds this.  With
#: ``n = q + 1`` and total weight ``L``, the work is ``(k + L) * n**k`` (each
#: output cell and series row, lengthened by ``L``) plus, for each weight pass
#: at level ``r``, its ``n**r`` series of length up to ``L + r*n + 1``; all
#: times ``1 + L/512``, as the integers grow with ``L``.  Building and
#: serialising a tensor took 0.3 to 3.1 us per unit of work on a 2-vCPU host,
#: so the budget is 16 s at most.
TENSOR_WORK_BUDGET = 5_000_000

#: Weight pairs for which the banded double series is implemented.
DOUBLE_SERIES_WEIGHTS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))


class TensorBudgetError(Exception):
    """Requested dense tensor exceeds the work budget."""


@dataclass(frozen=True, slots=True)
class KernelSpec:
    r"""Multiplicity and monomial weight exponents of a simplex kernel.

    Args:
        k: multiplicity, 1 to 5.
        weights: exponents :math:`(l_1, \ldots, l_k)` of the factors
            :math:`(t-s)^{l}`, innermost integration variable first, each
            ``>= 0``.  Both are stored as ``int``.
    """

    k: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _checked_int(self.k, "multiplicity", 1, 5))
        weights = tuple(_checked_int(l, "weight exponent") for l in self.weights)
        if len(weights) != self.k:
            raise ValueError("weights length must equal multiplicity")
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def unweighted(k: int) -> KernelSpec:
        return KernelSpec(k, (0,) * k)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def scale_exponent(self) -> float:
        """Power of the interval length in the scaled coefficient (exact as a float)."""
        return self.total_weight + self.k / 2


def _dt_power(dt: float, exponent: float) -> float:
    """``dt ** exponent`` after checking ``dt``; a power that overflows raises ``ValueError``."""
    dt = _checked_float(dt, "interval length")
    try:
        return dt**exponent
    except OverflowError:
        raise ValueError(f"interval length {dt!r} to the power {exponent} is not finite") from None


class _Series(NamedTuple):
    """The Legendre series ``sum(nums[n] * P_n) / den``: integers, ``den > 0``."""

    nums: list[int]
    den: int


_ONE = _Series([1], 1)
_ZERO = Fraction(0)


def _reduced(nums: list[int], den: int) -> _Series:
    """The series with its numerators and denominator divided by their gcd."""
    g = math.gcd(den, *nums)
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    return _Series(nums, den)


def _odd_multiple(nums: list[int]) -> int:
    """The scale that divides every nonzero ``nums[n]`` by ``2n + 1`` exactly."""
    return _common_multiple((c, 2 * n + 1) for n, c in enumerate(nums) if c)


def _times_weight(series: _Series, l: int) -> _Series:
    """Multiply a series by ``(-(1+x))**l``."""
    for _ in range(l):
        nums = series.nums
        scale = _odd_multiple(nums)
        out = [0] * (len(nums) + 1)
        for n, c in enumerate(nums):
            if c:
                out[n] -= c * scale
                c = c * scale // (2 * n + 1)
                out[n + 1] -= (n + 1) * c
                if n:
                    out[n - 1] -= n * c
        series = _reduced(out, series.den * scale)
    return series


def _times_legendre(series: _Series, j: int, rows: Callable) -> _Series:
    """Multiply a series by ``P_j``, with product rows from ``rows``."""
    terms = [(c, rows(j, n)) for n, c in enumerate(series.nums) if c]
    scale = _common_multiple((c, den) for c, (den, _) in terms)
    out = [0] * (len(series.nums) + j)
    for c, (den, row) in terms:
        c = c * scale // den
        for idx, a in row:
            out[idx] += c * a
    return _reduced(out, series.den * scale)


def _integral(series: _Series) -> _Series:
    """Antiderivative of a series that vanishes at -1."""
    nums = series.nums
    scale = _odd_multiple(nums)
    out = [0] * (len(nums) + 1)
    for n, c in enumerate(nums):
        if c:
            c = c * scale // (2 * n + 1)
            out[n + 1] += c
            if n:
                out[n - 1] -= c
            else:
                out[0] += c
    return _reduced(out, series.den * scale)


def _legendre_step(rows: Callable, h: _Series, j: int, l: int) -> _Series:
    """The Legendre level rule of :func:`_outer_series`: ``P_j``, ``int_{-1}^x``, ``w_l``."""
    return _times_weight(_integral(_times_legendre(h, j, rows)), l)


def _outer_series(spec: KernelSpec, prefixes: Iterable, start=None, step=None) -> Iterator:
    """Yield ``(prefix, h)`` with ``h = w_{l_{r+1}} F_r`` for each prefix ``(j_1..j_r)``.

    The one prefix walk of both bases: ``start`` is ``w_{l_1}`` and
    ``step(h, j, l)`` the next level (``l = 0`` past the last), by default
    the Legendre rule.  Depth first, so sorted prefixes build each level once.
    """
    if step is None:
        start, step = _times_weight(_ONE, spec.weights[0]), partial(_legendre_step, _product_rows())
    weights = (*spec.weights, 0)
    path = [((), start)]  # (prefix[:r], w_{l_{r+1}} F_r)
    for prefix in prefixes:
        while path[-1][0] != prefix[: len(path) - 1]:
            path.pop()
        for r in range(len(path), len(prefix) + 1):
            path.append((prefix[:r], step(path[-1][1], prefix[r - 1], weights[r])))
        yield prefix, path[-1][1]


def _outer_coeffs(h: _Series, js) -> list[Fraction]:
    """Orthogonality lookups ``int_{-1}^{1} P_j h = 2 h_j / (2j+1)`` for each ``j`` in ``js``."""
    nums, den = h
    return [
        Fraction(2 * nums[j], (2 * j + 1) * den) if j < len(nums) and nums[j] else _ZERO
        for j in js
    ]


def _fiber_square_sum(h: _Series, q: int) -> Fraction:
    """``sum((2 j + 1) * bar**2 for j_k = j <= q)`` by Parseval: ``4 h_j**2 / (2j+1)``."""
    terms = [(4 * c * c, 2 * j + 1) for j, c in enumerate(h.nums[: q + 1]) if c]
    scale = math.lcm(*(d for _, d in terms))
    return Fraction(sum(c * (scale // d) for c, d in terms), scale * h.den**2)


def _triple_square_sum(q: int) -> Fraction:
    r"""Exact :math:`\sum_{j \in \{0..q\}^3} \prod_r (2 j_r + 1)\, \bar C_j^2`.

    One Parseval fiber per inner pair ``(a, b)``; the near-tie check of the
    triple order scan reads it.
    """
    walk = _outer_series(KernelSpec.unweighted(3), itertools.product(range(q + 1), repeat=2))
    return sum(((2 * a + 1) * (2 * b + 1) * _fiber_square_sum(h, q) for (a, b), h in walk), _ZERO)


def _central_ratios(n: int) -> np.ndarray:
    """``a_k / 2**k = binom(2k, k) / 4**k`` for ``k < n``, each correctly rounded.

    The product-linearization coefficient is unchanged by ``a_k -> a_k / 2**k``
    (the exponents cancel), and these stay in ``(0, 1]`` where ``a_k`` overflows.
    """
    out = np.empty(n)
    binom = 1
    for k in range(n):
        out[k] = binom / 4**k
        binom = binom * (2 * k + 1) * (2 * k + 2) // (k + 1) ** 2
    return out


def _float_product_matrix(b: int, n: int, ratios: np.ndarray) -> np.ndarray:
    """``M[i, m]``: the coefficient of ``P_i`` in ``P_b P_m`` as a float, for ``i, m < n``.

    The product linearization of :mod:`stochint.basis` with ``ratios`` from
    :func:`_central_ratios` (length at least ``n + b``) in place of ``a_k``.
    """
    k, m = np.broadcast_arrays(np.arange(b + 1)[:, None], np.arange(n)[None, :])
    i = m + b - 2 * k
    keep = (k <= m) & (i < n)
    k, m, i = k[keep], m[keep], i[keep]
    s = m + b
    out = np.zeros((n, n))
    out[i, m] = (
        ratios[m - k] * ratios[k] * ratios[b - k] / ratios[s - k]
        * ((2 * s - 4 * k + 1) / (2 * s - 2 * k + 1))
    )
    return out


def _triple_square_sum_float(q: int) -> float:
    r"""Float evaluation of the unweighted triple Parseval sum.

    The same sum as the exact :func:`_triple_square_sum`: the inner pair series is
    :math:`P_b (P_{a+1} - P_{a-1}) / (2a+1)` (:math:`P_b (P_0 + P_1)` at
    ``a = 0``), integrated from -1.  For each ``b`` all ``a`` are one array,
    so the work is :math:`O(q^3)` in :math:`O(q)` array steps.
    """
    n = q + 2
    ratios = _central_ratios(2 * n)
    odd = 2.0 * np.arange(n) + 1.0
    parts = []
    for b in range(q + 1):
        prod = _float_product_matrix(b, n, ratios)
        inner = prod[:, 1:].copy()
        inner[:, 1:] -= prod[:, :q]
        inner[:, 0] += prod[:, 0]
        inner /= odd[: q + 1]
        step = inner / odd[:, None]
        h = -step[1:]
        h[1:] += step[:q]
        h[0] += step[0]
        fibers = (4.0 / odd[: q + 1]) @ (h * h)
        parts.append((2 * b + 1) * float(odd[: q + 1] @ fibers))
    return math.fsum(parts)


def _checked_index(spec: KernelSpec, j) -> tuple[int, ...]:
    """``j`` as a tuple of ``int``, after checking that it is a multi-index of ``spec``."""
    j = tuple(_checked_int(x, "basis index") for x in j)
    if len(j) != spec.k:
        raise ValueError("multi-index length must equal multiplicity")
    return j


def bar_coeff(spec: KernelSpec, j: tuple[int, ...]) -> Fraction:
    r"""Exact rational coefficient :math:`\bar C` for one multi-index.

    Args:
        spec: kernel multiplicity and weights (innermost first).
        j: basis multi-index :math:`(j_1, \ldots, j_k)`, innermost first.

    Returns:
        The exact nested integral over the simplex in ``[-1, 1]``.
    """
    j = _checked_index(spec, j)
    [(_, h)] = _outer_series(spec, [j[:-1]])
    return _outer_coeffs(h, j[-1:])[0]


def _check_shape(tensor) -> None:
    """Store ``q`` as an ``int`` order and refuse ``values`` whose shape is not ``(q+1,)*k``."""
    object.__setattr__(tensor, "q", _checked_int(tensor.q, "truncation order"))
    expected = (tensor.q + 1,) * tensor.spec.k
    if tensor.values.shape != expected:
        raise ValueError(f"tensor shape {tensor.values.shape} != {expected}")


@dataclass(frozen=True, eq=False)
class CoeffTensor:
    r"""Dense tensor of exact coefficients :math:`\bar C` on ``{0..q}^k``.

    ``values`` is an object ndarray of :class:`~fractions.Fraction`; axis 0
    is :math:`j_1` (innermost integration variable).
    """

    spec: KernelSpec
    q: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_shape(self)

    def float_values(self) -> np.ndarray:
        return self.values.astype(np.float64)


def _scale(bar, spec: KernelSpec, norm, dt: float):
    """The scaling law on a float ``bar`` and ``norm``, or on arrays of them."""
    return bar * _dt_power(dt, spec.scale_exponent) / 2 ** (spec.total_weight + spec.k) * norm


def scale_coeff(bar: Fraction, spec: KernelSpec, j: tuple[int, ...], dt: float) -> float:
    r"""Interval scaling :math:`\bar C \mapsto C` for interval length ``dt``.

    Returns ``bar * dt**(L + k/2) / 2**(L + k) * prod(sqrt(2 j_r + 1))``,
    left to right, with ``bar`` rounded once and the product in index order.
    The weight signs are already inside ``bar``.  This is the only place
    rationals become floats; :func:`scaled_tensor` is its vectorisation.
    """
    j = _checked_index(spec, j)
    return _scale(float(bar), spec, math.prod(math.sqrt(2 * idx + 1) for idx in j), dt)


@dataclass(frozen=True, eq=False)
class ScaledTensor:
    """Float tensor of interval-scaled coefficients ``C`` on ``{0..q}^k``."""

    spec: KernelSpec
    q: int
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_shape(self)
        object.__setattr__(self, "dt", _checked_float(self.dt, "interval length"))

    def truncated(self, q: int | None = None) -> np.ndarray:
        """The coefficients on ``{0..q}^k``; ``q`` defaults to the tensor's own order."""
        q = self.q if q is None else _checked_int(q, "truncation order", 0, self.q)
        return self.values[(slice(0, q + 1),) * self.spec.k]


def scaled_tensor(tensor: CoeffTensor, dt: float) -> ScaledTensor:
    """:func:`scale_coeff` on every entry, bit for bit (norms multiply in index order)."""
    roots = np.sqrt(2.0 * np.arange(tensor.q + 1) + 1.0)
    norm = reduce(np.multiply.outer, [roots] * tensor.spec.k)
    values = _scale(tensor.float_values(), tensor.spec, norm, dt)
    return ScaledTensor(spec=tensor.spec, q=tensor.q, dt=dt, values=values)


def coeff_tensor(spec: KernelSpec, q: int) -> CoeffTensor:
    r"""All exact coefficients :math:`\bar C` for ``j in {0..q}^k``.

    The walk over the inner indices builds each prefix series once and
    fills the whole :math:`j_k` fiber from it by orthogonality.

    Args:
        spec: kernel description.
        q: truncation order (inclusive).

    Raises:
        TensorBudgetError: before any work, if the work exceeds
            :data:`TENSOR_WORK_BUDGET`, or if ``L + k`` exceeds 1023.
    """
    q = _checked_int(q, "truncation order")
    n, total = q + 1, spec.total_weight
    if total + spec.k > 1023:  # |bar| <= 2**(L + k) / k!, so every float field stays finite
        raise TensorBudgetError(
            f"total weight {total} plus multiplicity {spec.k} is over 1023: floats would overflow"
        )
    passes = sum(n**r * l * (total + r * n + 1) for r, l in enumerate(spec.weights))
    work = ((spec.k + total) * n**spec.k + passes) * (512 + total) // 512
    if work > TENSOR_WORK_BUDGET:
        raise TensorBudgetError(
            f"dense tensor of {Decimal(n**spec.k):.3e} entries at multiplicity {spec.k} has "
            f"work {Decimal(work):.3e}, over the budget {TENSOR_WORK_BUDGET}"
        )
    values = np.empty((n,) * spec.k, dtype=object)
    for prefix, h in _outer_series(spec, itertools.product(range(n), repeat=spec.k - 1)):
        values[prefix] = _outer_coeffs(h, range(n))
    return CoeffTensor(spec=spec, q=q, values=values)


class _Band(NamedTuple):
    """Pair-series cells ``(a, a + offset)`` and ``(a + offset, a)`` for ``a >= start``.

    ``exact`` holds the two rows of cells (the second is zero on the
    diagonal).  ``unit`` holds them and their exact sum, which is all an
    equal-component series reads, each as :func:`scale_coeff` at
    ``dt = 1``.
    """

    offset: int
    start: int
    exact: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    unit: np.ndarray


class _BandTable(NamedTuple):
    bands: tuple[_Band, ...]
    trace: Fraction
    needed: int


def _band_table(weights, q: int) -> _BandTable:
    """:func:`_pair_bands` for a supported weight pair and order; every reader goes through it."""
    weights = tuple(_checked_int(l, "weight exponent") for l in weights)
    if weights not in DOUBLE_SERIES_WEIGHTS:
        raise ValueError(f"unsupported weight pair {weights}; supported: {DOUBLE_SERIES_WEIGHTS}")
    return _pair_bands(weights, _checked_int(q, "truncation order"))


@lru_cache(maxsize=128)
def _pair_bands(weights: tuple[int, int], q: int) -> _BandTable:
    r"""Band table of the truncated pair series with ``weights`` at order ``q``.

    With :math:`L = l_1 + l_2` the series keeps the nonzero cells
    :math:`\bar C[a, b]` with :math:`\min(a, b) \le q`; all of them lie in
    :math:`|a - b| \le L + 1`.  The corner cells ``(q, q+1)`` and
    ``(q+1, q)`` hold :math:`\bar C - (-1)^L \bar C_{(0,0)}` instead, which
    vanishes for :math:`L \le 1` except at ``q = 0``; this keeps the
    equal-component product identities exact at every ``q``.  For the same
    reason the ``(1, 1)`` series also keeps its ``(1, 1)`` cell at ``q = 0``.
    Each inner index ``a`` has one Legendre series, read by orthogonality.

    Returns the ``bands`` by offset, the ``trace`` (the exact kept diagonal
    sum ``sum((2a+1) * bar_aa) / 2**(L+2)`` at ``dt = 1``, the Stratonovich
    mean at equal components) and ``needed``, the Gaussians per component.
    """
    spec = KernelSpec(2, weights)
    total = spec.total_weight
    series = [h for _, h in _outer_series(spec, ((a,) for a in range(q + total + 2)))]

    def cell(a: int, b: int) -> Fraction:
        value = _outer_coeffs(series[a], (b,))[0]
        if {a, b} == {q, q + 1}:
            value -= (-1) ** total * bar_coeff(KernelSpec.unweighted(2), (a, b))
        return value

    bands = []
    for d in range(total + 2):
        n = (max(q, 1) if d == 0 and weights == (1, 1) else q) + 1
        upper = [cell(a, a + d) for a in range(n)]
        lower = [cell(a + d, a) if d else Fraction(0) for a in range(n)]
        kept = [a for a in range(n) if upper[a] or lower[a]]
        if kept:
            lo, hi = kept[0], kept[-1] + 1
            rows = (tuple(upper[lo:hi]), tuple(lower[lo:hi]))
            folded = [u + v for u, v in zip(*rows)]
            # The norm is symmetric in (a, b), so one index serves all three rows.
            unit = np.array(
                [[scale_coeff(c, spec, (a, a + d), 1.0) for a, c in enumerate(row, lo)]
                 for row in (*rows, folded)]
            )
            unit.flags.writeable = False  # shared by every caller through the cache
            bands.append(_Band(d, lo, rows, unit))
    trace = sum(((2 * a + 1) * c for a, c in enumerate(bands[0].exact[0], bands[0].start)), _ZERO)
    needed = max(b.start + b.unit.shape[1] + b.offset for b in bands)
    return _BandTable(tuple(bands), trace / 2 ** (total + 2), needed)


# ---------------------------------------------------------------------------
# Trigonometric coefficients, exact in Q[1/pi]
# ---------------------------------------------------------------------------

def _trig_times_basis(terms: dict, j: int) -> dict:
    """Multiply by basis function ``j`` without its sqrt(2), product to sum."""
    r, b = (j + 1) // 2, j % 2
    out = defaultdict(Fraction)
    for (f, s, n, p), c in terms.items():
        kind = s ^ b
        for g, sign in ((f + r, -1 if s & b else 1), (f - r, -1 if b > s else 1)):
            if g < 0:
                g, sign = -g, -sign if kind else sign
            if g or not kind:
                out[g, kind, n, p] += sign * c / 2
    return out


def _trig_integral(terms: dict) -> dict:
    """``int_0^u`` of each term, by parts; each ``1/(2 pi f)`` adds one power of ``1/pi``."""
    out = defaultdict(Fraction)
    for (f, s, n, p), c in terms.items():
        if not f:
            out[0, 0, n + 1, p] += c / (n + 1)
            continue
        while True:
            c, p = c / (2 * f), p + 1
            sign = -1 if s else 1  # the antiderivative of cos is sin, of sin is -cos
            out[f, 1 - s, n, p] += sign * c
            if not n:
                if s:
                    out[0, 0, 0, p] += c  # cos(0) at the lower limit
                break
            c, s, n = -sign * n * c, 1 - s, n - 1
    return out


def _trig_step(terms: dict, j: int, l: int) -> dict:
    """The trigonometric level rule of :func:`_outer_series`: basis ``j``, ``int_0^u``, ``u**l``."""
    terms = _trig_integral(_trig_times_basis(terms, j))
    return {(f, s, n + l, p): c for (f, s, n, p), c in terms.items()} if l else terms


def _trig_bars(spec: KernelSpec, cells: Iterable[tuple[int, ...]]) -> Iterator:
    r"""Yield ``(j, bar)`` per cell: ``bar[p]`` multiplies :math:`\pi^{-p}` in :math:`\bar C_j`.

    The basis functions of :func:`trig_coeff` lose their :math:`\sqrt2`.  At
    :math:`u = 1` only the cosine terms remain, as :math:`\sin 2\pi f = 0`.
    """
    scale = (-2) ** spec.total_weight * 2**spec.k
    start = {(0, 0, spec.weights[0], 0): Fraction(1)}
    for j, terms in _outer_series(spec, cells, start, _trig_step):
        at_one = defaultdict(Fraction)
        for (_, s, _, p), c in terms.items():
            if not s:
                at_one[p] += c
        yield j, tuple(scale * at_one[p] for p in range(max(at_one, default=0) + 1))


def _trig_bar(spec: KernelSpec, j: tuple[int, ...]) -> tuple[Fraction, ...]:
    """:func:`_trig_bars` of the one cell ``j``."""
    [(_, bar)] = _trig_bars(spec, [j])
    return bar


def trig_coeff(spec: KernelSpec, j: tuple[int, ...], dt: float) -> float:
    r"""Scaled coefficient ``C`` for the trigonometric basis.

    The basis on an interval of length ``dt`` is
    :math:`\{1, \sqrt2 \sin(2\pi r u), \sqrt2 \cos(2\pi r u)\}/\sqrt{dt}`
    with ``u`` the normalized coordinate; index ``2r-1`` is the sine and
    ``2r`` the cosine of frequency ``r``.  The exact :func:`_trig_bar` is
    summed in floats and scaled by the law of :func:`scale_coeff`.

    Args:
        spec: kernel description (weights innermost first).
        j: basis multi-index, innermost first.
        dt: interval length.
    """
    j = _checked_index(spec, j)
    bar = math.fsum(float(c) / math.pi**p for p, c in enumerate(_trig_bar(spec, j)))
    return _scale(bar, spec, math.sqrt(2 ** sum(map(bool, j))), dt)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def tensor_to_json(tensor: CoeffTensor) -> str:
    """Serialize a tensor to JSON with exact and float fields.

    Schema: top-level object with ``k``, ``weights`` (innermost first),
    ``q``, ``index_order`` and ``entries``; each entry has the multi-index
    ``j`` (innermost first), exact ``num``/``den`` and a ``float`` field.
    The text is ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` byte
    for byte, written directly: keys in sorted order, ``repr`` floats.
    """
    lines = [f"        {i}" for i in range(tensor.q + 1)]
    entries = []
    for v, j in zip(tensor.values.ravel(), itertools.product(lines, repeat=tensor.spec.k)):
        num, den = v.numerator, v.denominator
        j = ",\n".join(j)
        entries.append(
            f'    {{\n      "den": {den},\n      "float": {num / den!r},\n'
            f'      "j": [\n{j}\n      ],\n      "num": {num}\n    }}'
        )
    weights = ",\n".join(f"    {w}" for w in tensor.spec.weights)
    return (
        '{\n  "entries": [\n' + ",\n".join(entries) + '\n  ],\n'
        f'  "index_order": "innermost_first",\n  "k": {tensor.spec.k},\n'
        f'  "q": {tensor.q},\n  "weights": [\n{weights}\n  ]\n}}\n'
    )


def tensor_to_csv(tensor: CoeffTensor) -> str:
    """Serialize a tensor to CSV with fractions as ``p/q`` strings."""
    header = ",".join(f"j{i + 1}" for i in range(tensor.spec.k)) + ",bar\n"
    cells = itertools.product(map(str, range(tensor.q + 1)), repeat=tensor.spec.k)
    return header + "".join(
        f"{','.join(j)},{v.numerator}/{v.denominator}\n"
        for j, v in zip(cells, tensor.values.ravel())
    )
