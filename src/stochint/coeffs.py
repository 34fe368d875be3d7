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
then divides all of them by their one common gcd.  An output cell is
reduced by one gcd (``_outer_cells``), and a
:class:`~fractions.Fraction` is built only where a caller asks for one.
Each level is built from three rules:

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

One depth-first walk, ``_outer_series``, builds the prefix series and
reuses the levels a prefix shares with the one before it.  ``bar_coeff``,
``coeff_tensor`` (each prefix fills its :math:`j_k` fiber), the coefficient
tables, the triple sum and the pair-series band table read it.

The text export has one formatter per format (``_json_chunks``,
``_csv_chunks``), which turns a stream of :math:`j_k` fibers of
``(num, den)`` cells into one chunk of text per fiber.  ``tensor_to_json``
and ``tensor_to_csv`` feed it a tensor's values and join the chunks;
``_tensor_chunks`` feeds it the walk, as each prefix is built, so the
command line writes a tensor of any admitted size while holding one fiber.
Both run in C order, the walk's order (the last index runs fastest), and
``coeff_tensor`` and ``_tensor_chunks`` check the one work budget
(``_checked_work``) before any work.

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
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
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
        k = _checked_int(k, "multiplicity", 1, 5)  # before (0,) * k is built
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


def _outer_series(spec: KernelSpec, prefixes: Iterable) -> Iterator:
    """Yield ``(prefix, h)`` with ``h = w_{l_{r+1}} F_r`` for each prefix ``(j_1..j_r)``.

    Each level multiplies by ``P_j``, integrates from -1 and applies the
    next weight (``l = 0`` past the last).  Depth first, so sorted prefixes
    build each level once.
    """
    rows = _product_rows()
    weights = (*spec.weights, 0)
    path = [((), _times_weight(_ONE, weights[0]))]  # (prefix[:r], w_{l_{r+1}} F_r)
    for prefix in prefixes:
        while path[-1][0] != prefix[: len(path) - 1]:
            path.pop()
        for r in range(len(path), len(prefix) + 1):
            h = _integral(_times_legendre(path[-1][1], prefix[r - 1], rows))
            path.append((prefix[:r], _times_weight(h, weights[r])))
        yield prefix, path[-1][1]


def _outer_cells(h: _Series, js) -> list[tuple[int, int]]:
    """Orthogonality lookups ``int_{-1}^{1} P_j h = 2 h_j / (2j+1)`` for each ``j`` in ``js``,
    each as its lowest terms ``(num, den)`` with ``den > 0`` (``(0, 1)`` for zero)."""
    nums, den = h
    cells = []
    for j in js:
        c = nums[j] if j < len(nums) else 0
        if c:
            num, d = 2 * c, (2 * j + 1) * den
            g = math.gcd(num, d)
            cells.append((num // g, d // g))
        else:
            cells.append((0, 1))
    return cells


def _outer_coeffs(h: _Series, js) -> list[Fraction]:
    """:func:`_outer_cells` as :class:`~fractions.Fraction` values."""
    return [Fraction(num, den) for num, den in _outer_cells(h, js)]


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


def _checked_work(spec: KernelSpec, q) -> int:
    """``q`` as an ``int`` order, after refusing a dense tensor over the work budget.

    Every dense route (:func:`coeff_tensor` and the streamed text of
    :func:`_tensor_chunks`) calls it before any work.

    Raises:
        TensorBudgetError: if the work exceeds :data:`TENSOR_WORK_BUDGET`, or
            if ``L + k`` exceeds 1023.
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
    return q


def _walk(spec: KernelSpec, q: int) -> Iterator:
    """``(prefix, h)`` for every inner prefix in ``{0..q}^(k-1)``, in C order."""
    return _outer_series(spec, itertools.product(range(q + 1), repeat=spec.k - 1))


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
    q = _checked_work(spec, q)
    values = np.empty((q + 1,) * spec.k, dtype=object)
    for prefix, h in _walk(spec, q):
        values[prefix] = _outer_coeffs(h, range(q + 1))
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
# Export
# ---------------------------------------------------------------------------


def _json_chunks(spec: KernelSpec, q: int, fibers: Iterable) -> Iterator[str]:
    """The JSON text of a tensor: an opening chunk, one chunk per ``j_k`` fiber, a closing chunk.

    ``fibers`` yields each fiber's cells as ``(num, den)`` in lowest terms,
    in C order (the last index runs fastest).  Joined, the chunks are
    ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` byte for byte: keys
    in sorted order, ``repr`` floats, and ``num / den`` is correctly rounded,
    as ``float(Fraction)`` is.
    """
    lines = [f"        {i}" for i in range(q + 1)]
    yield '{\n  "entries": [\n'
    sep = ""
    for prefix, cells in zip(itertools.product(range(q + 1), repeat=spec.k - 1), fibers):
        head = "".join(f"{lines[i]},\n" for i in prefix)
        yield sep + ",\n".join(
            f'    {{\n      "den": {den},\n      "float": {num / den!r},\n'
            f'      "j": [\n{head}{lines[j]}\n      ],\n      "num": {num}\n    }}'
            for j, (num, den) in enumerate(cells)
        )
        sep = ",\n"
    weights = ",\n".join(f"    {w}" for w in spec.weights)
    yield (
        '\n  ],\n'
        f'  "index_order": "innermost_first",\n  "k": {spec.k},\n'
        f'  "q": {q},\n  "weights": [\n{weights}\n  ]\n}}\n'
    )


def _csv_chunks(spec: KernelSpec, q: int, fibers: Iterable) -> Iterator[str]:
    """The CSV text of a tensor, fractions as ``p/q``: a header, then one chunk per fiber."""
    yield ",".join(f"j{i + 1}" for i in range(spec.k)) + ",bar\n"
    for prefix, cells in zip(itertools.product(range(q + 1), repeat=spec.k - 1), fibers):
        head = "".join(f"{i}," for i in prefix)
        yield "".join(f"{head}{j},{num}/{den}\n" for j, (num, den) in enumerate(cells))


_CHUNKS = {"json": _json_chunks, "csv": _csv_chunks}


def _tensor_chunks(spec: KernelSpec, q: int, fmt: str) -> Iterator[str]:
    """The text of ``coeff_tensor(spec, q)`` in ``fmt`` ("json" or "csv"), streamed.

    Each chunk is formatted as the walk yields its prefix, so no tensor,
    :class:`~fractions.Fraction` or whole text is built.  The budget check
    runs when this is called, before the first chunk is asked for.
    """
    q = _checked_work(spec, q)
    return _CHUNKS[fmt](spec, q, (_outer_cells(h, range(q + 1)) for _, h in _walk(spec, q)))


def _value_cells(tensor: CoeffTensor) -> Iterator[list[tuple[int, int]]]:
    """The tensor's ``j_k`` fibers in C order, each cell as ``(num, den)``."""
    for fiber in tensor.values.reshape(-1, tensor.q + 1):
        yield [(v.numerator, v.denominator) for v in fiber]


def tensor_to_json(tensor: CoeffTensor) -> str:
    """Serialize a tensor to JSON with exact and float fields.

    Schema: top-level object with ``k``, ``weights`` (innermost first),
    ``q``, ``index_order`` and ``entries``; each entry has the multi-index
    ``j`` (innermost first), exact ``num``/``den`` and a ``float`` field.
    The text is ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` byte
    for byte.
    """
    return "".join(_json_chunks(tensor.spec, tensor.q, _value_cells(tensor)))


def tensor_to_csv(tensor: CoeffTensor) -> str:
    """Serialize a tensor to CSV with fractions as ``p/q`` strings."""
    return "".join(_csv_chunks(tensor.spec, tensor.q, _value_cells(tensor)))
