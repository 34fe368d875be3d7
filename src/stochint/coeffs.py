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
the prefix series of the inner indices :math:`(j_1, \ldots, j_r)`.  Each
level is built from three rules on a series :math:`\sum_n c_n P_n`:

* multiplication by :math:`P_j` uses the product linearization
  :func:`~stochint.basis.product_expand`;
* each weight factor :math:`-(1+x)` uses
  :math:`x P_n = ((n+1) P_{n+1} + n P_{n-1}) / (2n+1)`;
* integration from :math:`-1` uses
  :math:`\int_{-1}^{x} P_n = (P_{n+1} - P_{n-1}) / (2n+1)`, and
  :math:`P_0 + P_1` for :math:`n = 0`.

By orthogonality the outermost level is a lookup: with
:math:`h = w_{l_k} F_{k-1} = \sum_n h_n P_n`,
:math:`\bar C_{j_k \ldots j_1} = 2 h_{j_k} / (2 j_k + 1)`.

``bar_coeff`` computes single entries, ``coeff_tensor`` dense tensors (each
prefix series is built once and fills its whole :math:`j_k` fiber), and
``trig_coeff`` the analogous coefficient for the trigonometric basis by
nested high-precision Gauss-Legendre quadrature.

``scale_coeff`` is the one route from :math:`\bar C` to a float: it
evaluates the scaling law above as
``bar * dt**(L + k/2) / 2**(L + k) * prod(sqrt(2 j_r + 1))``, in that order,
and ``scaled_tensor`` is its vectorisation, bit for bit.  The pair-series
band table stores ``scale_coeff`` at ``dt = 1``; its readers multiply by
``dt ** spec.scale_exponent``, as :math:`C(dt) = dt^{L + k/2} C(1)`.

The one float twin of the exact engine is ``_triple_square_sum_float``: the
unweighted triple Parseval sum with float product-linearization
coefficients, which the order scans of :mod:`stochint.qselect` read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .basis import product_expand

__all__ = [
    "KernelSpec",
    "CoeffTensor",
    "ScaledTensor",
    "TensorBudgetError",
    "QuadratureError",
    "TENSOR_ENTRY_BUDGET",
    "bar_coeff",
    "coeff_tensor",
    "scale_coeff",
    "scaled_tensor",
    "trig_coeff",
    "tensor_to_json",
    "tensor_to_csv",
]

#: Dense tensors refuse to materialize beyond this many entries.
TENSOR_ENTRY_BUDGET = 10_000_000


class TensorBudgetError(Exception):
    """Requested dense tensor exceeds the configured entry budget."""


class QuadratureError(Exception):
    """Nested quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True, slots=True)
class KernelSpec:
    r"""Multiplicity and monomial weight exponents of a simplex kernel.

    Args:
        k: multiplicity, 1 to 5.
        weights: exponents :math:`(l_1, \ldots, l_k)` of the factors
            :math:`(t-s)^{l}`, innermost integration variable first.
    """

    k: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 5:
            raise ValueError(f"multiplicity must be 1..5, got {self.k}")
        if len(self.weights) != self.k:
            raise ValueError("weights length must equal multiplicity")
        if any(l < 0 for l in self.weights):
            raise ValueError("weight exponents must be nonnegative")

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


def _check_interval(dt: float) -> None:
    """Reject an interval length that is not a positive finite float (NaN too)."""
    if not 0 < dt < math.inf:
        raise ValueError("interval length must be positive and finite")


# Legendre series are lists ``c`` standing for ``sum(c[n] * P_n)``: nonzero
# entries are Fractions, absent terms the integer 0.


def _times_weight(series: list, l: int) -> list:
    """Multiply a series by ``(-(1+x))**l``."""
    for _ in range(l):
        out = [0] * (len(series) + 1)
        for n, c in enumerate(series):
            if c:
                out[n] -= c
                c = c / (2 * n + 1)
                out[n + 1] -= (n + 1) * c
                if n:
                    out[n - 1] -= n * c
        series = out
    return series


def _times_legendre(series: list, j: int) -> list:
    """Multiply a series by ``P_j``."""
    out = [0] * (len(series) + j)
    for n, c in enumerate(series):
        if c:
            for idx, k in product_expand(j, n):
                out[idx] += c * k
    return out


def _integral(series: list) -> list:
    """Antiderivative of a series that vanishes at -1."""
    out = [0] * (len(series) + 1)
    for n, c in enumerate(series):
        if c:
            if n == 0:
                out[0] += c
                out[1] += c
            else:
                c = c / (2 * n + 1)
                out[n + 1] += c
                out[n - 1] -= c
    return out


def _outer_series(spec: KernelSpec, prefix: tuple[int, ...]) -> list:
    """Series ``h = w_{l_k} F_{k-1}`` of the inner indices ``(j_1..j_{k-1})``."""
    series = [Fraction(1)]
    for l, j in zip(spec.weights, prefix):
        series = _integral(_times_legendre(_times_weight(series, l), j))
    return _times_weight(series, spec.weights[-1])


def _outer_coeff(h: list, j: int) -> Fraction:
    """Orthogonality lookup ``int_{-1}^{1} P_j h = 2 h_j / (2j+1)``."""
    return h[j] * Fraction(2, 2 * j + 1) if j < len(h) else Fraction(0)


def _fiber_square_sum(spec: KernelSpec, prefix: tuple[int, ...], q: int) -> Fraction:
    """``sum((2 j + 1) * bar**2 for j_k = j <= q)`` by Parseval: ``4 h_j**2 / (2j+1)``."""
    h = _outer_series(spec, prefix)[: q + 1]
    return sum((4 * c * c / (2 * j + 1) for j, c in enumerate(h) if c), Fraction(0))


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

    The same sum as the exact ``(2a+1) (2b+1) _fiber_square_sum(spec, (a, b), q)``
    over ``a, b <= q``: the inner pair series is
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


def bar_coeff(spec: KernelSpec, j: tuple[int, ...]) -> Fraction:
    r"""Exact rational coefficient :math:`\bar C` for one multi-index.

    Args:
        spec: kernel multiplicity and weights (innermost first).
        j: basis multi-index :math:`(j_1, \ldots, j_k)`, innermost first.

    Returns:
        The exact nested integral over the simplex in ``[-1, 1]``.
    """
    j = tuple(j)
    if len(j) != spec.k:
        raise ValueError("multi-index length must equal multiplicity")
    if any(x < 0 for x in j):
        raise ValueError("basis indices must be nonnegative")
    return _outer_coeff(_outer_series(spec, j[:-1]), j[-1])


def _float_bar(value: Fraction) -> float:
    return value.numerator / value.denominator


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
        expected = (self.q + 1,) * self.spec.k
        if self.values.shape != expected:
            raise ValueError(f"tensor shape {self.values.shape} != {expected}")

    def bar(self, j: tuple[int, ...]) -> Fraction:
        return self.values[tuple(j)]

    def float_values(self) -> np.ndarray:
        out = np.empty(self.values.shape, dtype=np.float64)
        flat_in = self.values.reshape(-1)
        flat_out = out.reshape(-1)
        for i, v in enumerate(flat_in):
            flat_out[i] = _float_bar(v)
        return out


def _scale(bar, spec: KernelSpec, norm, dt: float):
    """The scaling law on a float ``bar`` and ``norm``, or on arrays of them."""
    _check_interval(dt)
    return bar * dt ** spec.scale_exponent / 2 ** (spec.total_weight + spec.k) * norm


def scale_coeff(bar: Fraction, spec: KernelSpec, j: tuple[int, ...], dt: float) -> float:
    r"""Interval scaling :math:`\bar C \mapsto C` for interval length ``dt``.

    Returns ``bar * dt**(L + k/2) / 2**(L + k) * prod(sqrt(2 j_r + 1))``,
    left to right, with ``bar`` rounded once and the product in index order.
    The weight signs are already inside ``bar``.  This is the only place
    rationals become floats; :func:`scaled_tensor` is its vectorisation.
    """
    return _scale(_float_bar(bar), spec, math.prod(math.sqrt(2 * idx + 1) for idx in j), dt)


@dataclass(frozen=True, eq=False)
class ScaledTensor:
    """Float tensor of interval-scaled coefficients ``C`` on ``{0..q}^k``."""

    spec: KernelSpec
    q: int
    dt: float
    values: np.ndarray = field(repr=False)

    def truncated(self, q: int) -> np.ndarray:
        if q > self.q:
            raise ValueError(f"requested truncation {q} exceeds tensor order {self.q}")
        return self.values[(slice(0, q + 1),) * self.spec.k]


def scaled_tensor(tensor: CoeffTensor, dt: float) -> ScaledTensor:
    """:func:`scale_coeff` on every entry, bit for bit (norms multiply in index order)."""
    roots = np.sqrt(2.0 * np.arange(tensor.q + 1) + 1.0)
    norm = reduce(np.multiply.outer, [roots] * tensor.spec.k)
    values = _scale(tensor.float_values(), tensor.spec, norm, dt)
    return ScaledTensor(spec=tensor.spec, q=tensor.q, dt=dt, values=values)


def coeff_tensor(spec: KernelSpec, q: int, threads: int = 1) -> CoeffTensor:
    r"""All exact coefficients :math:`\bar C` for ``j in {0..q}^k``.

    A depth-first walk over the inner indices builds each prefix series
    once and fills the whole :math:`j_k` fiber from it by orthogonality.

    Args:
        spec: kernel description.
        q: truncation order (inclusive).
        threads: accepted for compatibility and ignored; the exact
            arithmetic holds the interpreter lock, so threads gave no
            speed-up.

    Raises:
        TensorBudgetError: if ``(q+1)**k`` exceeds the dense entry budget.
    """
    if q < 0:
        raise ValueError("truncation order must be nonnegative")
    n = q + 1
    entries = n ** spec.k
    if entries > TENSOR_ENTRY_BUDGET:
        raise TensorBudgetError(
            f"dense tensor with {entries} entries exceeds budget {TENSOR_ENTRY_BUDGET}"
        )
    values = np.empty((n,) * spec.k, dtype=object)

    def fill(prefix: tuple[int, ...], series: list) -> None:
        weighted = _times_weight(series, spec.weights[len(prefix)])
        if len(prefix) == spec.k - 1:
            values[prefix] = [_outer_coeff(weighted, j) for j in range(n)]
            return
        for j in range(n):
            fill(prefix + (j,), _integral(_times_legendre(weighted, j)))

    fill((), [Fraction(1)])
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


@lru_cache(maxsize=128)
def _pair_bands(weights: tuple[int, int], q: int) -> tuple[tuple[_Band, ...], Fraction, int]:
    r"""Band table of the truncated pair series with ``weights`` at order ``q``.

    With :math:`L = l_1 + l_2` the series keeps the nonzero cells
    :math:`\bar C[a, b]` with :math:`\min(a, b) \le q`; all of them lie in
    :math:`|a - b| \le L + 1`.  The corner cells ``(q, q+1)`` and
    ``(q+1, q)`` hold :math:`\bar C - (-1)^L \bar C_{(0,0)}` instead, which
    vanishes for :math:`L \le 1` except at ``q = 0``; this keeps the
    equal-component product identities exact at every ``q``.  For the same
    reason the ``(1, 1)`` series also keeps its ``(1, 1)`` cell at ``q = 0``.
    Each inner index ``a`` has one Legendre series, read by orthogonality.

    Returns the bands by offset, the exact sum of the kept diagonal cells
    at ``dt = 1``, ``sum((2a+1) * bar_aa) / 2**(L+2)`` (the mean of the
    Stratonovich series at equal components), and the number of Gaussians
    per component that the series reads.
    """
    spec = KernelSpec(2, weights)
    total = spec.total_weight
    series = [_outer_series(spec, (a,)) for a in range(q + total + 2)]

    def cell(a: int, b: int) -> Fraction:
        value = _outer_coeff(series[a], b)
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
    diagonal = bands[0]
    trace = sum(
        ((2 * a + 1) * c for a, c in enumerate(diagonal.exact[0], diagonal.start)), Fraction(0)
    )
    needed = max(b.start + b.unit.shape[1] + b.offset for b in bands)
    return tuple(bands), trace / 2 ** (total + 2), needed


# ---------------------------------------------------------------------------
# Trigonometric coefficients by nested Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_NODES = 24


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


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


def trig_coeff(
    spec: KernelSpec,
    j: tuple[int, ...],
    dt: float,
    tol: float = 1e-12,
) -> float:
    r"""Scaled coefficient ``C`` for the trigonometric basis.

    The basis on an interval of length ``dt`` is
    :math:`\{1, \sqrt2 \sin(2\pi r u), \sqrt2 \cos(2\pi r u)\}/\sqrt{dt}`
    with ``u`` the normalized coordinate; index ``2r-1`` is the sine and
    ``2r`` the cosine of frequency ``r``.  Computed by nested panelwise
    Gauss-Legendre quadrature, doubling the panel count until two
    successive refinements agree.

    Args:
        spec: kernel description (weights innermost first).
        j: basis multi-index, innermost first.
        dt: interval length.
        tol: absolute tolerance in units of ``dt**(L + k/2)``.

    Raises:
        QuadratureError: if refinement stalls before reaching ``tol``;
            the achieved difference is attached to the exception.
    """
    j = tuple(j)
    if len(j) != spec.k:
        raise ValueError("multi-index length must equal multiplicity")
    if any(x < 0 for x in j):
        raise ValueError("basis indices must be nonnegative")
    _check_interval(dt)

    max_freq = max(((idx + 1) // 2 for idx in j), default=0)
    panels = max(4, 2 * max_freq)
    prev = _nested_trig_integral(spec, j, panels)
    achieved = math.inf
    for _ in range(8):
        panels *= 2
        cur = _nested_trig_integral(spec, j, panels)
        achieved = abs(cur - prev)
        if achieved <= tol / 4.0:
            sign = (-1) ** spec.total_weight
            return sign * cur * dt ** spec.scale_exponent
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge below {tol} (achieved {achieved:.3e})",
        achieved,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def tensor_to_json(tensor: CoeffTensor) -> str:
    """Serialize a tensor to JSON with exact and float fields.

    Schema: top-level object with ``k``, ``weights`` (innermost first),
    ``q``, ``index_order`` and ``entries``; each entry has the multi-index
    ``j`` (innermost first), exact ``num``/``den`` and a ``float`` field.
    """
    entries = []
    for idx in np.ndindex(*tensor.values.shape):
        v: Fraction = tensor.values[idx]
        entries.append(
            {
                "j": list(idx),
                "num": v.numerator,
                "den": v.denominator,
                "float": _float_bar(v),
            }
        )
    doc = {
        "k": tensor.spec.k,
        "weights": list(tensor.spec.weights),
        "q": tensor.q,
        "index_order": "innermost_first",
        "entries": entries,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tensor_to_csv(tensor: CoeffTensor) -> str:
    """Serialize a tensor to CSV with fractions as ``p/q`` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"j{i + 1}" for i in range(tensor.spec.k)] + ["bar"])
    for idx in np.ndindex(*tensor.values.shape):
        v: Fraction = tensor.values[idx]
        writer.writerow(list(idx) + [f"{v.numerator}/{v.denominator}"])
    return buf.getvalue()
