r"""Realized values of truncated expansions of iterated stochastic integrals.

An iterated Stratonovich integral of multiplicity :math:`k` expands into a
multiple series :math:`\sum_j C_j \prod_r \zeta_{j_r}^{(i_r)}` over products
of independent standard Gaussians :math:`\zeta_j^{(i)}` (one family per
Wiener component :math:`i`).  The matching Ito integral replaces each
product by its Wick form: every way of pairing positions that carry the
same component and the same basis index contributes a correction with sign
:math:`(-1)^{\#\text{pairs}}`.

This module assembles those truncated sums from coefficient tensors and
seeded Gaussian draws, together with the special closed forms that need no
general tensor: exact single integrals, the banded double series for
time-weighted pairs, Hermite-polynomial diagonal forms, trigonometric
Milstein-style forms, and the Ito/Stratonovich conversion by one exact rule.

All banded pair series come from the one exact band table of
:mod:`stochint.coeffs`.  One evaluator sums it by band, and
:func:`pair_series_tensor` lays it out as a dense tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .basis import _checked_float, _checked_int, _checked_name
from .coeffs import (
    DOUBLE_SERIES_WEIGHTS, KernelSpec, ScaledTensor, _band_table, _dt_power, bar_coeff, scale_coeff,
)
from .errors import IndexPattern, _tail_sum_fourths, _tail_sum_squares

__all__ = [
    "IndexPattern",  # defined in stochint.errors, which reads it too
    "NoiseDraws",
    "DOUBLE_SERIES_WEIGHTS",
    "draw_noise",
    "ito_expansion",
    "strat_expansion",
    "legendre_closed_single",
    "legendre_double_series",
    "diagonal_trace",
    "pair_series_tensor",
    "hermite_diagonal",
    "ito_strat_convert",
    "trig_milstein",
]

_CALCULI = ("ito", "strat")  # the calculi an expansion is read in


@dataclass(frozen=True)
class NoiseDraws:
    """Seeded table of independent standard Gaussians.

    ``zeta[i - 1, j]`` realizes :math:`\\zeta_j^{(i)}`; ``xi`` and ``mu``
    hold one extra tail variable per component for the tail-augmented
    trigonometric forms.
    """

    zeta: np.ndarray
    xi: np.ndarray | None
    mu: np.ndarray | None
    seed: int

    @property
    def m(self) -> int:
        return self.zeta.shape[0]

    @property
    def q_max(self) -> int:
        return self.zeta.shape[-1] - 1

    def row(self, component: int, needed: int) -> np.ndarray:
        """Gaussian row of one component, checked to hold ``needed`` entries.

        The returned row indexes Gaussians along its last axis; extra
        leading axes (for example a batch of realizations) pass through.
        """
        component = _checked_int(component, "component", 1, self.m)
        if needed > self.zeta.shape[-1]:
            raise ValueError(
                f"draws hold {self.zeta.shape[-1]} Gaussians per component, need {needed}"
            )
        return self.zeta[component - 1]


def draw_noise(q_max: int, m: int, seed: int) -> NoiseDraws:
    """Reproducible i.i.d. standard normals from a counter-based stream.

    The ``zeta`` table is drawn first, then the tail variables ``xi`` and
    ``mu``, so ``zeta`` depends on ``(q_max, m, seed)`` only.
    """
    m = _checked_int(m, "component count", 1)
    q_max = _checked_int(q_max, "q_max")
    seed = _checked_int(seed, "seed", 0, 2**128 - 1)  # the Philox key range
    gen = np.random.Generator(np.random.Philox(key=seed))
    zeta = gen.standard_normal((m, q_max + 1))
    xi = gen.standard_normal(m)
    mu = gen.standard_normal(m)
    return NoiseDraws(zeta=zeta, xi=xi, mu=mu, seed=seed)


# ---------------------------------------------------------------------------
# Generic product sums with Wick pairing corrections
# ---------------------------------------------------------------------------

_AXIS_LETTERS = "abcde"


@lru_cache(maxsize=None)
def _matchings(positions: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All sets of disjoint position pairs (partial matchings), including ()."""
    if not positions:
        return ((),)
    first, rest = positions[0], positions[1:]
    out: list[tuple[tuple[int, int], ...]] = list(_matchings(rest))
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _matchings(remaining):
            out.append(((first, other),) + sub)
    return tuple(out)


def _matching_term(
    values: np.ndarray,
    rows: list[np.ndarray],
    components: tuple[int, ...],
    matching: tuple[tuple[int, int], ...],
):
    """One Wick term: paired axes share a diagonal, the rest contract."""
    k = len(components)
    for a, b in matching:
        if components[a - 1] != components[b - 1]:
            return None
    letter = {}
    for idx, (a, b) in enumerate(matching):
        letter[a] = letter[b] = _AXIS_LETTERS[idx]
    unpaired = [p for p in range(1, k + 1) if p not in letter]
    for idx, p in enumerate(unpaired):
        letter[p] = _AXIS_LETTERS[len(matching) + idx]
    batched = rows[0].ndim == 2
    tensor_sub = "".join(letter[p] for p in range(1, k + 1))
    vec_subs = [("z" if batched else "") + letter[p] for p in unpaired]
    out = "z" if batched and unpaired else ""
    expr = ",".join([tensor_sub] + vec_subs) + "->" + out
    operands = [values] + [rows[p - 1] for p in unpaired]
    return np.einsum(expr, *operands)


def _tensor_expansion(
    tensor: ScaledTensor, pattern: IndexPattern, draws: NoiseDraws, q: int, corrections: bool
):
    """A float for one draw, an array over the batch axis of batched draws."""
    if tensor.spec.k != pattern.k:
        raise ValueError("tensor multiplicity does not match index pattern")
    values = tensor.truncated(q)  # checks q before any draw is read
    rows = [draws.row(c, q + 1)[..., : q + 1] for c in pattern.components]
    matchings = _matchings(tuple(range(1, pattern.k + 1))) if corrections else ((),)
    total = None
    for matching in matchings:
        term = _matching_term(values, rows, pattern.components, matching)
        if term is None:
            continue
        signed = term if len(matching) % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total if np.ndim(total) else float(total)


def ito_expansion(tensor: ScaledTensor, pattern: IndexPattern, draws: NoiseDraws, q: int):
    """Truncated Ito expansion: product sum with all pairing corrections."""
    return _tensor_expansion(tensor, pattern, draws, q, corrections=True)


def strat_expansion(tensor: ScaledTensor, pattern: IndexPattern, draws: NoiseDraws, q: int):
    """Truncated Stratonovich expansion: the plain product sum."""
    return _tensor_expansion(tensor, pattern, draws, q, corrections=False)


# ---------------------------------------------------------------------------
# Exact single integrals (Legendre basis)
# ---------------------------------------------------------------------------


def legendre_closed_single(l: int, i1: int, draws: NoiseDraws, dt: float):
    r"""Exact single integral with weight :math:`(t-s)^l`, ``l`` up to 3.

    A weight of degree ``l`` lies in the span of the first ``l + 1``
    Legendre polynomials, so the expansion terminates:
    e.g. ``l=1`` gives :math:`-dt^{3/2}(\zeta_0 + \zeta_1/\sqrt3)/2`.
    The coefficients are :func:`~stochint.coeffs.scale_coeff` of the exact
    ones.
    """
    l = _checked_int(l, "closed single form weight", 0, 3)
    return _exact_single(l, draws.row(i1, l + 1), dt)


@lru_cache(maxsize=16)
def _single_bars(l: int) -> tuple[Fraction, ...]:
    """Exact coefficients ``C̄_0..C̄_l`` of the single integral with weight ``(t-s)**l``."""
    spec = KernelSpec(1, (l,))
    return tuple(bar_coeff(spec, (j,)) for j in range(l + 1))


def _exact_single(l: int, row: np.ndarray, dt: float):
    """Terminating expansion of the weighted single integral for any ``l``."""
    spec = KernelSpec(1, (l,))
    acc = 0.0
    for j, bar in enumerate(_single_bars(l)):
        acc = acc + scale_coeff(bar, spec, (j,), dt) * row[..., j]
    return acc


# ---------------------------------------------------------------------------
# Banded double series for time-weighted pairs (Legendre basis)
# ---------------------------------------------------------------------------


def diagonal_trace(weights: tuple[int, int], q: int, dt: float) -> float:
    r"""Sum :math:`\sum_i C_{ii}(dt)` of the diagonal cells the pair series keeps.

    This is the deterministic term the Ito expansion subtracts at equal
    components (the mean of the truncated Gaussian product sum).  As ``q``
    grows it converges to the exact Ito-Stratonovich conversion constant:
    ``dt/2`` for ``(0,0)`` (already exact at ``q=0``), ``-dt^2/4`` for
    ``(1,0)``/``(0,1)``, and ``dt^3/6`` for each of ``(1,1)``, ``(2,0)``,
    ``(0,2)``.
    """
    trace = _band_table(weights, q).trace
    return float(trace) * _dt_power(dt, KernelSpec(2, tuple(weights)).scale_exponent)


def legendre_double_series(
    weights: tuple[int, int],
    pattern: IndexPattern,
    draws: NoiseDraws,
    q: int,
    dt: float,
    calculus: str = "strat",
):
    r"""Banded double series for the pair kernel with weights ``(l_1, l_2)``.

    Computes the Stratonovich value
    :math:`\sum_d \sum_a C[a, a+d]\, \zeta^{(i_1)}_a \zeta^{(i_2)}_{a+d}`
    over the cells that :func:`~stochint.coeffs._pair_bands` keeps at order
    ``q``, one vectorised sum per offset :math:`|d|`.  At equal components
    it reads the exact folded cells :math:`C[a, b] + C[b, a]`, so cells that
    cancel there cancel before any rounding.  The table holds the cells at
    ``dt = 1``, and :math:`C(dt) = dt^{L+1} C(1)`.  The Ito value subtracts
    the mean of the retained diagonal, :func:`diagonal_trace`, so the
    truncated Ito expansion has mean zero and its mean-square error
    matches the closed error series at every ``q``.
    """
    if pattern.k != 2:
        raise ValueError("double series requires a pair pattern")
    _checked_name(calculus, _CALCULI, "calculus")
    bands, _, needed = _band_table(weights, q)
    z1 = draws.row(pattern.components[0], needed)
    z2 = draws.row(pattern.components[1], needed)
    same = pattern.components[0] == pattern.components[1]
    total = 0.0
    for band in bands:
        a, d, n = band.start, band.offset, band.unit.shape[1]
        upper, lower, folded = band.unit
        if same:
            terms = z1[..., a : a + n] * z1[..., a + d : a + d + n] * folded
        else:
            terms = z1[..., a : a + n] * z2[..., a + d : a + d + n] * upper
            if d:
                terms = terms + z1[..., a + d : a + d + n] * z2[..., a : a + n] * lower
        total = total + np.sum(terms, axis=-1)
    value = _dt_power(dt, KernelSpec(2, tuple(weights)).scale_exponent) * total
    if calculus == "ito" and same:
        value = value - diagonal_trace(weights, q, dt)
    return value


def pair_series_tensor(weights: tuple[int, int], q: int, dt: float) -> ScaledTensor:
    r"""The truncated pair series as a dense tensor: its kept cells, zero elsewhere.

    It is on ``{0..n-1}^2``, ``n`` the Gaussians per component that
    :func:`legendre_double_series` reads, and its expansions at order
    ``n - 1`` are that series.  Its :func:`~stochint.errors.exact_error` is
    the series' mean-square error only where every kept cell is a kernel
    coefficient: weights ``(0, 0)`` at any ``q``, ``(1, 0)`` and ``(0, 1)``
    at ``q >= 1``.  The adjusted corner cells of the other cases are not.
    """
    bands, _, n = _band_table(weights, q)
    values = np.zeros((n, n))
    for band in bands:
        a = np.arange(band.start, band.start + band.unit.shape[1])
        values[a + band.offset, a] = band.unit[1]  # zero at offset 0, where the next line wins
        values[a, a + band.offset] = band.unit[0]
    spec = KernelSpec(2, tuple(weights))
    return ScaledTensor(spec, n - 1, dt, values * _dt_power(dt, spec.scale_exponent))


# ---------------------------------------------------------------------------
# Ito <-> Stratonovich conversion and Hermite diagonal forms
# ---------------------------------------------------------------------------


def _conversion_terms(components: tuple[int, ...], weights: tuple[int, ...]):
    r"""Ito minus Stratonovich as exact terms ``((levels, p), factor)``.

    Each nonempty set of disjoint adjacent pairs of equal components adds
    :math:`(-1/2)^{\#\text{pairs}}` times the Stratonovich integral with each
    pair contracted into one ``ds`` level (component 0) of weight
    :math:`l_r + l_{r+1}`.  Between the times ``a < b`` of its neighbours, a
    ``ds`` level of weight ``L`` integrates out to
    :math:`((t-a)^{L+1} - (t-b)^{L+1})/(L+1)`: a weight on each neighbour,
    except that the first part vanishes at the inner end (``a = t``) and the
    second is the constant :math:`(-dt)^{L+1}` at the outer end.  A term is
    ``factor * dt**p`` times the Stratonovich integral of ``levels``,
    ``(component, weight)`` innermost first; equal terms are merged.
    """
    k, merged = len(components), {}
    for matching in _matchings(tuple(range(1, k + 1))):
        starts = {a - 1 for a, b in matching if b == a + 1 and components[a - 1] == components[a]}
        if not matching or len(starts) < len(matching):
            continue
        levels = tuple(
            (0, weights[r] + weights[r + 1]) if r in starts else (components[r], weights[r])
            for r in range(k)
            if r - 1 not in starts
        )
        stack = [(levels, 0, Fraction(-1, 2) ** len(matching))]
        while stack:
            levels, p, factor = stack.pop()
            r = next((r for r, (c, _) in enumerate(levels) if c == 0), None)
            if r is None:
                merged[levels, p] = merged.get((levels, p), 0) + factor
                continue
            n = levels[r][1] + 1
            for s, part in ((r - 1, factor / n), (r + 1, -factor / n)):
                if 0 <= s < len(levels):  # neighbour s takes the weight (t - a)**n or (t - b)**n
                    c, l = levels[s]
                    rest = levels[:s] + ((c, l + n),) + levels[s + 1 :]
                    stack.append((rest[:r] + rest[r + 1 :], p, part))
                elif s > r:  # the outer end: (t - T)**n = (-dt)**n; the inner end adds 0
                    stack.append((levels[:r], p + n, part * (-1) ** n))
    return [(key, factor) for key, factor in merged.items() if factor]


def ito_strat_convert(
    value,
    pattern: IndexPattern,
    weights: tuple[int, ...],
    dt: float,
    direction: str,
    draws: NoiseDraws | None = None,
    q: int | None = None,
):
    """Convert between Ito and Stratonovich values of one integral.

    ``direction`` is ``"ito_to_strat"`` or ``"strat_to_ito"``.  The shift
    ``Ito - Stratonovich`` sums the exact terms of :func:`_conversion_terms`.
    A term with no level is a constant; one whose levels share a component
    and a weight is :math:`I^m/m!` of the exact single integral; a pair is
    :func:`legendre_double_series` at order ``q``.  Both read ``draws``; any
    other term raises ``ValueError``.
    """
    _checked_name(direction, ("ito_to_strat", "strat_to_ito"), "direction")
    dt = _checked_float(dt, "interval length")
    weights = KernelSpec(pattern.k, tuple(weights)).weights  # checks k, length and signs
    shift = 0.0
    for (levels, p), factor in _conversion_terms(pattern.components, weights):
        if not levels:
            term = 1.0
        elif draws is None:
            raise ValueError(f"the conversion term {levels} needs Gaussian draws")
        elif len(set(levels)) == 1:
            (c, l), m = levels[0], len(levels)
            term = _exact_single(l, draws.row(c, l + 1), dt) ** m / math.factorial(m)
        elif len(levels) == 2 and q is not None:
            (c1, l1), (c2, l2) = levels
            term = legendre_double_series((l1, l2), IndexPattern((c1, c2)), draws, q, dt)
        else:
            raise ValueError(f"no conversion formula for the term {levels} at q={q}")
        shift = shift + factor.numerator * _dt_power(dt, p) / factor.denominator * term
    return value + shift if direction == "strat_to_ito" else value - shift


def hermite_diagonal(
    k: int, l: int, i1: int, draws: NoiseDraws, dt: float, calculus: str = "strat"
):
    r"""Closed form for the all-equal-component integral with weight ``l >= 0``.

    Stratonovich is :math:`I^k/k!` of the exact single integral
    :math:`I = \sum_{j \le l} C_j \zeta_j`, and Ito adds the exact
    :func:`ito_strat_convert` shift, in which the weighted pair terms cancel.
    """
    k = _checked_int(k, "Hermite diagonal multiplicity", 3, 4)
    _checked_name(calculus, _CALCULI, "calculus")
    strat = _exact_single(l, draws.row(i1, l + 1), dt) ** k / math.factorial(k)  # KernelSpec checks l
    if calculus == "strat":
        return strat
    return ito_strat_convert(strat, IndexPattern((i1,) * k), (l,) * k, dt, "strat_to_ito", draws)


# ---------------------------------------------------------------------------
# Trigonometric Milstein-style forms
# ---------------------------------------------------------------------------


#: Kernel weights of each form, innermost first; their count is the pattern's.
_TRIG_KINDS = {"I1": (1,), "I2": (2,), "I00": (0, 0), "I00_tail": (0, 0)}


def _sine_sum(z: np.ndarray, q: int, xi=None):
    r""":math:`\sum_{r \le q} \zeta_{2r-1}/r`, plus the tail
    :math:`\sqrt{\sum_{n>q} n^{-2}}\,\xi` if ``xi`` is given."""
    r = np.arange(1, q + 1)
    total = np.sum(z[..., 2 * r - 1] / r, axis=-1)
    return total if xi is None else total + math.sqrt(_tail_sum_squares(q)) * xi


def trig_milstein(kind: str, pattern: IndexPattern, draws: NoiseDraws, q: int, dt: float):
    r"""Trigonometric-basis forms for single and pair integrals.

    Kinds:

    * ``"I1"`` — weighted single :math:`\int (t-s)\,dW`; tail-augmented,
      mean-square exact at every ``q``.
    * ``"I2"`` — weighted single with :math:`(t-s)^2`; tail-augmented,
      mean-square exact.
    * ``"I00"`` — plain truncated pair series.
    * ``"I00_tail"`` — pair series plus the Gaussian tail term.

    Basis index ``2r-1`` is the sine and ``2r`` the cosine of frequency
    ``r``; tail variables come from :attr:`NoiseDraws.xi` / ``mu``.  Each
    form is its value on the unit interval times ``dt`` to the
    ``scale_exponent`` of its kernel, the scaling law of the exact
    coefficients in ``tests/trig_coeff_reference.py``.
    """
    q = _checked_int(q, "truncation order")
    dt = _checked_float(dt, "interval length")
    weights = _TRIG_KINDS[_checked_name(kind, _TRIG_KINDS, "kind")]
    if pattern.k != len(weights):
        raise ValueError(f"the {kind} form takes {len(weights)} component(s), not {pattern.k}")
    if kind != "I00" and (draws.xi is None or (kind == "I2" and draws.mu is None)):
        raise ValueError("tail-augmented form requested but draws carry no tail variables")
    # Checked before any length-q array: I1 reads sines to index 2q - 1, the rest cosines to 2q.
    rows = [draws.row(c, max(1, 2 * q) if kind == "I1" else 2 * q + 1) for c in pattern.components]
    sqrt2 = math.sqrt(2.0)
    r = np.arange(1, q + 1)

    if kind == "I1":
        (c,), (z,) = pattern.components, rows
        unit = -(z[..., 0] - sqrt2 / math.pi * _sine_sum(z, q, draws.xi[c - 1])) / 2.0
    elif kind == "I2":
        (c,), (z,) = pattern.components, rows
        cos_sum = np.sum(z[..., 2 * r] / r**2, axis=-1)
        unit = (
            z[..., 0] / 3.0
            + (cos_sum + math.sqrt(_tail_sum_fourths(q)) * draws.mu[c - 1]) / (sqrt2 * math.pi**2)
            - _sine_sum(z, q, draws.xi[c - 1]) / (sqrt2 * math.pi)
        )
    else:
        (c1, c2), (z1, z2) = pattern.components, rows
        xi1, xi2 = (draws.xi[c1 - 1], draws.xi[c2 - 1]) if kind == "I00_tail" else (None, None)
        sine, cosine = 2 * r - 1, 2 * r
        cross = np.sum((z1[..., cosine] * z2[..., sine] - z1[..., sine] * z2[..., cosine]) / r, -1)
        sines = _sine_sum(z1, q, xi1) * z2[..., 0] - z1[..., 0] * _sine_sum(z2, q, xi2)
        unit = (z1[..., 0] * z2[..., 0] + (cross + sqrt2 * sines) / math.pi) / 2.0
    return _dt_power(dt, KernelSpec(len(weights), weights).scale_exponent) * unit
