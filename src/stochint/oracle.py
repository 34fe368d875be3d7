r"""Monte Carlo ground truth for iterated stochastic integrals.

Simulates iterated Ito/Stratonovich integrals with weights
:math:`(t-s)^{l_r}` by fine discretization of the Wiener paths (left-point
rule for Ito, trapezoidal rule for Stratonovich) and statistically
validates the spectral expansions: each path's Wiener increments are
re-projected onto the Legendre basis, :math:`\zeta_j = \sum_l
\varphi_j(\tau_l)\,\Delta W_l`, so the oracle integral and the expansion
built from those :math:`\zeta_j` share one realization and their
mean-square difference estimates the truncation error directly.

Discretization bias is bounded by a coupled half-grid comparison: the same
increments, pairwise-summed, drive a second evaluation at ``N/2`` steps;
the grid is doubled until the observed bias is below a third of the
statistical error.

Path generation is chunked with one counter-based stream per
``(seed, chunk)``, and chunks are always drawn in full, so path ``i`` is
identical no matter how many paths are requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .basis import legendre_poly
from .coeffs import KernelSpec, _check_interval, coeff_tensor, scaled_tensor
from .errors import series_error
from .expansion import IndexPattern, NoiseDraws, _expansion_core, legendre_double_series
from .qselect import triple_legendre_error_constant

__all__ = [
    "SimConfig",
    "MomentEstimate",
    "ValidationReport",
    "GridTooCoarseError",
    "VALIDATION_CASES",
    "simulate_iterated",
    "coupled_zeta",
    "moment_estimate",
    "validate_expansion",
]

#: Paths generated per random-stream chunk (always drawn in full).
PATH_CHUNK = 512


class GridTooCoarseError(Exception):
    """Discretization bias still dominates after the allowed grid doublings."""

    def __init__(self, message: str, bias: float, stat_err: float, steps: int) -> None:
        super().__init__(message)
        self.bias = bias
        self.stat_err = stat_err
        self.steps = steps


@dataclass(frozen=True)
class SimConfig:
    """Fine-grid simulation parameters."""

    steps: int
    paths: int
    seed: int
    dt: float
    calculus: str = "ito"

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError("need at least 2 grid steps")
        if self.paths < 1:
            raise ValueError("need at least 1 path")
        _check_interval(self.dt)
        if self.calculus not in ("ito", "strat"):
            raise ValueError("calculus must be 'ito' or 'strat'")


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean / second moment with their standard errors."""

    mean: float
    second_moment: float
    stderr_mean: float
    stderr_second: float


def moment_estimate(values: np.ndarray) -> MomentEstimate:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    sq = values * values
    return MomentEstimate(
        mean=float(np.mean(values)),
        second_moment=float(np.mean(sq)),
        stderr_mean=float(np.std(values) / math.sqrt(n)),
        stderr_second=float(np.std(sq) / math.sqrt(n)),
    )


def _wiener_chunks(cfg: SimConfig, m: int) -> Iterator[np.ndarray]:
    """Wiener increments in chunks of shape ``(chunk, m, steps)``.

    Each chunk has its own counter-based stream keyed by
    ``(seed, chunk index)`` and is drawn in full even when only part of it
    is consumed, so earlier paths never depend on the total path count.
    """
    h = cfg.dt / cfg.steps
    scale = math.sqrt(h)
    produced = 0
    chunk_idx = 0
    while produced < cfg.paths:
        seq = np.random.SeedSequence(entropy=(cfg.seed, chunk_idx))
        gen = np.random.Generator(np.random.Philox(seq))
        block = gen.standard_normal((PATH_CHUNK, m, cfg.steps)) * scale
        take = min(PATH_CHUNK, cfg.paths - produced)
        yield block[:take]
        produced += take
        chunk_idx += 1


def _weight_values(exponent: int, grid: np.ndarray) -> np.ndarray:
    """Values of ``(t - s)**exponent`` at grid times (``t = 0``)."""
    if exponent == 0:
        return np.ones_like(grid)
    return (-grid) ** exponent


def _nested_values(
    spec: KernelSpec,
    dW: np.ndarray,
    dt: float,
    calculus: str,
    equal_pair: bool = False,
) -> np.ndarray:
    """Iterated integral of one chunk; ``dW`` is ``(paths, k, steps)``.

    For a pair with equal components the Ito rule adds the exact
    within-cell diagonal term :math:`\\sum_u w_1 w_2 (\\Delta W_u^2 - h)/2`
    (the cell-level analogue of the trapezoid rule's diagonal); the plain
    left-point rule drops the diagonal cells entirely, and that omission
    would dominate the smallest truncation errors being validated.
    """
    n = dW.shape[-1]
    grid = np.linspace(0.0, dt, n + 1)
    running = 1.0
    for level, exponent in enumerate(spec.weights):
        w = _weight_values(exponent, grid)
        integrand = w[None, :] * running
        if calculus == "ito":
            step_terms = integrand[:, :n] * dW[:, level, :]
        else:
            step_terms = 0.5 * (integrand[:, :n] + integrand[:, 1:]) * dW[:, level, :]
        running = np.concatenate(
            [np.zeros((dW.shape[0], 1)), np.cumsum(step_terms, axis=1)], axis=1
        )
    values = running[:, -1]
    if equal_pair and spec.k == 2 and calculus == "ito":
        h = dt / n
        w_cell = _weight_values(spec.weights[0], grid[:n]) * _weight_values(
            spec.weights[1], grid[:n]
        )
        values = values + 0.5 * np.sum(
            w_cell[None, :] * (dW[:, 0, :] ** 2 - h), axis=1
        )
    return values


def simulate_iterated(spec: KernelSpec, pattern: IndexPattern, cfg: SimConfig) -> np.ndarray:
    """Per-path discretized values of one iterated integral."""
    if spec.k != pattern.k:
        raise ValueError("kernel multiplicity does not match index pattern")
    m = max(pattern.components)
    out = np.empty(cfg.paths)
    pos = 0
    comp_axes = [c - 1 for c in pattern.components]
    equal_pair = pattern.k == 2 and pattern.components[0] == pattern.components[1]
    for block in _wiener_chunks(cfg, m):
        vals = _nested_values(
            spec, block[:, comp_axes, :], cfg.dt, cfg.calculus, equal_pair
        )
        out[pos : pos + vals.size] = vals
        pos += vals.size
    return out


def _basis_matrix(jmax: int, dt: float, n: int) -> np.ndarray:
    r"""Left-point values :math:`\varphi_j(\tau_l)`, shape ``(jmax+1, n)``.

    :math:`\varphi_j(s) = \sqrt{(2j+1)/dt}\; P_j(2 s/dt - 1)` on a uniform
    ``n``-step grid over ``[0, dt]``.
    """
    tau = np.linspace(0.0, dt, n + 1)[:n]
    x = 2.0 * tau / dt - 1.0
    rows = []
    for j in range(jmax + 1):
        p = legendre_poly(j)
        coeffs = [c.numerator / c.denominator for c in p.coeffs] or [0.0]
        vals = np.polynomial.polynomial.polyval(x, coeffs)
        rows.append(math.sqrt((2 * j + 1) / dt) * vals)
    return np.stack(rows)


def coupled_zeta(cfg: SimConfig, m: int, jmax: int) -> np.ndarray:
    r"""Basis projections :math:`\zeta_j^{(i)}` of the simulated paths.

    Returns shape ``(m, paths, jmax + 1)``; entry ``[i-1, p, j]`` is the
    discretized :math:`\int \varphi_j\, dW^{(i)}` of path ``p``.
    """
    phi = _basis_matrix(jmax, cfg.dt, cfg.steps)
    out = np.empty((m, cfg.paths, jmax + 1))
    pos = 0
    for block in _wiener_chunks(cfg, m):
        out[:, pos : pos + block.shape[0], :] = np.einsum("pms,js->mpj", block, phi)
        pos += block.shape[0]
    return out


# ---------------------------------------------------------------------------
# Named validation cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    spec: KernelSpec
    components: tuple[int, ...]
    q: int
    jmax: int
    calculus: str
    theory: Callable[[int, float], float]
    #: Evaluate with the banded pair series instead of the general tensor expansion.
    banded: bool = False


def _evaluator(case: _Case, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """Build the case's coefficients once; return its expansion of one chunk's ``zeta``."""
    if case.banded:
        pattern = IndexPattern(case.components)
        return lambda zeta: legendre_double_series(
            case.spec.weights, pattern, NoiseDraws(zeta, None, None, 0), case.q, dt, case.calculus
        )
    values = scaled_tensor(coeff_tensor(case.spec, case.q), dt).values
    return lambda zeta: _expansion_core(
        values, case.components, [zeta[c - 1][:, : case.q + 1] for c in case.components],
        corrections=True,
    )


VALIDATION_CASES: dict[str, _Case] = {
    "pair_distinct": _Case(
        spec=KernelSpec.unweighted(2),
        components=(1, 2),
        q=2,
        jmax=2,
        calculus="ito",
        theory=lambda q, dt: series_error("pair_legendre", q, dt),
    ),
    "pair_equal_weighted": _Case(
        spec=KernelSpec(2, (1, 0)),
        components=(1, 1),
        q=2,
        jmax=4,
        calculus="ito",
        theory=lambda q, dt: series_error("pair_legendre_weighted_equal", q, dt),
        banded=True,
    ),
    "pair_weighted_distinct": _Case(
        spec=KernelSpec(2, (1, 0)),
        components=(1, 2),
        q=3,
        jmax=5,
        calculus="ito",
        theory=lambda q, dt: series_error("pair_legendre_weighted", q, dt),
        banded=True,
    ),
    "triple_distinct": _Case(
        spec=KernelSpec.unweighted(3),
        components=(1, 2, 3),
        q=6,
        jmax=6,
        calculus="ito",
        theory=lambda q, dt: triple_legendre_error_constant(q) * dt**3,
    ),
}


@dataclass(frozen=True)
class ValidationReport:
    """Empirical-vs-theoretical mean-square error of one validation case."""

    case: str
    q: int
    dt: float
    steps: int
    paths: int
    empirical: float
    theoretical: float
    z: float
    stat_err: float
    bias: float

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "q": self.q,
            "dt": self.dt,
            "N": self.steps,
            "P": self.paths,
            "empirical": self.empirical,
            "theoretical": self.theoretical,
            "z": self.z,
            "stat_err": self.stat_err,
            "bias": self.bias,
        }


def _case_mse(
    case: _Case, cfg: SimConfig, evaluate: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float, float]:
    """Mean-square difference at full and half grid: ``(mse, stderr, mse_half)``."""
    comp_axes = [c - 1 for c in case.components]
    equal_pair = len(case.components) == 2 and case.components[0] == case.components[1]

    def squared_error(dw: np.ndarray, phi: np.ndarray) -> np.ndarray:
        exact = _nested_values(case.spec, dw[:, comp_axes, :], cfg.dt, case.calculus, equal_pair)
        return (exact - evaluate(np.einsum("pms,js->mpj", dw, phi))) ** 2

    phi_fine = _basis_matrix(case.jmax, cfg.dt, cfg.steps)
    phi_half = _basis_matrix(case.jmax, cfg.dt, cfg.steps // 2)
    count, total, total_sq, total_half = 0, 0.0, 0.0, 0.0
    for block in _wiener_chunks(cfg, max(case.components)):
        d2 = squared_error(block, phi_fine)
        total += float(np.sum(d2))
        total_sq += float(np.sum(d2 * d2))
        total_half += float(np.sum(squared_error(block[:, :, 0::2] + block[:, :, 1::2], phi_half)))
        count += block.shape[0]

    mse = total / count
    var = max(total_sq / count - mse * mse, 0.0)
    stderr = math.sqrt(var / count)
    return mse, stderr, total_half / count


def validate_expansion(
    case_name: str, cfg: SimConfig, max_doublings: int = 3
) -> ValidationReport:
    """Statistical validation of one named expansion against the oracle.

    Runs the coupled simulation, doubling the grid while the half-grid
    bias estimate exceeds a third of the statistical error.

    Raises:
        GridTooCoarseError: bias still dominates at the largest grid tried.
        ValueError: unknown case, odd step count, or a mean-square error
            that is not finite (the integrals overflow at ``cfg.dt``).
    """
    try:
        case = VALIDATION_CASES[case_name]
    except KeyError:
        raise ValueError(
            f"unknown case {case_name!r}; known: {', '.join(sorted(VALIDATION_CASES))}"
        )
    if cfg.steps % 2:
        raise ValueError("step count must be even for the half-grid bias check")

    evaluate = _evaluator(case, cfg.dt)
    steps = cfg.steps
    for _ in range(max_doublings + 1):
        run_cfg = SimConfig(
            steps=steps, paths=cfg.paths, seed=cfg.seed, dt=cfg.dt, calculus=cfg.calculus
        )
        mse, stderr, mse_half = _case_mse(case, run_cfg, evaluate)
        if not (math.isfinite(mse) and math.isfinite(mse_half)):
            raise ValueError(
                f"mean-square error is not finite at dt={cfg.dt!r}; "
                "the integrals overflow at this interval length"
            )
        bias = abs(mse - mse_half)
        if bias <= stderr / 3.0:
            theory = case.theory(case.q, cfg.dt)
            z = (mse - theory) / stderr if stderr > 0 else math.inf
            return ValidationReport(
                case=case_name,
                q=case.q,
                dt=cfg.dt,
                steps=steps,
                paths=cfg.paths,
                empirical=float(mse),
                theoretical=float(theory),
                z=float(z),
                stat_err=float(stderr),
                bias=float(bias),
            )
        steps *= 2
    raise GridTooCoarseError(
        f"discretization bias {bias:.3e} exceeds stat_err/3 = {stderr / 3.0:.3e} "
        f"after reaching {steps // 2} steps",
        bias=bias,
        stat_err=stderr,
        steps=steps // 2,
    )
