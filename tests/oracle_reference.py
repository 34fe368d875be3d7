"""Whole-chunk oracle routes: what sub-blocked chunks replaced.

The library draws each 512-path chunk in sub-blocks of ``PATH_BLOCK`` paths
and draws a partial last chunk only as far as it is used.  This module
keeps the routes it replaced as a cross-check: the whole chunk drawn at
once, in full even when only part of it is used, and both basis matrices
built for each call.  :func:`reference_report` runs that route over the
chunks in one process, doubling the grid as :func:`validate_expansion`
does; :func:`simulate_iterated` and :func:`coupled_zeta` work whole chunks
as the library functions of the same names once did.

:func:`nested_values_stepwise` is the nested-integral kernel before the
outermost level became a per-path dot product: it copies the block's
components and keeps every level, the outermost too, on the whole grid.

:func:`basis_matrix_rational` builds the basis rows as the library once
did, from the rational coefficients of ``legendre_poly(j)``; the library
now reads the same explicit sum as integers.
"""

from __future__ import annotations

import math

import numpy as np

from stochint.basis import legendre_poly
from stochint.oracle import (
    PATH_CHUNK,
    VALIDATION_CASES,
    SimConfig,
    _basis_matrix,
    _case_mse,
    _chunk_count,
    _evaluator,
    _nested_values,
    _project,
    _weight_values,
)


def nested_values_stepwise(spec, components, dw: np.ndarray, dt: float, calculus: str) -> np.ndarray:
    """Iterated integral of one block with a ``cumsum`` at every level, read at its last column."""
    dw = dw[:, [c - 1 for c in components], :]
    paths, _, n = dw.shape
    grid = np.linspace(0.0, dt, n + 1)
    running = None  # the inner integral on the grid; None stands for the constant 1
    for level, exponent in enumerate(spec.weights):
        integrand = running
        if exponent:
            w = _weight_values(exponent, grid)
            integrand = w if running is None else w * running
        if integrand is None:
            step_terms = dw[:, level, :]
        elif calculus == "ito":
            step_terms = integrand[..., :n] * dw[:, level, :]
        else:
            step_terms = 0.5 * (integrand[..., :n] + integrand[..., 1:]) * dw[:, level, :]
        running = np.empty((paths, n + 1))
        running[:, 0] = 0.0
        np.cumsum(step_terms, axis=1, out=running[:, 1:])
    values = running[:, -1]
    if spec.k == 2 and components[0] == components[1] and calculus == "ito":
        h = dt / n
        w_cell = _weight_values(spec.weights[0], grid[:n]) * _weight_values(
            spec.weights[1], grid[:n]
        )
        values = values + 0.5 * np.sum(
            w_cell[None, :] * (dw[:, 0, :] ** 2 - h), axis=1
        )
    return values


def basis_matrix_rational(jmax: int, dt: float, n: int) -> np.ndarray:
    """The basis rows of ``_basis_matrix``, from ``legendre_poly(j).coeffs`` as floats."""
    tau = np.linspace(0.0, dt, n + 1)[:n]
    x = 2.0 * tau / dt - 1.0
    rows = []
    for j in range(jmax + 1):
        p = legendre_poly(j)
        coeffs = [float(c) for c in p.coeffs] or [0.0]
        vals = np.polynomial.polynomial.polyval(x, coeffs)
        rows.append(math.sqrt((2 * j + 1) / dt) * vals)
    return np.stack(rows)


def wiener_chunk(cfg: SimConfig, m: int, idx: int) -> np.ndarray:
    """Chunk ``idx`` drawn in full from the ``(seed, idx)`` Philox stream, then cut to its paths."""
    seq = np.random.SeedSequence(entropy=(cfg.seed, idx))
    block = np.random.Generator(np.random.Philox(seq)).standard_normal((PATH_CHUNK, m, cfg.steps))
    block *= math.sqrt(cfg.dt / cfg.steps)
    return block[: min(PATH_CHUNK, cfg.paths - idx * PATH_CHUNK)]


def simulate_iterated(spec, pattern, cfg: SimConfig) -> np.ndarray:
    """Per-path iterated integrals, one whole chunk at a time."""
    m = max(pattern.components)
    return np.concatenate([
        _nested_values(spec, pattern.components, wiener_chunk(cfg, m, idx), cfg.dt, cfg.calculus)
        for idx in range(_chunk_count(cfg.paths))
    ])


def coupled_zeta(cfg: SimConfig, m: int, jmax: int) -> np.ndarray:
    """Basis projections, shape ``(m, paths, jmax + 1)``, one whole chunk at a time."""
    phi = _basis_matrix(jmax, cfg.dt, cfg.steps)
    return np.concatenate(
        [_project(wiener_chunk(cfg, m, idx), phi) for idx in range(_chunk_count(cfg.paths))],
        axis=1,
    )


def chunk_sums(case_name: str, cfg: SimConfig, idx: int) -> tuple[float, float, float, int]:
    """``(Σd², Σd⁴, Σd²_half, paths)`` of chunk ``idx``, worked as one block."""
    case = VALIDATION_CASES[case_name]
    evaluate = _evaluator(case_name, cfg.dt)

    def squared_error(dw: np.ndarray) -> np.ndarray:
        exact = _nested_values(case.spec, case.components, dw, cfg.dt, "ito")
        phi = _basis_matrix(case.jmax, cfg.dt, dw.shape[-1])
        return (exact - evaluate(_project(dw, phi))) ** 2

    block = wiener_chunk(cfg, max(case.components), idx)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = squared_error(block)
        d2_half = squared_error(block[:, :, 0::2] + block[:, :, 1::2])
        return float(np.sum(d2)), float(np.sum(d2 * d2)), float(np.sum(d2_half)), block.shape[0]


def reference_report(case_name: str, cfg: SimConfig, max_doublings: int = 3) -> tuple:
    """``(steps, empirical, stat_err, z, bias)`` of the whole-chunk route in one process."""
    case = VALIDATION_CASES[case_name]
    steps = cfg.steps
    for _ in range(max_doublings + 1):
        grid = SimConfig(steps=steps, paths=cfg.paths, seed=cfg.seed, dt=cfg.dt, calculus=cfg.calculus)
        sums = [chunk_sums(case_name, grid, idx) for idx in range(_chunk_count(cfg.paths))]
        mse, stderr, mse_half = _case_mse(sums)
        bias = abs(mse - mse_half)
        if bias <= stderr / 3.0:
            z = (mse - case.theory(case.q, cfg.dt)) / stderr
            return steps, mse, stderr, z, bias
        steps *= 2
    raise AssertionError("the reference route ran out of grid doublings")
