"""Whole-chunk oracle routes: what sub-blocked chunks replaced.

The library draws each 512-path chunk in sub-blocks of ``PATH_BLOCK`` paths
and draws a partial last chunk only as far as it is used.  This module
keeps the routes it replaced as a cross-check: the whole chunk drawn at
once, in full even when only part of it is used, and both basis matrices
built for each call.  :func:`reference_report` runs that route over the
chunks in one process, doubling the grid as :func:`validate_expansion`
does; :func:`simulate_iterated` and :func:`coupled_zeta` work whole chunks
as the library functions of the same names once did.
"""

from __future__ import annotations

import math

import numpy as np

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
)


def wiener_chunk(cfg: SimConfig, m: int, idx: int) -> np.ndarray:
    """Chunk ``idx`` drawn in full from the ``(seed, idx)`` Philox stream, then cut to its paths."""
    seq = np.random.SeedSequence(entropy=(cfg.seed, idx))
    block = np.random.Generator(np.random.Philox(seq)).standard_normal((PATH_CHUNK, m, cfg.steps))
    block *= math.sqrt(cfg.dt / cfg.steps)
    return block[: min(PATH_CHUNK, cfg.paths - idx * PATH_CHUNK)]


def simulate_iterated(spec, pattern, cfg: SimConfig) -> np.ndarray:
    """Per-path iterated integrals, one whole chunk at a time."""
    comp_axes = [c - 1 for c in pattern.components]
    equal_pair = pattern.k == 2 and pattern.components[0] == pattern.components[1]
    m = max(pattern.components)
    return np.concatenate([
        _nested_values(spec, wiener_chunk(cfg, m, idx)[:, comp_axes, :], cfg.dt, cfg.calculus,
                       equal_pair)
        for idx in range(_chunk_count(cfg.paths))
    ])


def coupled_zeta(cfg: SimConfig, m: int, jmax: int) -> np.ndarray:
    """Basis projections, shape ``(m, paths, jmax + 1)``, one whole chunk at a time."""
    phi = _basis_matrix(jmax, cfg.dt, cfg.steps)
    return np.concatenate(
        [_project(wiener_chunk(cfg, m, idx), phi) for idx in range(_chunk_count(cfg.paths))],
        axis=1,
    )


def chunk_sums(case, cfg: SimConfig, idx: int) -> tuple[float, float, float, int]:
    """``(Σd², Σd⁴, Σd²_half, paths)`` of chunk ``idx``, worked as one block."""
    evaluate = _evaluator(case.expansion, cfg.dt)
    comp_axes = [c - 1 for c in case.components]
    equal_pair = len(case.components) == 2 and case.components[0] == case.components[1]

    def squared_error(dw: np.ndarray) -> np.ndarray:
        exact = _nested_values(case.spec, dw[:, comp_axes, :], cfg.dt, case.calculus, equal_pair)
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
        sums = [chunk_sums(case, grid, idx) for idx in range(_chunk_count(cfg.paths))]
        mse, stderr, mse_half = _case_mse(sums)
        bias = abs(mse - mse_half)
        if bias <= stderr / 3.0:
            z = (mse - case.theory(case.q, cfg.dt)) / stderr
            return steps, mse, stderr, z, bias
        steps *= 2
    raise AssertionError("the reference route ran out of grid doublings")
