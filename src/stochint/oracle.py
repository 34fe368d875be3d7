r"""Monte Carlo ground truth for iterated stochastic integrals.

Simulates iterated Ito/Stratonovich integrals with weights
:math:`(t-s)^{l_r}` by fine discretization of the Wiener paths (left-point
rule for Ito, trapezoidal rule for Stratonovich; inner levels by a cumulative
sum, the outermost by a per-path dot product) and statistically
validates the Ito spectral expansions: each path's Wiener increments are
re-projected onto the Legendre basis, :math:`\zeta_j = \sum_l
\varphi_j(\tau_l)\,\Delta W_l`, so the oracle integral and the expansion
built from those :math:`\zeta_j` share one realization and their
mean-square difference estimates the truncation error directly.

Discretization bias is bounded by a coupled half-grid comparison: the same
increments, pairwise-summed, drive a second evaluation at ``N/2`` steps;
the grid is doubled until the observed bias is below a third of the
statistical error.

Path generation is chunked with one counter-based stream per
``(seed, chunk)``.  A chunk's paths are the prefix of its stream in
path-major order, so path ``i`` is identical no matter how many paths are
requested, and a partial last chunk draws only the paths it uses.

Validation maps one function over the chunk indices: it draws the chunk
in sub-blocks of :data:`PATH_BLOCK` paths, which keeps each worker's
temporaries small, and returns the chunk's sums ``(Σd², Σd⁴, Σd²_half,
paths)``.  A task carries the case name, the grid and the chunk index;
each worker looks the case up in :data:`VALIDATION_CASES` and builds its
expansion's coefficients once per ``(case, dt)``, keeping a few of them.
The map runs in one pool of forked worker processes per process: the
first validation that needs two or more workers forks it, later ones
reuse it while the worker count is the same, and it is shut down as the
process exits (or when the count changes, or a worker dies).  Nothing
forks, and ``multiprocessing`` is not imported, until the first
validation with two or more workers.  The parent adds the per-chunk sums
in chunk order.  That is the same sequence of float additions whatever
the worker count, so a report is bit-identical for any number of workers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .basis import _checked_float, _checked_int, _checked_name, _legendre_terms
from .coeffs import KernelSpec, _band_table, coeff_tensor, scaled_tensor
from .errors import series_error
from .expansion import _CALCULI, IndexPattern, NoiseDraws, ito_expansion, legendre_double_series
from .qselect import triple_legendre_error_constant

__all__ = [
    "SimConfig",
    "ValidationReport",
    "GridTooCoarseError",
    "OracleBudgetError",
    "VALIDATION_CASES",
    "simulate_iterated",
    "coupled_zeta",
    "validate_expansion",
    "worker_count",
]

#: Paths generated per random-stream chunk.
PATH_CHUNK = 512

#: Paths worked at once inside a chunk by validation.  Of the powers of two
#: from 8 to 512 on a 2-vCPU host, 64 and 128 gave the fastest ``validate_mc``
#: passes, and 64 holds less memory.
PATH_BLOCK = 64

#: Most standard normals one :func:`validate_expansion` call may draw, counting
#: every allowed grid doubling.  Criterion 6 (``P = 10^5``, ``N = 4096``, three
#: components, three doublings) may draw 1.84e10.
NORMALS_BUDGET = 2**35

#: Highest basis index the oracle evaluates.  Each :math:`P_j` is summed from
#: its monomial coefficients, which cancel more as ``j`` grows: against
#: numpy's ``legval``, its largest error on a 65 536-step grid is 3.1e-13 at
#: j = 12, 1.7e-12 at j = 14 and 2.7e-10 at j = 20.  The named cases read j <= 6.
BASIS_INDEX_CAP = 12


class OracleBudgetError(Exception):
    """A validation could draw more than :data:`NORMALS_BUDGET` normals."""


class GridTooCoarseError(Exception):
    """Discretization bias still dominates after the allowed grid doublings."""

    def __init__(self, message: str, bias: float, stat_err: float, steps: int) -> None:
        super().__init__(message)
        self.bias = bias
        self.stat_err = stat_err
        self.steps = steps


@dataclass(frozen=True)
class SimConfig:
    """Fine-grid simulation parameters; ``steps >= 2``, ``paths >= 1`` and
    ``seed >= 0`` are stored as ``int``, and the interval length as ``float``."""

    steps: int
    paths: int
    seed: int
    dt: float
    calculus: str = "ito"

    def __post_init__(self) -> None:
        for name, low in (("steps", 2), ("paths", 1), ("seed", 0)):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, low))
        object.__setattr__(self, "dt", _checked_float(self.dt, "interval length"))
        _checked_name(self.calculus, _CALCULI, "calculus")


def _chunk_count(paths: int) -> int:
    return -(-paths // PATH_CHUNK)


def _chunk_paths(cfg: SimConfig, idx: int) -> int:
    return min(PATH_CHUNK, cfg.paths - idx * PATH_CHUNK)


def _chunk_stream(seed: int, idx: int) -> np.random.Generator:
    """The counter-based stream of chunk ``idx``, keyed by ``(seed, chunk index)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, idx))))


def _wiener_blocks(cfg: SimConfig, m: int, chunks: range) -> Iterator[tuple[slice, np.ndarray]]:
    """Wiener increments of the paths of ``chunks``, :data:`PATH_BLOCK` paths at a time.

    Yields ``(rows, dw)``: ``dw`` has shape ``(paths in block, m, steps)``
    and ``rows`` is the block's slice of the paths of ``chunks``.  A chunk's
    paths are the prefix of its stream in path-major order, so a path never
    depends on the block size or on the total path count.  ``dw`` is one
    reused buffer, overwritten by the next block.
    """
    scale = math.sqrt(cfg.dt / cfg.steps)
    buffer = np.empty((min(PATH_BLOCK, cfg.paths), m, cfg.steps))
    for idx in chunks:
        stream = _chunk_stream(cfg.seed, idx)
        paths = _chunk_paths(cfg, idx)
        offset = (idx - chunks.start) * PATH_CHUNK
        for start in range(offset, offset + paths, PATH_BLOCK):
            dw = buffer[: min(PATH_BLOCK, offset + paths - start)]
            stream.standard_normal(out=dw)
            dw *= scale
            yield slice(start, start + dw.shape[0]), dw


def _weight_values(exponent: int, grid: np.ndarray) -> np.ndarray:
    """Values of ``(t - s)**exponent`` at grid times (``t = 0``)."""
    if exponent == 0:
        return np.ones_like(grid)
    return (-grid) ** exponent


def _nested_values(
    spec: KernelSpec, components: tuple[int, ...], dw: np.ndarray, dt: float, calculus: str
) -> np.ndarray:
    """Iterated integral of one block; ``dw`` is ``(paths, m, steps)``, read at ``components``.

    Each level reads a view of ``dw``.  Inner levels keep their integral on
    the grid (a ``cumsum``); the outermost is a per-path dot product, by
    ``einsum`` because ``@`` may round a row by how many rows share the call.

    For a pair with equal components the Ito rule adds the exact
    within-cell diagonal term :math:`\\sum_u w_1 w_2 (\\Delta W_u^2 - h)/2`
    (the cell-level analogue of the trapezoid rule's diagonal); the plain
    left-point rule drops the diagonal cells entirely, and that omission
    would dominate the smallest truncation errors being validated.
    """
    paths, _, n = dw.shape
    grid = np.linspace(0.0, dt, n + 1)
    running = None  # the inner integral on the grid; None stands for the constant 1
    for level, exponent in enumerate(spec.weights):
        d = dw[:, components[level] - 1, :]
        cell = running  # the integrand on the grid, then on the cells
        if exponent:
            w = _weight_values(exponent, grid)
            cell = w if running is None else w * running
        if cell is not None:
            cell = cell[..., :n] if calculus == "ito" else 0.5 * (cell[..., :n] + cell[..., 1:])
        if level == spec.k - 1:
            break
        running = np.empty((paths, n + 1))
        running[:, 0] = 0.0
        np.cumsum(d if cell is None else cell * d, axis=1, out=running[:, 1:])
    if cell is None:
        values = np.einsum("pu->p", d)
    elif cell.ndim == 1:
        values = np.einsum("pu,u->p", d, cell)
    else:
        values = np.einsum("pu,pu->p", cell, d)
    if spec.k == 2 and components[0] == components[1] and calculus == "ito":
        h = dt / n
        w_cell = _weight_values(spec.weights[0], grid[:n]) * _weight_values(
            spec.weights[1], grid[:n]
        )
        values = values + 0.5 * np.einsum("pu,u->p", d * d - h, w_cell)
    return values


def simulate_iterated(spec: KernelSpec, pattern: IndexPattern, cfg: SimConfig) -> np.ndarray:
    """Per-path discretized values of one iterated integral."""
    if spec.k != pattern.k:
        raise ValueError("kernel multiplicity does not match index pattern")
    out = np.empty(cfg.paths)
    for rows, dw in _wiener_blocks(cfg, max(pattern.components), range(_chunk_count(cfg.paths))):
        out[rows] = _nested_values(spec, pattern.components, dw, cfg.dt, cfg.calculus)
    return out


def _basis_matrix(jmax: int, dt: float, n: int) -> np.ndarray:
    r"""Left-point values :math:`\varphi_j(\tau_l)`, shape ``(jmax+1, n)``.

    :math:`\varphi_j(s) = \sqrt{(2j+1)/dt}\; P_j(2 s/dt - 1)` on a uniform
    ``n``-step grid over ``[0, dt]``.  Raises ``ValueError`` for ``jmax``
    outside ``0..``:data:`BASIS_INDEX_CAP`.
    """
    jmax = _checked_int(jmax, "basis index", None)
    if not 0 <= jmax <= BASIS_INDEX_CAP:
        raise ValueError(f"basis index {jmax} is outside the oracle's range 0..{BASIS_INDEX_CAP}")
    tau = np.linspace(0.0, dt, n + 1)[:n]
    x = 2.0 * tau / dt - 1.0
    rows = []
    for j in range(jmax + 1):
        vals = np.polynomial.polynomial.polyval(x, [c / 2**j for c in _legendre_terms(j)])
        rows.append(math.sqrt((2 * j + 1) / dt) * vals)
    return np.stack(rows)


def coupled_zeta(cfg: SimConfig, m: int, jmax: int) -> np.ndarray:
    r"""Basis projections :math:`\zeta_j^{(i)}` of the simulated paths.

    Returns shape ``(m, paths, jmax + 1)``; entry ``[i-1, p, j]`` is the
    discretized :math:`\int \varphi_j\, dW^{(i)}` of path ``p``.  A non-integer
    ``m`` or ``jmax``, an ``m`` below 1 or a ``jmax`` outside
    ``0..``:data:`BASIS_INDEX_CAP` raises ``ValueError`` before anything is drawn.
    """
    m = _checked_int(m, "component count", 1)
    phi = _basis_matrix(jmax, cfg.dt, cfg.steps)
    out = np.empty((m, cfg.paths, jmax + 1))
    for rows, dw in _wiener_blocks(cfg, m, range(_chunk_count(cfg.paths))):
        out[:, rows, :] = _project(dw, phi)
    return out


def _project(dw: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """ζ of one chunk, shape ``(m, paths, jmax+1)``, from ``dw`` of shape ``(paths, m, steps)``."""
    return np.matmul(dw, phi.T).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# Named validation cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """A named case: the Ito expansion it evaluates and the closed-form error it must match."""

    spec: KernelSpec
    components: tuple[int, ...]
    q: int
    theory: Callable[[int, float], float]
    #: Evaluate with the banded pair series instead of the general tensor expansion.
    banded: bool = False

    @property
    def jmax(self) -> int:
        """The highest basis index the expansion reads."""
        return _band_table(self.spec.weights, self.q).needed - 1 if self.banded else self.q


@lru_cache(maxsize=8)
def _evaluator(case_name: str, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """Build the case's coefficients once; return its expansion of one chunk's ``zeta``."""
    case = VALIDATION_CASES[case_name]
    pattern = IndexPattern(case.components)
    if case.banded:
        return lambda zeta: legendre_double_series(
            case.spec.weights, pattern, NoiseDraws(zeta, None, None, 0), case.q, dt, "ito"
        )
    tensor = scaled_tensor(coeff_tensor(case.spec, case.q), dt)
    return lambda zeta: ito_expansion(tensor, pattern, NoiseDraws(zeta, None, None, 0), case.q)


VALIDATION_CASES: dict[str, _Case] = {
    "pair_distinct": _Case(
        spec=KernelSpec.unweighted(2),
        components=(1, 2),
        q=2,
        theory=lambda q, dt: series_error("pair_legendre", q, dt),
    ),
    "pair_equal_weighted": _Case(
        spec=KernelSpec(2, (1, 0)),
        components=(1, 1),
        q=2,
        theory=lambda q, dt: series_error("pair_legendre_weighted_equal", q, dt),
        banded=True,
    ),
    "pair_weighted_distinct": _Case(
        spec=KernelSpec(2, (1, 0)),
        components=(1, 2),
        q=3,
        theory=lambda q, dt: series_error("pair_legendre_weighted", q, dt),
        banded=True,
    ),
    "triple_distinct": _Case(
        spec=KernelSpec.unweighted(3),
        components=(1, 2, 3),
        q=6,
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


def _chunk_sums(case_name: str, cfg: SimConfig, idx: int) -> tuple[float, float, float, int]:
    """``(Σd², Σd⁴, Σd²_half, paths)`` of chunk ``idx``, ``d`` the oracle-minus-expansion error.

    ``d_half`` is the error on the half grid driven by the same increments,
    pairwise summed.  The chunk's paths are drawn and worked
    :data:`PATH_BLOCK` at a time (:func:`_wiener_blocks`); each path's
    ``d²`` and ``d²_half`` is the same whatever the block, and the sums run
    over the whole chunk.
    An interval long enough to overflow gives infinite or NaN sums, which
    :func:`validate_expansion` rejects; numpy is kept from warning about
    them.
    """
    case = VALIDATION_CASES[case_name]
    evaluate = _evaluator(case_name, cfg.dt)
    phi = _basis_matrix(case.jmax, cfg.dt, cfg.steps)
    phi_half = _basis_matrix(case.jmax, cfg.dt, cfg.steps // 2)

    def squared_error(dw: np.ndarray, basis: np.ndarray) -> np.ndarray:
        exact = _nested_values(case.spec, case.components, dw, cfg.dt, "ito")
        return (exact - evaluate(_project(dw, basis))) ** 2

    paths = _chunk_paths(cfg, idx)
    d2, d2_half = np.empty(paths), np.empty(paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, dw in _wiener_blocks(cfg, max(case.components), range(idx, idx + 1)):
            d2[rows] = squared_error(dw, phi)
            d2_half[rows] = squared_error(dw[:, :, 0::2] + dw[:, :, 1::2], phi_half)
        return float(np.sum(d2)), float(np.sum(d2 * d2)), float(np.sum(d2_half)), paths


def _case_mse(sums: list[tuple[float, float, float, int]]) -> tuple[float, float, float]:
    """Mean-square difference at full and half grid: ``(mse, stderr, mse_half)``.

    ``sums`` are the per-chunk sums of :func:`_chunk_sums`, added in chunk order.
    """
    count, total, total_sq, total_half = 0, 0.0, 0.0, 0.0
    for s2, s4, s2_half, paths in sums:
        total += s2
        total_sq += s4
        total_half += s2_half
        count += paths
    mse = total / count
    var = max(total_sq / count - mse * mse, 0.0)
    return mse, math.sqrt(var / count), total_half / count


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform reports an affinity mask
        return os.cpu_count() or 1


def worker_count(requested: int | None, chunks: int) -> int:
    """Worker processes for ``chunks`` path chunks: ``requested``, or the
    usable CPUs when it is ``None``, and never more than one per chunk."""
    if requested is not None:
        requested = _checked_int(requested, "worker count", 1)
    return min(requested or _usable_cpus(), chunks)


class _Pool(NamedTuple):
    pid: int  # the process that forked the workers
    workers: int
    executor: object  # a concurrent.futures.ProcessPoolExecutor
    shutdown: Callable[[], None]  # a multiprocessing finalizer: runs once, only in ``pid``


#: This process's pool, or None.  A forked child inherits its parent's entry
#: and only forgets it.
_pool: _Pool | None = None


def _drop_pool() -> None:
    """Shut down this process's pool, if it has one, and forget it."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
    _pool = None


def _fork_pool(workers: int):
    """This process's pool of ``workers`` forked processes, made on first use and reused.

    It imports ``multiprocessing`` and ``concurrent.futures`` when it first
    runs, as :func:`_can_fork` does, so a process that never validates with
    two or more workers loads neither.
    """
    global _pool
    if _pool is None or (_pool.pid, _pool.workers) != (os.getpid(), workers):
        _drop_pool()
        import multiprocessing.util
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        # Shut down at exit, before multiprocessing joins the children of a
        # forked process that validates.
        shutdown = multiprocessing.util.Finalize(None, executor.shutdown, exitpriority=20)
        _pool = _Pool(os.getpid(), workers, executor, shutdown)
    return _pool.executor


def _can_fork() -> bool:
    """Whether this process may fork a pool: the platform has ``fork`` and
    the process is not daemonic (a pool worker may not start processes)."""
    import multiprocessing

    daemonic = multiprocessing.current_process().daemon
    return not daemonic and "fork" in multiprocessing.get_all_start_methods()


def _chunk_map(fn: Callable, tasks: list[tuple], workers: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order.

    With more than one worker the tasks, ``fn`` included, are pickled to the
    process's pool of forked workers (:func:`_fork_pool`).  One worker, or
    a process that may not fork (:func:`_can_fork`), maps in this process;
    one worker does so without importing ``multiprocessing``.  An exception
    in a worker is re-raised here and leaves the pool usable; a pool whose
    worker died is dropped, and the next call forks a new one.
    """
    if workers == 1 or not _can_fork():
        return [fn(*task) for task in tasks]
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_fork_pool(workers).map(fn, *zip(*tasks)))
    except BrokenProcessPool:
        _drop_pool()
        raise


def validate_expansion(
    case_name: str, cfg: SimConfig, max_doublings: int = 3, workers: int | None = None
) -> ValidationReport:
    """Statistical validation of one named expansion against the oracle.

    Runs the coupled simulation, doubling the grid while the half-grid
    bias estimate exceeds a third of the statistical error.  The path
    chunks run in ``workers`` processes (default: the usable CPUs; see
    :func:`worker_count`); the report does not depend on how many.

    Raises:
        GridTooCoarseError: bias still dominates at the largest grid tried.
        OracleBudgetError: the run could draw more than :data:`NORMALS_BUDGET`
            normals; nothing is drawn.
        ValueError: unknown case, a calculus other than Ito, odd step count,
            a negative ``max_doublings``, an interval too small for finite
            basis functions, fewer than one worker, a mean-square error or
            standard error that is not finite (the integrals overflow at
            ``cfg.dt``), or a standard error of zero at the grid that ends
            the run.
    """
    case = VALIDATION_CASES[_checked_name(case_name, VALIDATION_CASES, "case")]
    if cfg.calculus != "ito":
        raise ValueError(f"validation checks Ito expansions only, not calculus={cfg.calculus!r}")
    if cfg.steps % 2:
        raise ValueError("step count must be even for the half-grid bias check")
    max_doublings = _checked_int(max_doublings, "max_doublings")
    if not math.isfinite(math.sqrt((2 * case.jmax + 1) / cfg.dt)):
        raise ValueError(f"interval length dt={cfg.dt!r} is too small: sqrt((2j+1)/dt) is inf")
    normals = cfg.paths * max(case.components) * cfg.steps * (2 ** (max_doublings + 1) - 1)
    if normals > NORMALS_BUDGET:
        raise OracleBudgetError(
            f"validating {case_name!r} could draw {Decimal(normals):.3e} normals, "
            f"more than the budget of {NORMALS_BUDGET:.3e}"
        )

    chunks = range(_chunk_count(cfg.paths))
    workers = worker_count(workers, len(chunks))
    steps = cfg.steps
    for _ in range(max_doublings + 1):
        grid = replace(cfg, steps=steps)
        mse, stderr, mse_half = _case_mse(
            _chunk_map(_chunk_sums, [(case_name, grid, idx) for idx in chunks], workers)
        )
        if not all(map(math.isfinite, (mse, stderr, mse_half))):
            raise ValueError(
                f"mean-square error or its standard error is not finite at dt={cfg.dt!r}; "
                "the integrals overflow at this interval length"
            )
        bias = abs(mse - mse_half)
        if bias <= stderr / 3.0:
            if not stderr:
                raise ValueError(
                    f"the standard error is zero at dt={cfg.dt!r} and paths={cfg.paths}, "
                    "so the z-score is undefined"
                )
            theory = case.theory(case.q, cfg.dt)
            z = (mse - theory) / stderr
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
