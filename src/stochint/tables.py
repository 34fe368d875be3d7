"""Registries for the bundled reference tables.

Three families of numbered tables are reproducible from the library:

* coefficient tables 4-36: grids of exact rational basis coefficients
  for multiplicities 3, 4 and 5 (tables 20-28 carry time weights);
* error tables 1, 2, 3, 38, 41, 42: normalized mean-square truncation
  errors of pair and triple expansions at growing truncation order;
* truncation-order tables 37, 39, 40: minimal truncation numbers
  satisfying accuracy conditions over a list of interval lengths.

Each registry entry records how a printed cell maps onto library calls,
so the same layouts can be emitted by the command-line tool and checked
against the frozen printed values in the test data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coeffs import KernelSpec, _outer_coeffs, _outer_series
from .errors import series_error
from .qselect import Condition, min_q

__all__ = [
    "CoeffTableSpec",
    "ErrorTableSpec",
    "QTableSpec",
    "COEFF_TABLES",
    "ERROR_TABLES",
    "Q_TABLES",
    "DEFAULT_ERROR_QS",
    "compute_coeff_table",
    "compute_error_table",
    "compute_q_table",
    "pol_over_trig_ratios",
]


@dataclass(frozen=True)
class CoeffTableSpec:
    """Layout of one printed coefficient grid.

    Cell ``(row, col)`` holds the coefficient at basis indices
    ``(col, row, *outer)``, innermost first: the printed grids label rows
    and columns by those same 0-based integers, and each table fixes the
    outer indices.
    """

    number: int
    spec: KernelSpec
    rows: int
    cols: int
    row_label: str
    col_label: str
    outer: tuple[int, ...]

    def js(self, row: int, col: int) -> tuple[int, ...]:
        """The basis indices (innermost first) of the cell at 0-based ``row``/``col``."""
        return (col, row, *self.outer)


# One row per family of consecutive tables: (first table, weights, grid
# size, row label, column label, the printed outer subscripts of each table
# in order).  A printed subscript names the outer indices outermost first.
_COEFF_FAMILIES = (
    (4, (0, 0, 0), 7, "j", "k", "0 1 2 3 4 5 6"),
    (11, (0, 0, 0, 0), 3, "k", "l", "00 10 02 01 11 20 21 12 22"),
    (20, (0, 0, 1), 3, "j", "k", "0 1 2"),
    (23, (1, 0, 0), 3, "j", "k", "0 1 2"),
    (26, (0, 1, 0), 3, "j", "k", "0 1 2"),
    (29, (0, 0, 0, 0, 0), 2, "l", "r", "000 010 110 011 001 100 101 111"),
)

COEFF_TABLES: dict[int, CoeffTableSpec] = {
    number: CoeffTableSpec(
        number, KernelSpec(len(weights), weights), size, size, row_label, col_label,
        tuple(int(digit) for digit in reversed(sub)),
    )
    for first, weights, size, row_label, col_label, subs in _COEFF_FAMILIES
    for number, sub in enumerate(subs.split(), first)
}


def compute_coeff_table(number: int) -> list[list[Fraction]]:
    """Exact rational grid of one coefficient table."""
    try:
        layout = COEFF_TABLES[number]
    except KeyError:
        raise ValueError(
            f"no coefficient table {number}; available: 4..36"
        ) from None
    grid = [[layout.js(r, c) for c in range(layout.cols)] for r in range(layout.rows)]
    series = dict(_outer_series(layout.spec, sorted({j[:-1] for row in grid for j in row})))
    return [[_outer_coeffs(series[j[:-1]], j[-1:])[0] for j in row] for row in grid]


@dataclass(frozen=True)
class ErrorTableSpec:
    """Normalization of one printed error table.

    The printed entries are ``factor * error / dt**power`` — a pure
    function of the truncation order ``q``.
    """

    number: int
    series: str
    factor: int
    power: int


#: Truncation orders used by all printed error tables.
DEFAULT_ERROR_QS: tuple[int, ...] = (1, 10, 100, 1000, 10000)

ERROR_TABLES: dict[int, ErrorTableSpec] = {
    t.number: t
    for t in (
        ErrorTableSpec(1, "pair_legendre", 2, 2),
        ErrorTableSpec(2, "pair_legendre_weighted", 16, 4),
        ErrorTableSpec(3, "pair_legendre_weighted_equal", 16, 4),
        ErrorTableSpec(38, "triple_trig_tail", 1, 3),
        ErrorTableSpec(41, "triple_trig", 1, 3),
        ErrorTableSpec(42, "pair_trig_weighted", 4, 4),
    )
}


def compute_error_table(number: int, qs: Sequence[int] | None = None) -> list[float]:
    """Normalized error values of one error table at the given orders."""
    try:
        table = ERROR_TABLES[number]
    except KeyError:
        raise ValueError(
            f"no error table {number}; available: {sorted(ERROR_TABLES)}"
        ) from None
    if qs is None:
        qs = DEFAULT_ERROR_QS
    return [table.factor * series_error(table.series, q, 1.0) for q in qs]


@dataclass(frozen=True)
class QTableSpec:
    """Column layout of one truncation-order table."""

    number: int
    dts: tuple[float, ...]
    columns: tuple[tuple[str, str], ...]  # (column name, condition id)


Q_TABLES: dict[int, QTableSpec] = {
    t.number: t
    for t in (
        QTableSpec(
            37,
            tuple(2.0**e for e in range(-5, -13, -1)),
            (
                ("trig", "pair_trig_tail_dt3"),
                ("trig_star", "pair_trig_dt3"),
                ("pol", "pair_legendre_dt3"),
            ),
        ),
        QTableSpec(
            39,
            (0.08222, 0.05020, 0.02310, 0.01956),
            (("q", "pair_legendre_dt4"), ("q1", "triple_legendre_dt4")),
        ),
        QTableSpec(
            40,
            (0.08222, 0.05020, 0.02310, 0.01956),
            (
                ("p", "pair_trig_tail_dt4"),
                ("p1", "triple_trig_tail_dt4"),
                ("p_star", "pair_trig_dt4"),
                ("p1_star", "triple_trig_dt4"),
            ),
        ),
    )
}


def compute_q_table(number: int, dts: Sequence[float] | None = None) -> dict[str, list[int]]:
    """Minimal-order columns of one truncation-order table."""
    try:
        table = Q_TABLES[number]
    except KeyError:
        raise ValueError(
            f"no truncation-order table {number}; available: {sorted(Q_TABLES)}"
        ) from None
    if dts is None:
        dts = table.dts
    out: dict[str, list[int]] = {}
    for name, cond_id in table.columns:
        out[name] = [min_q(Condition(cond_id, dt)) for dt in dts]
    return out


def pol_over_trig_ratios() -> list[float]:
    """Per-interval ratio of polynomial to trigonometric truncation orders.

    Computed from the two comparable columns of the order table over
    dyadic interval lengths, rounded to two decimals.
    """
    cols = compute_q_table(37)
    return [round(p / t, 2) for p, t in zip(cols["pol"], cols["trig"])]
