"""One integer, float and name rule at every library boundary.

Each entry point that takes an integer (an order, count, index, label,
weight or seed) refuses ``1.5``, ``True`` and the values just outside its
range with a ``ValueError`` that names the argument, and accepts an
integer-like ``np.int64``.  Each that takes a float (an interval length or
a step size) refuses a ``bool``, a ``str``, ``None``, a ``Decimal``, NaN,
inf and its open bounds, and accepts any ``numbers.Real``.  Each that takes
a name (a kind, case, calculus, direction, condition id or table number)
refuses an unknown one, a list and ``True``, and lists the registry's keys.
The oracle entry points refuse before drawing a single normal, and the
records keep ``int`` and ``float``.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from stochint import oracle
from stochint.basis import legendre_poly, product_expand
from stochint.cli import main
from stochint.coeffs import (
    CoeffTensor,
    KernelSpec,
    ScaledTensor,
    bar_coeff,
    coeff_tensor,
    scale_coeff,
    scaled_tensor,
)
from stochint.errors import SERIES_KINDS, IndexPattern, kernel_norm, series_error
from stochint.expansion import (
    _TRIG_KINDS,
    diagonal_trace,
    draw_noise,
    hermite_diagonal,
    ito_strat_convert,
    legendre_closed_single,
    legendre_double_series,
    pair_series_tensor,
    trig_milstein,
)
from stochint.oracle import (
    VALIDATION_CASES,
    SimConfig,
    coupled_zeta,
    validate_expansion,
    worker_count,
)
from stochint.qselect import CONDITION_IDS, Condition
from stochint.tables import (
    COEFF_TABLES,
    ERROR_TABLES,
    Q_TABLES,
    compute_coeff_table,
    compute_error_table,
    compute_q_table,
)

DT = 0.5
DRAWS = draw_noise(4, 2, 0)
CFG = SimConfig(steps=16, paths=64, seed=0, dt=DT)
UNIT = coeff_tensor(KernelSpec.unweighted(1), 1)


class Entry(NamedTuple):
    name: str  # how the error message names the argument
    call: Callable  # the entry point, applied to the argument under test
    valid: int
    outside: tuple[int, ...]  # the values just outside the range


ENTRIES = {
    "legendre_poly": Entry("Legendre index", legendre_poly, 3, (-1,)),
    "product_expand_m": Entry("Legendre index", lambda v: product_expand(v, 1), 2, (-1,)),
    "product_expand_n": Entry("Legendre index", lambda v: product_expand(1, v), 2, (-1,)),
    "KernelSpec_k": Entry("multiplicity", lambda v: KernelSpec(v, (0,)), 1, (0, 6)),
    "KernelSpec_weight": Entry("weight exponent", lambda v: KernelSpec(2, (v, 0)), 1, (-1,)),
    "bar_coeff_index": Entry(
        "basis index", lambda v: bar_coeff(KernelSpec.unweighted(2), (v, 0)), 1, (-1,)
    ),
    "CoeffTensor_q": Entry(
        "truncation order", lambda v: CoeffTensor(UNIT.spec, v, UNIT.values), 1, (-1,)
    ),
    "ScaledTensor_q": Entry(
        "truncation order",
        lambda v: ScaledTensor(KernelSpec.unweighted(2), v, 1.0, np.ones((2, 2))),
        1,
        (-1,),
    ),
    "IndexPattern": Entry("component label", lambda v: IndexPattern((v, 2)), 1, (0,)),
    "NoiseDraws_row": Entry("component", lambda v: DRAWS.row(v, 1), 1, (0, 3)),
    "draw_noise_m": Entry("component count", lambda v: draw_noise(2, v, 0), 2, (0,)),
    "draw_noise_q_max": Entry("q_max", lambda v: draw_noise(v, 1, 0), 2, (-1,)),
    "draw_noise_seed": Entry("seed", lambda v: draw_noise(2, 1, v), 1, (-1, 2**128)),
    "legendre_closed_single": Entry(
        "closed single form weight",
        lambda v: legendre_closed_single(v, 1, DRAWS, DT),
        1,
        (-1, 4),
    ),
    "hermite_diagonal_k": Entry(
        "Hermite diagonal multiplicity", lambda v: hermite_diagonal(v, 0, 1, DRAWS, DT), 3, (2, 5)
    ),
    "hermite_diagonal_l": Entry(
        "weight exponent", lambda v: hermite_diagonal(3, v, 1, DRAWS, DT), 1, (-1,)
    ),
    "double_series_weight": Entry(
        "weight exponent",
        lambda v: legendre_double_series((v, 0), IndexPattern((1, 2)), DRAWS, 1, DT),
        1,
        (-1,),
    ),
    "SimConfig_steps": Entry("steps", lambda v: SimConfig(v, 4, 0, DT), 8, (1,)),
    "SimConfig_paths": Entry("paths", lambda v: SimConfig(8, v, 0, DT), 4, (0,)),
    "SimConfig_seed": Entry("seed", lambda v: SimConfig(8, 4, v, DT), 3, (-1,)),
    "coupled_zeta_m": Entry("component count", lambda v: coupled_zeta(CFG, v, 2), 2, (0,)),
    "coupled_zeta_jmax": Entry("basis index", lambda v: coupled_zeta(CFG, 1, v), 2, (-1, 13)),
    "worker_count": Entry("worker count", lambda v: worker_count(v, 8), 2, (0,)),
    "validate_max_doublings": Entry(
        "max_doublings",
        lambda v: validate_expansion("pair_distinct", CFG, max_doublings=v, workers=1),
        1,
        (-1,),
    ),
    "validate_workers": Entry(
        "worker count", lambda v: validate_expansion("pair_distinct", CFG, workers=v), 1, (0,)
    ),
    "Condition_cap": Entry("scan cap", lambda v: Condition("pair_trig_dt3", 0.1, cap=v), 5, (0,)),
}

REFUSED = [
    pytest.param(key, value, id=f"{key}-{value!r}")
    for key, entry in ENTRIES.items()
    for value in (1.5, True, *entry.outside)
]


@pytest.mark.parametrize("key,value", REFUSED)
def test_refused_before_any_draw(key, value, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew normals")

    monkeypatch.setattr(oracle, "_wiener_blocks", no_draws)
    entry = ENTRIES[key]
    with pytest.raises(ValueError, match=f"^{entry.name} "):
        entry.call(value)


@pytest.mark.parametrize("key", ENTRIES)
def test_integer_like_value_is_accepted(key):
    entry = ENTRIES[key]
    entry.call(np.int64(entry.valid))


@pytest.mark.parametrize("cached", [1, np.int64(1)])
@pytest.mark.parametrize("value", [True, 1.0])
def test_a_cached_index_does_not_skip_the_check(cached, value):
    legendre_poly(cached)  # a key that True and 1.0 compare equal to
    with pytest.raises(ValueError, match=f"Legendre index {value!r} is not an integer"):
        legendre_poly(value)


def test_records_store_int():
    spec = KernelSpec(np.int64(2), [np.int64(1), 0])
    assert spec == KernelSpec(2, (1, 0))
    assert type(spec.k) is int and type(spec.weights) is tuple
    assert all(type(l) is int for l in spec.weights)
    pattern = IndexPattern((np.int64(1), 2))
    assert all(type(c) is int for c in pattern.components)
    cfg = SimConfig(np.int64(8), np.int64(4), np.int64(3), DT)
    assert all(type(v) is int for v in (cfg.steps, cfg.paths, cfg.seed))
    assert type(Condition("pair_trig_dt3", 0.1, cap=np.int64(5)).cap) is int
    assert type(CoeffTensor(UNIT.spec, np.int64(1), UNIT.values).q) is int
    assert type(ScaledTensor(UNIT.spec, np.int64(1), 1.0, np.ones(2)).q) is int


def test_integer_like_seed_draws_the_same_stream():
    draws = draw_noise(3, 2, np.int64(7))
    assert type(draws.seed) is int
    assert np.array_equal(draws.zeta, draw_noise(3, 2, 7).zeta)
    assert draw_noise(3, 2, 2**128 - 1).zeta.shape == (2, 4)  # the largest Philox key


class FloatEntry(NamedTuple):
    name: str  # how the error message names the argument
    call: Callable  # the entry point, applied to the argument under test
    high: float = math.inf  # the open upper bound; every lower bound is 0


INTERVAL = "interval length"
PAIR = IndexPattern((1, 2))

FLOATS = {
    "scale_coeff": FloatEntry(INTERVAL, lambda v: scale_coeff(1, UNIT.spec, (0,), v)),
    "scaled_tensor": FloatEntry(INTERVAL, lambda v: scaled_tensor(UNIT, v)),
    "ScaledTensor": FloatEntry(INTERVAL, lambda v: ScaledTensor(UNIT.spec, 1, v, np.ones(2))),
    "kernel_norm": FloatEntry(INTERVAL, lambda v: kernel_norm(KernelSpec.unweighted(2), v)),
    "series_error": FloatEntry(INTERVAL, lambda v: series_error("pair_trig", 1, v)),
    "legendre_closed_single": FloatEntry(
        INTERVAL, lambda v: legendre_closed_single(1, 1, DRAWS, v)
    ),
    "legendre_double_series": FloatEntry(
        INTERVAL, lambda v: legendre_double_series((1, 0), PAIR, DRAWS, 1, v)
    ),
    "diagonal_trace": FloatEntry(INTERVAL, lambda v: diagonal_trace((1, 0), 1, v)),
    "pair_series_tensor": FloatEntry(INTERVAL, lambda v: pair_series_tensor((1, 0), 1, v)),
    "hermite_diagonal": FloatEntry(INTERVAL, lambda v: hermite_diagonal(3, 0, 1, DRAWS, v)),
    "ito_strat_convert": FloatEntry(
        INTERVAL, lambda v: ito_strat_convert(0.0, PAIR, (0, 0), v, "strat_to_ito")
    ),
    "trig_milstein": FloatEntry(INTERVAL, lambda v: trig_milstein("I00", PAIR, DRAWS, 1, v)),
    "SimConfig": FloatEntry(INTERVAL, lambda v: SimConfig(8, 4, 0, v)),
    "coupled_zeta": FloatEntry(INTERVAL, lambda v: coupled_zeta(SimConfig(16, 8, 0, v), 1, 2)),
    "Condition": FloatEntry("step size", lambda v: Condition("pair_trig_dt3", v), 1.0),
    "compute_q_table": FloatEntry("step size", lambda v: compute_q_table(37, dts=[v]), 1.0),
}

FLOAT_REFUSED = [
    pytest.param(key, value, id=f"{key}-{value!r}")
    for key, entry in FLOATS.items()
    for value in dict.fromkeys(
        (True, "0.5", None, Decimal("0.5"), math.nan, math.inf, -math.inf, 0.0, entry.high)
    )
]

FLOAT_ACCEPTED = [
    pytest.param(key, value, id=f"{key}-{value!r}")
    for key, entry in FLOATS.items()
    for value in (np.float64(0.5), Fraction(1, 2), 1)
    if value < entry.high
]


def _no_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew normals")

    monkeypatch.setattr(oracle, "_wiener_blocks", no_draws)


@pytest.mark.parametrize("key,value", FLOAT_REFUSED)
def test_float_refused_before_any_draw(key, value, monkeypatch):
    _no_draws(monkeypatch)
    entry = FLOATS[key]
    with pytest.raises(ValueError, match=f"^{entry.name} "):
        entry.call(value)


@pytest.mark.parametrize("key,value", FLOAT_ACCEPTED)
def test_real_value_is_accepted(key, value):
    FLOATS[key].call(value)


def test_records_store_float():
    for value in (np.float64(0.25), Fraction(1, 4), 1):
        assert type(SimConfig(8, 4, 0, value).dt) is float
        assert type(ScaledTensor(UNIT.spec, 1, value, np.ones(2)).dt) is float
        if value < 1:
            assert type(Condition("pair_trig_dt3", value).dt) is float


class NameEntry(NamedTuple):
    what: str  # the message reads "unknown <what> <value!r>; known: <the registry's keys>"
    call: Callable  # the entry point, applied to the name under test
    keys: tuple  # the registry's keys
    valid: str | int


NAMES = {
    "series_error": NameEntry(
        "series kind", lambda v: series_error(v, 1, DT), SERIES_KINDS, "pair_trig"
    ),
    "validate_expansion": NameEntry(
        "case",
        lambda v: validate_expansion(v, CFG, max_doublings=1, workers=1),
        tuple(VALIDATION_CASES),
        "pair_distinct",
    ),
    "trig_milstein": NameEntry(
        "kind", lambda v: trig_milstein(v, PAIR, DRAWS, 1, DT), tuple(_TRIG_KINDS), "I00"
    ),
    "Condition": NameEntry(
        "condition id", lambda v: Condition(v, 0.1), CONDITION_IDS, "pair_trig_dt3"
    ),
    "SimConfig": NameEntry(
        "calculus", lambda v: SimConfig(8, 4, 0, DT, v), ("ito", "strat"), "strat"
    ),
    "legendre_double_series": NameEntry(
        "calculus",
        lambda v: legendre_double_series((1, 0), PAIR, DRAWS, 1, DT, v),
        ("ito", "strat"),
        "ito",
    ),
    "hermite_diagonal": NameEntry(
        "calculus", lambda v: hermite_diagonal(3, 0, 1, DRAWS, DT, v), ("ito", "strat"), "ito"
    ),
    "ito_strat_convert": NameEntry(
        "direction",
        lambda v: ito_strat_convert(0.0, IndexPattern((1, 1)), (0, 0), DT, v, DRAWS),
        ("ito_to_strat", "strat_to_ito"),
        "strat_to_ito",
    ),
    "compute_coeff_table": NameEntry(
        "coefficient table", compute_coeff_table, tuple(COEFF_TABLES), 4
    ),
    "compute_error_table": NameEntry(
        "error table", lambda v: compute_error_table(v, qs=(1,)), tuple(ERROR_TABLES), 1
    ),
    "compute_q_table": NameEntry(
        "truncation-order table", lambda v: compute_q_table(v, dts=[0.03125]), tuple(Q_TABLES), 37
    ),
}

NAME_REFUSED = [
    pytest.param(key, value, id=f"{key}-{value!r}")
    for key, entry in NAMES.items()
    for value in ("nope", ["x"], True, *((4.0, 0) if isinstance(entry.valid, int) else ()))
]


def _listed(message: str) -> set[str]:
    """The keys a message lists after ``; known: ``, each ``a..b`` run read out."""
    listed = set()
    for part in message.split("; known: ")[1].split(", "):
        first, _, last = part.partition("..")
        listed |= {str(n) for n in range(int(first), int(last) + 1)} if last else {part}
    return listed


@pytest.mark.parametrize("key,value", NAME_REFUSED)
def test_unknown_name_refused_before_any_draw(key, value, monkeypatch):
    _no_draws(monkeypatch)
    entry = NAMES[key]
    with pytest.raises(ValueError, match=f"^unknown {entry.what} ") as info:
        entry.call(value)
    assert _listed(str(info.value)) == {str(k) for k in entry.keys}


@pytest.mark.parametrize("key", NAMES)
def test_name_like_value_is_accepted(key):
    entry = NAMES[key]
    like = np.int64 if isinstance(entry.valid, int) else np.str_
    entry.call(like(entry.valid))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["error-table", "--kind", "nope"], lambda: series_error("nope", 1, 1.0)),
        (["validate", "--case", "nope"], lambda: validate_expansion("nope", CFG)),
    ],
)
def test_the_parser_prints_the_library_message(argv, message, capsys):
    with pytest.raises(ValueError) as info:
        message()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(info.value).split("; known: ")[1] in err


@pytest.mark.parametrize(
    "command,registry",
    [("coeffs", COEFF_TABLES), ("error-table", ERROR_TABLES), ("q-table", Q_TABLES)],
)
def test_table_help_lists_the_registry(command, registry, capsys):
    assert main([command, "--help"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "--table TABLE " in l)
    listing = line.split("(")[1].rstrip(")")
    assert _listed("; known: " + listing) == {str(k) for k in registry}
