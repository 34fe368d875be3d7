"""One integer rule at every library boundary.

Each entry point that takes an integer (an order, count, index, label,
weight or seed) refuses ``1.5``, ``True`` and the values just outside its
range with a ``ValueError`` that names the argument, and accepts an
integer-like ``np.int64``.  The oracle entry points refuse before drawing
a single normal, and the records that keep their integers keep ``int``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pytest

from stochint import oracle
from stochint.basis import legendre_poly, product_expand
from stochint.coeffs import CoeffTensor, KernelSpec, ScaledTensor, bar_coeff, coeff_tensor
from stochint.errors import IndexPattern
from stochint.expansion import (
    draw_noise,
    hermite_diagonal,
    legendre_closed_single,
    legendre_double_series,
)
from stochint.oracle import SimConfig, coupled_zeta, validate_expansion, worker_count
from stochint.qselect import Condition

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
