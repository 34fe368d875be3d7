"""Exact expansion coefficients: rational values, tensors, serialization."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.coeffs import (
    TENSOR_WORK_BUDGET,
    CoeffTensor,
    KernelSpec,
    TensorBudgetError,
    bar_coeff,
    coeff_tensor,
    scale_coeff,
    scaled_tensor,
    tensor_to_csv,
    tensor_to_json,
    _fiber_square_sum,
    _outer_series,
    _pair_bands,
    _tensor_chunks,
    _triple_square_sum,
)
from stochint import coeffs as coeffs_module
from stochint.errors import kernel_norm
from stochint.tables import compute_coeff_table

import fraction_reference
import trig_coeff_reference
import trig_quadrature_reference
from monomial_reference import monomial_bar
from trig_coeff_reference import _trig_bar, _trig_bars, trig_bar_levelwise, trig_coeff

# ---------------------------------------------------------------------------
# Independent oracle: nested Gauss-Legendre quadrature on the ordered
# simplex 0 < s_1 < ... < s_k < 1.  All integrands are polynomials, so a
# fixed 40-node rule per level is exact up to rounding.
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


def _gauss(f, a, b):
    half = (b - a) / 2.0
    return half * np.sum(_GL_W * f(a + half * (_GL_X + 1.0)))


def _phi(j, s):
    # Orthonormal shifted Legendre polynomial on [0, 1].
    return math.sqrt(2 * j + 1) * np.polynomial.legendre.legval(
        2.0 * np.asarray(s) - 1.0, [0.0] * j + [1.0]
    )


def bar_oracle(weights: tuple[int, ...], j: tuple[int, ...]) -> float:
    """Normalized coefficient by direct nested quadrature."""
    k = len(weights)
    total = sum(weights)

    def level(r: int, upper: float) -> float:
        def integrand(s):
            s = np.asarray(s)
            base = _phi(j[r], s) * (-s) ** weights[r]
            if r == 0:
                return base
            return base * np.array([level(r - 1, u) for u in np.atleast_1d(s)])

        return _gauss(integrand, 0.0, upper)

    integral = level(k - 1, 1.0)
    norm = 2.0 ** (total + k)
    for jr in j:
        norm /= math.sqrt(2 * jr + 1)
    return integral * norm


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(0, ())
        with pytest.raises(ValueError):
            KernelSpec(6, (0,) * 6)
        with pytest.raises(ValueError):
            KernelSpec(2, (0,))
        with pytest.raises(ValueError):
            KernelSpec(2, (0, -1))

    def test_helpers(self):
        spec = KernelSpec.unweighted(3)
        assert spec.weights == (0, 0, 0)
        assert spec.total_weight == 0
        assert KernelSpec(2, (1, 2)).total_weight == 3

    def test_scale_exponent(self):
        # dt exponent of the scaled coefficient: (2 sum(l) + k) / 2.
        assert KernelSpec(2, (0, 0)).scale_exponent == Fraction(1)
        assert KernelSpec(2, (1, 0)).scale_exponent == Fraction(2)
        assert KernelSpec(3, (0, 0, 0)).scale_exponent == Fraction(3, 2)


class TestBarCoeff:
    PAIR_CASES = [
        ((0, 0), (0, 0), Fraction(2)),
        ((0, 0), (1, 2), Fraction(2, 15)),
        ((1, 0), (0, 0), Fraction(-4, 3)),
        ((1, 0), (2, 1), Fraction(2, 15)),
        ((0, 1), (1, 1), Fraction(2, 15)),
        ((1, 1), (0, 2), Fraction(2, 5)),
        ((2, 0), (1, 3), Fraction(8, 105)),
    ]

    @pytest.mark.parametrize("weights,j,expected", PAIR_CASES)
    def test_pinned_pair_values(self, weights, j, expected):
        # Frozen after cross-checking against arbitrary-precision
        # quadrature of the defining simplex integral.
        assert bar_coeff(KernelSpec(2, weights), j) == expected

    @pytest.mark.parametrize(
        "weights,j",
        [
            ((0, 0), (0, 1)),
            ((0, 0), (3, 3)),
            ((1, 0), (1, 2)),
            ((0, 2), (2, 0)),
            ((0, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (1, 0, 2)),
            ((1, 0, 0), (0, 1, 1)),
            ((0, 0, 1), (2, 1, 0)),
        ],
    )
    def test_against_quadrature_oracle(self, weights, j):
        value = float(bar_coeff(KernelSpec(len(weights), weights), j))
        oracle = bar_oracle(weights, j)
        assert value == pytest.approx(oracle, rel=1e-11, abs=1e-13)

    def test_unweighted_triple_origin(self):
        assert bar_coeff(KernelSpec.unweighted(3), (0, 0, 0)) == Fraction(4, 3)

    def test_unweighted_pair_band_structure(self):
        # The unweighted pair grid is a single antisymmetric off-diagonal
        # band plus the origin: bar(i, i+1) = 2 / ((2i+1)(2i+3)),
        # bar(i+1, i) = -bar(i, i+1), everything else zero except (0, 0).
        spec = KernelSpec.unweighted(2)
        for i in range(6):
            expected = Fraction(2, (2 * i + 1) * (2 * i + 3))
            assert bar_coeff(spec, (i, i + 1)) == expected
            assert bar_coeff(spec, (i + 1, i)) == -expected
        for i in range(6):
            for j in range(6):
                if abs(i - j) != 1 and (i, j) != (0, 0):
                    assert bar_coeff(spec, (i, j)) == 0


class TestScaling:
    def test_known_scaled_values(self):
        dt = 0.7
        spec2 = KernelSpec.unweighted(2)
        assert scale_coeff(bar_coeff(spec2, (0, 0)), spec2, (0, 0), dt) == pytest.approx(
            dt / 2.0, rel=1e-15
        )
        spec3 = KernelSpec.unweighted(3)
        assert scale_coeff(
            bar_coeff(spec3, (0, 0, 0)), spec3, (0, 0, 0), dt
        ) == pytest.approx(dt**1.5 / 6.0, rel=1e-15)

    def test_scale_coeff_formula(self):
        # bar * dt**(L + k/2) / 2**(L + k) * prod(sqrt(2 j_r + 1)), in this
        # operation order, bit for bit.
        dt = 0.5
        spec = KernelSpec(2, (1, 0))
        bar = bar_coeff(spec, (1, 1))
        expected = float(bar) * dt**2.0 / 2**3 * (math.sqrt(3) * math.sqrt(3))
        assert scale_coeff(bar, spec, (1, 1), dt) == expected

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_interval(self, dt):
        spec = KernelSpec.unweighted(2)
        tensor = coeff_tensor(spec, 1)
        with pytest.raises(ValueError):
            scale_coeff(Fraction(2), spec, (0, 0), dt)
        with pytest.raises(ValueError):
            scaled_tensor(tensor, dt)
        with pytest.raises(ValueError):
            kernel_norm(spec, dt)

    def test_rejects_bad_index(self):
        # A short index once scaled as if the missing entries were absent (0.433...).
        spec = KernelSpec.unweighted(2)
        for j in ((1,), (0, 0, 0)):
            with pytest.raises(ValueError, match="multi-index length"):
                scale_coeff(Fraction(1), spec, j, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            scale_coeff(Fraction(1), spec, (0, -1), 1.0)

    def test_scaling_is_power_law_in_dt(self):
        spec = KernelSpec(2, (1, 0))
        bar = bar_coeff(spec, (2, 1))
        v1 = scale_coeff(bar, spec, (2, 1), 1.0)
        v2 = scale_coeff(bar, spec, (2, 1), 0.25)
        assert v2 == pytest.approx(v1 * 0.25**2, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.integers(1, 5).flatmap(
            lambda k: st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple)
        ),
        q=st.integers(0, 5),
        dt=st.floats(1e-6, 1e6),
    )
    def test_scaled_tensor_is_scale_coeff(self, weights, q, dt):
        # Bit for bit on every entry: one conversion from exact to float.
        tensor = _tensor(weights, q)
        values = scaled_tensor(tensor, dt).values
        for j in np.ndindex(*values.shape):
            assert values[j] == scale_coeff(tensor.values[tuple(j)], tensor.spec, j, dt)


@functools.lru_cache(maxsize=None)
def _tensor(weights: tuple[int, ...], q: int) -> CoeffTensor:
    return coeff_tensor(KernelSpec(len(weights), weights), q)


@st.composite
def spec_and_index(draw):
    k = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    j = tuple(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)))
    return KernelSpec(k, weights), j


class TestSeriesRoute:
    """The Legendre-series engine against the monomial-polynomial route."""

    @settings(max_examples=150, deadline=None)
    @given(spec_and_index())
    def test_bar_coeff_matches_monomial_route(self, case):
        spec, j = case
        assert bar_coeff(spec, j) == monomial_bar(spec.weights, j)

    @pytest.mark.parametrize(
        "weights,q",
        [((0, 0), 14), ((2, 1), 6), ((0, 0, 0), 5), ((1, 0, 2), 3), ((0, 1, 0, 0), 2),
         ((0,) * 5, 2)],
    )
    def test_tensor_matches_monomial_route(self, weights, q):
        tensor = coeff_tensor(KernelSpec(len(weights), weights), q)
        for j in itertools.product(range(q + 1), repeat=len(weights)):
            assert tensor.values[tuple(j)] == monomial_bar(weights, j)
            assert type(tensor.values[tuple(j)]) is Fraction


@st.composite
def spec_and_order(draw, max_entries: int = 400, max_weight: int = 3):
    k = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(0, max_weight), min_size=k, max_size=k)))
    q = draw(st.integers(0, int(round(max_entries ** (1 / k))) - 1))
    return KernelSpec(k, weights), q


class TestIntegerEngine:
    """The integer-scaled engine against the Fraction route, ``==`` cell by cell."""

    @settings(max_examples=60, deadline=None)
    @given(spec_and_order())
    def test_tensor_and_bar_coeff(self, case):
        spec, q = case
        values = coeff_tensor(spec, q).values
        expected = fraction_reference.coeff_tensor(spec, q)
        for j in np.ndindex(*values.shape):
            assert values[j] == expected[j] and type(values[j]) is Fraction
            assert bar_coeff(spec, j) == expected[j]

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        q=st.integers(0, 12),
    )
    def test_pair_band_rows(self, weights, q):
        bands, trace, _ = _pair_bands(weights, q)
        rows, expected_trace = fraction_reference.pair_band_rows(weights, q)
        assert [(b.offset, b.start, *b.exact) for b in bands] == rows
        assert trace == expected_trace

    @settings(max_examples=60, deadline=None)
    @given(spec_and_order(max_entries=50), st.data())
    def test_fiber_square_sum(self, case, data):
        spec, q = case
        prefix = tuple(data.draw(st.lists(st.integers(0, 6), min_size=spec.k - 1,
                                          max_size=spec.k - 1)))
        [(_, h)] = _outer_series(spec, [prefix])
        assert _fiber_square_sum(h, q) == fraction_reference.fiber_square_sum(spec, prefix, q)


class TestPrefixWalk:
    """``_outer_series`` reuses the levels a prefix shares with the one before it."""

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_any_order_matches_one_prefix_walks(self, weights, data):
        spec = KernelSpec(len(weights), tuple(weights))
        walks = ((_outer_series, spec.k - 1), (trig_coeff_reference._trig_walk, spec.k))
        for walk, longest in walks:
            prefix = st.lists(st.integers(0, 4), max_size=longest).map(tuple)
            prefixes = data.draw(st.lists(prefix, max_size=12))
            walked = list(walk(spec, prefixes))
            assert [p for p, _ in walked] == prefixes
            for p, h in walked:
                [(_, alone)] = walk(spec, [p])
                assert h == alone

    def test_series_steps(self, monkeypatch):
        # A step is one integration: one level of one prefix series.
        calls = 0
        integral = coeffs_module._integral

        def counted(series):
            nonlocal calls
            calls += 1
            return integral(series)

        monkeypatch.setattr(coeffs_module, "_integral", counted)
        compute_coeff_table(4)  # 7 x 7 cells with inner prefixes (col, row)
        assert calls == 7 + 49
        for weights, q in [((0, 0, 0), 6), ((1, 0, 0, 1), 3), ((0, 2), 5), ((3,), 4)]:
            calls = 0
            coeff_tensor(KernelSpec(len(weights), weights), q)
            assert calls == sum((q + 1) ** r for r in range(1, len(weights)))
        calls = 0
        _triple_square_sum(5)
        assert calls == 6 + 6**2

    @pytest.mark.parametrize("k, n", [(1, 9), (2, 7), (3, 5), (4, 3)])
    def test_trig_series_steps(self, k, n, monkeypatch):
        # A dense trig grid builds each shared level once; the levelwise route builds k per cell.
        calls = 0
        integral = trig_coeff_reference._trig_integral

        def counted(terms):
            nonlocal calls
            calls += 1
            return integral(terms)

        monkeypatch.setattr(trig_coeff_reference, "_trig_integral", counted)
        spec = KernelSpec.unweighted(k)
        cells = list(itertools.product(range(n), repeat=k))
        bars = [bar for _, bar in _trig_bars(spec, cells)]
        assert calls == sum(n**r for r in range(1, k + 1))
        calls = 0
        assert bars == [trig_bar_levelwise(spec, j) for j in cells]
        assert calls == k * n**k

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_trig_bars_match_levelwise_reference(self, data):
        k = data.draw(st.integers(1, 4))
        spec = KernelSpec(k, tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))))
        cell = st.lists(st.integers(0, 8), min_size=k, max_size=k).map(tuple)
        cells = data.draw(st.lists(cell, min_size=1, max_size=6))
        expected = [trig_bar_levelwise(spec, j) for j in cells]
        assert [bar for _, bar in _trig_bars(spec, cells)] == expected
        assert [_trig_bar(spec, j) for j in cells] == expected


class TestCoeffTensor:
    def test_entries_match_bar_coeff(self):
        spec = KernelSpec(2, (1, 0))
        tensor = coeff_tensor(spec, 4)
        assert tensor.q == 4
        for j in itertools.product(range(5), repeat=2):
            assert tensor.values[tuple(j)] == bar_coeff(spec, j)

    def test_determinism(self):
        spec = KernelSpec(2, (0, 1))
        a = coeff_tensor(spec, 5)
        b = coeff_tensor(spec, 5)
        assert np.array_equal(a.values, b.values)

    def test_budget_guard(self):
        assert 5 * (25 + 1) ** 5 > TENSOR_WORK_BUDGET
        with pytest.raises(TensorBudgetError):
            coeff_tensor(KernelSpec.unweighted(5), 25)

    @pytest.mark.parametrize("k,q", [(3, 199), (5, 25), (4, 40), (2, 2000), (1, 10**7)])
    def test_budget_refuses_before_any_work(self, k, q, monkeypatch):
        def no_work():
            raise AssertionError("the engine started")

        monkeypatch.setattr("stochint.coeffs._product_rows", no_work)
        with pytest.raises(TensorBudgetError):
            coeff_tensor(KernelSpec.unweighted(k), q)
        with pytest.raises(TensorBudgetError):  # the streamed text refuses when it is asked for
            _tensor_chunks(KernelSpec.unweighted(k), q, "csv")

    @pytest.mark.parametrize("k,q", [(1, 2000), (2, 400), (3, 60), (3, 100), (4, 15), (5, 10)])
    def test_budget_admits(self, k, q):
        # Sizes whose build and serialisation were timed when the budget was fitted.
        assert k * (q + 1) ** k <= TENSOR_WORK_BUDGET

    def test_float_values_and_truncation(self):
        spec = KernelSpec.unweighted(2)
        tensor = coeff_tensor(spec, 5)
        floats = tensor.float_values()
        assert floats[1, 0] == pytest.approx(float(tensor.values[1, 0]), rel=1e-15)
        st = scaled_tensor(tensor, 0.5)
        assert st.truncated(2).shape == (3, 3)
        assert st.truncated(5).shape == (6, 6)
        with pytest.raises(ValueError):
            st.truncated(6)
        for q in (-1, -2):  # not read from the end
            with pytest.raises(ValueError, match=f"truncation order {q} is outside 0..5"):
                st.truncated(q)
        assert np.array_equal(st.truncated(), st.values)  # the tensor's own order

    def test_parseval_partial_sums(self):
        # Retained squared mass grows with q and never exceeds the
        # squared kernel norm.
        dt = 0.5
        spec = KernelSpec.unweighted(2)
        st = scaled_tensor(coeff_tensor(spec, 30), dt)
        norm = kernel_norm(spec, dt)
        masses = []
        for q in range(0, 31, 5):
            vals = st.truncated(q)
            masses.append(float(np.sum(vals * vals)))
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < norm
        assert masses[-1] > 0.95 * norm


class TestTrigCoeff:
    def test_matches_legendre_route_origin(self):
        # Constant-basis-function entry is basis independent.
        spec = KernelSpec.unweighted(2)
        assert trig_coeff(spec, (0, 0), 0.7) == pytest.approx(0.7 / 2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "weights,j,expected",
        [
            ((0, 0), (1, 2), -0.1114084602),
            ((0, 0), (1, 0), 0.1575553553),
            ((0, 0), (3, 4), -0.0557042301),
            ((1, 0), (0, 1), 0.0551443744),
        ],
    )
    def test_pinned_values(self, weights, j, expected):
        # Frozen after cross-checking against arbitrary-precision
        # quadrature with the sine/cosine basis.
        value = trig_coeff(KernelSpec(2, weights), j, 0.7)
        assert value == pytest.approx(expected, abs=5e-11)

    def test_antisymmetric_frequency_block(self):
        # Swapping indices of a sine/cosine pair of one frequency flips
        # the sign of the off-diagonal part at equal frequency.
        spec = KernelSpec.unweighted(2)
        c12 = trig_coeff(spec, (1, 2), 1.0)
        c21 = trig_coeff(spec, (2, 1), 1.0)
        assert c12 == pytest.approx(-c21, rel=1e-10)


class TestExactTrig:
    """``trig_coeff`` is the float value of the exact ``_trig_bar`` in Q[1/pi]."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_quadrature_reference(self, data):
        k = data.draw(st.integers(1, 4))
        spec = KernelSpec(k, tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))))
        j = tuple(data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)))
        reference = trig_quadrature_reference.trig_coeff(spec, j, 1.0)
        assert trig_coeff(spec, j, 1.0) == pytest.approx(reference, rel=0, abs=1e-12)

    def test_exact_spot_values(self):
        # -1/(2 pi) after normalisation: bar * 2 (two sqrt(2)) / 2**(L + k).
        assert _trig_bar(KernelSpec.unweighted(2), (1, 2)) == (0, -1)
        assert trig_coeff(KernelSpec.unweighted(2), (1, 2), 1.0) == -1 / (2 * math.pi)
        # The constant entry is basis independent: the Legendre bar.
        weighted = KernelSpec(2, (1, 0))
        assert _trig_bar(weighted, (0, 0)) == (bar_coeff(weighted, (0, 0)),)
        # Frequency 20 cannot cancel against 1 + 2 + 3: the coefficient is exactly zero.
        assert all(c == 0 for c in _trig_bar(KernelSpec.unweighted(4), (20, 1, 2, 3)))
        assert trig_coeff(KernelSpec.unweighted(4), (20, 1, 2, 3), 1.0) == 0.0

    def test_scaling_law(self):
        # One interval scaling: C(dt) = dt**(L + k/2) * C(1), through scale_coeff's law.
        spec, j = KernelSpec(3, (1, 0, 2)), (2, 0, 5)
        bar = math.fsum(float(c) / math.pi**p for p, c in enumerate(_trig_bar(spec, j)))
        expected = bar * 0.3**spec.scale_exponent / 2 ** (spec.total_weight + spec.k) * 2.0
        assert trig_coeff(spec, j, 0.3) == expected

    def test_rejects_bad_arguments(self):
        spec = KernelSpec.unweighted(2)
        for j, dt in (((1,), 1.0), ((1, -1), 1.0), ((1, 2), 0.0), ((1, 2), math.nan)):
            with pytest.raises(ValueError):
                trig_coeff(spec, j, dt)

    @pytest.mark.parametrize(
        "weights, j", [((0, 0), (1, 2)), ((1, 0), (0, 1)), ((2, 1), (3, 4))]
    )
    def test_matches_sympy_nested_integral(self, weights, j):
        sympy = pytest.importorskip("sympy")
        spec = KernelSpec(2, weights)
        u = sympy.symbols("u0:3")
        inner = sympy.Integer(1)
        for r, (l, idx) in enumerate(zip(spec.weights, j)):
            f = (idx + 1) // 2
            phi = 1 if idx == 0 else (sympy.sin if idx % 2 else sympy.cos)(2 * sympy.pi * f * u[r])
            upper = u[r + 1] if r < spec.k - 1 else 1
            inner = sympy.integrate(u[r] ** l * phi * inner, (u[r], 0, upper))
        expected = (-2) ** spec.total_weight * 2**spec.k * inner
        exact = sum(sympy.Rational(c.numerator, c.denominator) / sympy.pi**p
                    for p, c in enumerate(_trig_bar(spec, j)))
        assert sympy.simplify(expected - exact) == 0


class TestSerialization:
    def test_json_schema_and_roundtrip(self):
        spec = KernelSpec(2, (1, 0))
        tensor = coeff_tensor(spec, 2)
        doc = json.loads(tensor_to_json(tensor))
        assert doc["k"] == 2
        assert doc["weights"] == [1, 0]
        assert doc["q"] == 2
        assert doc["index_order"] == "innermost_first"
        assert len(doc["entries"]) == 9
        for entry in doc["entries"]:
            j = tuple(entry["j"])
            expected = tensor.values[j]
            assert Fraction(entry["num"], entry["den"]) == expected
            assert entry["float"] == pytest.approx(float(expected), rel=1e-15)

    def test_json_deterministic(self):
        tensor = coeff_tensor(KernelSpec.unweighted(2), 3)
        assert tensor_to_json(tensor) == tensor_to_json(tensor)

    @pytest.mark.parametrize(
        "weights,q",
        [((0,), 0), ((3,), 4), ((0, 0), 0), ((1, 0), 5), ((0, 2), 7), ((0, 0, 0), 4),
         ((2, 1, 0), 3), ((0, 1, 0, 0), 2), ((0,) * 5, 1)],
    )
    def test_writers_match_library_serializers(self, weights, q):
        # The direct writers against json.dumps and csv.writer on the same
        # document, negative numerators included.
        tensor = coeff_tensor(KernelSpec(len(weights), weights), q)
        cells = [(list(j), tensor.values[tuple(j)]) for j in np.ndindex(*tensor.values.shape)]
        assert q == 0 or any(v < 0 for _, v in cells)
        doc = {
            "k": len(weights), "weights": list(weights), "q": q,
            "index_order": "innermost_first",
            "entries": [
                {"j": j, "num": v.numerator, "den": v.denominator, "float": float(v)}
                for j, v in cells
            ],
        }
        assert tensor_to_json(tensor) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"j{i + 1}" for i in range(len(weights))] + ["bar"])
        writer.writerows(j + [f"{v.numerator}/{v.denominator}"] for j, v in cells)
        assert tensor_to_csv(tensor) == buf.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(spec_and_order(max_weight=2))
    def test_streamed_text_matches_serializers(self, case):
        # The text export streams from the walk, fiber by fiber, without a tensor.
        spec, q = case
        tensor = coeff_tensor(spec, q)
        assert "".join(_tensor_chunks(spec, q, "json")) == tensor_to_json(tensor)
        assert "".join(_tensor_chunks(spec, q, "csv")) == tensor_to_csv(tensor)

    def test_csv_cells(self):
        spec = KernelSpec.unweighted(2)
        tensor = coeff_tensor(spec, 1)
        lines = tensor_to_csv(tensor).splitlines()
        assert lines[0] == "j1,j2,bar"
        assert lines[1] == "0,0,2/1"
        cells = {
            tuple(map(int, line.split(",")[:2])): line.split(",")[2]
            for line in lines[1:]
        }
        for j, cell in cells.items():
            num, den = cell.split("/")
            assert Fraction(int(num), int(den)) == tensor.values[tuple(j)]
