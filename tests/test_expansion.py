"""Truncated Gaussian expansions: product sums, closed forms, conversion."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.coeffs import (
    KernelSpec,
    _pair_bands,
    bar_coeff,
    coeff_tensor,
    scale_coeff,
    scaled_tensor,
)
from stochint.errors import SERIES_KINDS, exact_error, series_error
from stochint.expansion import (
    DOUBLE_SERIES_WEIGHTS,
    IndexPattern,
    NoiseDraws,
    diagonal_trace,
    draw_noise,
    hermite_diagonal,
    ito_expansion,
    ito_strat_convert,
    legendre_closed_single,
    legendre_double_series,
    pair_series_tensor,
    strat_expansion,
    trig_milstein,
)

from conversion_reference import hermite_ito, pair_shift, quadruple_shift, triple_shift
from pair_series_reference import HAND_FORMS, pair_series_support
from single_form_reference import single_form
from trig_coeff_reference import trig_coeff
import trig_milstein_reference

DT = 0.6


def batched_draws(seeds, q_max: int, m: int) -> NoiseDraws:
    """Stack per-seed Gaussian tables along a batch axis (m, batch, q+1)."""
    zeta = np.stack([draw_noise(q_max, m, s).zeta for s in seeds], axis=1)
    return NoiseDraws(zeta=zeta, xi=None, mu=None, seed=min(seeds))


class TestNoiseDraws:
    def test_validation(self):
        with pytest.raises(ValueError):
            draw_noise(q_max=-1, m=1, seed=0)
        with pytest.raises(ValueError):
            draw_noise(q_max=3, m=0, seed=0)
        with pytest.raises(ValueError):
            IndexPattern(())
        with pytest.raises(ValueError):
            IndexPattern((0, 1))

    def test_shapes_and_properties(self):
        draws = draw_noise(q_max=5, m=3, seed=42)
        assert draws.zeta.shape == (3, 6)
        assert draws.m == 3
        assert draws.q_max == 5
        assert draws.xi.shape == (3,)
        assert draws.mu.shape == (3,)

    def test_row_bounds(self):
        draws = draw_noise(q_max=4, m=2, seed=1)
        assert draws.row(1, 5).shape == (5,)
        with pytest.raises(ValueError):
            draws.row(3, 2)
        with pytest.raises(ValueError):
            draws.row(1, 6)

    def test_determinism_and_tail_invariance(self):
        a = draw_noise(q_max=6, m=2, seed=7)
        b = draw_noise(q_max=6, m=2, seed=7)
        assert np.array_equal(a.zeta, b.zeta)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.mu, b.mu)
        # zeta is the stream's first draw, so the tail variables after it leave it as it was.
        gen = np.random.Generator(np.random.Philox(key=7))
        assert np.array_equal(a.zeta, gen.standard_normal((2, 7)))
        assert np.array_equal(a.xi, gen.standard_normal(2))
        assert np.array_equal(a.mu, gen.standard_normal(2))
        assert not np.array_equal(a.zeta, draw_noise(q_max=6, m=2, seed=8).zeta)

    def test_moments(self):
        # Pooled Gaussians over many seeds: mean 0, variance 1.
        zeta = np.concatenate(
            [draw_noise(q_max=9, m=2, seed=s).zeta.ravel() for s in range(200)]
        )
        n = zeta.size
        assert abs(zeta.mean()) < 4.0 / math.sqrt(n)
        assert abs(zeta.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)


class TestClosedSingles:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_variance_identity(self, l):
        # The squared coefficients of the exact single integral sum to
        # its second moment dt^(2l+1) / (2l + 1).
        unit = []
        for j in range(l + 1):
            zeta = np.zeros((1, l + 1))
            zeta[0, j] = 1.0
            draws = NoiseDraws(zeta=zeta, xi=None, mu=None, seed=0)
            unit.append(legendre_closed_single(l, 1, draws, DT))
        total = sum(c * c for c in unit)
        assert total == pytest.approx(DT ** (2 * l + 1) / (2 * l + 1), rel=1e-13)

    def test_leading_forms(self):
        draws = draw_noise(q_max=3, m=1, seed=2)
        z = draws.zeta[0]
        assert legendre_closed_single(0, 1, draws, DT) == pytest.approx(
            math.sqrt(DT) * z[0], rel=1e-14
        )
        expected1 = -(DT**1.5) / 2.0 * (z[0] + z[1] / math.sqrt(3.0))
        assert legendre_closed_single(1, 1, draws, DT) == pytest.approx(
            expected1, rel=1e-14
        )

    def test_unsupported_weight(self):
        draws = draw_noise(q_max=5, m=1, seed=0)
        with pytest.raises(ValueError):
            legendre_closed_single(4, 1, draws, DT)

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf, 1e300])
    def test_rejects_bad_interval(self, dt):
        # Every expansion that takes dt checks it, and a power of dt that
        # overflows (each call below raises one at 1e300) is not finite.
        draws = draw_noise(q_max=8, m=2, seed=0)
        calls = [
            lambda: legendre_closed_single(3, 1, draws, dt),
            lambda: legendre_double_series((1, 0), IndexPattern((1, 2)), draws, 2, dt),
            lambda: diagonal_trace((1, 0), 2, dt),
            lambda: pair_series_tensor((1, 0), 2, dt),
            lambda: hermite_diagonal(3, 1, 1, draws, dt),
            lambda: ito_strat_convert(0.0, IndexPattern((1, 1)), (1, 1), dt, "strat_to_ito", draws),
            lambda: trig_milstein("I1", IndexPattern((1,)), draws, 2, dt),
            lambda: trig_milstein("I2", IndexPattern((1,)), draws, 2, dt),
        ]
        if dt == 1e300:
            match = "not finite"
        else:  # these raise no power of dt that overflows at 1e300
            match = "interval length"
            calls += [
                lambda: trig_milstein("I00", IndexPattern((1, 2)), draws, 2, dt),
                lambda: ito_strat_convert(0.0, IndexPattern((1, 1)), (0, 0), dt, "strat_to_ito"),
                lambda: ito_strat_convert(0.0, IndexPattern((1, 2)), (0, 0), dt, "strat_to_ito"),
            ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()

    def test_batched(self):
        seeds = [5, 6, 7]
        batch = batched_draws(seeds, q_max=3, m=1)
        values = legendre_closed_single(1, 1, batch, DT)
        singles = [
            legendre_closed_single(1, 1, draw_noise(3, 1, s), DT) for s in seeds
        ]
        assert np.allclose(values, singles, rtol=0, atol=0)

    @pytest.mark.parametrize("dt", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_matches_hand_forms(self, l, dt):
        # The exact route agrees with the hand-written table it replaced.
        batch = batched_draws(range(200, 264), q_max=3, m=1)
        single = draw_noise(3, 1, seed=9)
        for draws in (batch, single):
            value = legendre_closed_single(l, 1, draws, dt)
            ref = single_form(l, draws.zeta[0], dt)
            assert np.shape(value) == np.shape(ref)
            assert np.max(np.abs(value - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestTensorExpansions:
    def test_distinct_components_have_no_corrections(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 4), DT)
        draws = draw_noise(q_max=6, m=3, seed=8)
        pattern = IndexPattern((1, 2, 3))
        for q in range(5):
            assert ito_expansion(tensor, pattern, draws, q) == strat_expansion(
                tensor, pattern, draws, q
            )

    def test_pair_matches_manual_wick(self):
        spec = KernelSpec.unweighted(2)
        tensor = scaled_tensor(coeff_tensor(spec, 5), DT)
        draws = draw_noise(q_max=6, m=2, seed=19)
        for q in (0, 2, 5):
            grid = tensor.truncated(q)
            z1 = draws.zeta[0, : q + 1]
            z2 = draws.zeta[1, : q + 1]
            plain = float(z1 @ grid @ z2)
            assert strat_expansion(
                tensor, IndexPattern((1, 2)), draws, q
            ) == pytest.approx(plain, rel=1e-13)
            equal_plain = float(z1 @ grid @ z1)
            trace = float(np.trace(grid))
            assert ito_expansion(
                tensor, IndexPattern((1, 1)), draws, q
            ) == pytest.approx(equal_plain - trace, rel=1e-12)

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_all_equal_triple_is_hermite_form(self, q):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 8), DT)
        draws = draw_noise(q_max=10, m=1, seed=5)
        pattern = IndexPattern((1, 1, 1))
        single = legendre_closed_single(0, 1, draws, DT)
        strat = strat_expansion(tensor, pattern, draws, q)
        assert strat == pytest.approx(single**3 / 6.0, rel=1e-12)
        assert strat == pytest.approx(
            hermite_diagonal(3, 0, 1, draws, DT, "strat"), rel=1e-12
        )
        assert ito_expansion(tensor, pattern, draws, q) == pytest.approx(
            hermite_diagonal(3, 0, 1, draws, DT, "ito"), rel=1e-12
        )

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_all_equal_quadruple_is_hermite_form(self, q):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(4), 6), DT)
        draws = draw_noise(q_max=10, m=1, seed=5)
        pattern = IndexPattern((1, 1, 1, 1))
        assert strat_expansion(tensor, pattern, draws, q) == pytest.approx(
            hermite_diagonal(4, 0, 1, draws, DT, "strat"), rel=1e-12
        )
        assert ito_expansion(tensor, pattern, draws, q) == pytest.approx(
            hermite_diagonal(4, 0, 1, draws, DT, "ito"), rel=1e-12
        )

    def test_truncation_beyond_tensor_rejected(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 3), DT)
        draws = draw_noise(q_max=6, m=2, seed=1)
        with pytest.raises(ValueError):
            ito_expansion(tensor, IndexPattern((1, 2)), draws, 4)

    @pytest.mark.parametrize("q", [-1, -2])
    @pytest.mark.parametrize("expansion", [ito_expansion, strat_expansion])
    def test_negative_order_rejected(self, expansion, q):
        # A negative order once sliced from the end: q = -2 read order 2 of this tensor.
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 3), DT)
        draws = draw_noise(q_max=6, m=2, seed=1)
        with pytest.raises(ValueError, match=f"truncation order {q} is outside 0..3"):
            expansion(tensor, IndexPattern((1, 2)), draws, q)

    @pytest.mark.parametrize(
        "weights,components",
        [((0, 0), (1, 1)), ((1, 0), (1, 2)), ((1, 0, 0), (1, 2, 3)), ((1, 0, 0), (1, 1, 2)),
         ((0, 0, 0), (1, 1, 1))],
    )
    def test_batch_equals_loop_over_single_draws(self, weights, components):
        spec = KernelSpec(len(weights), weights)
        tensor = scaled_tensor(coeff_tensor(spec, 4), DT)
        pattern = IndexPattern(components)
        seeds = [3, 4, 5]
        batch = batched_draws(seeds, q_max=6, m=3)
        for expand in (strat_expansion, ito_expansion):
            values = expand(tensor, pattern, batch, 4)
            singles = [expand(tensor, pattern, draw_noise(6, 3, s), 4) for s in seeds]
            assert all(type(v) is float for v in singles)
            assert values.shape == (3,)
            assert values == pytest.approx(singles, rel=1e-12)

    def test_second_moment_matches_parseval_mass(self):
        # Statistical check of the distinct-pair truncated expansion:
        # its variance equals the retained squared coefficient mass.
        q = 3
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), q), DT)
        grid = tensor.truncated(q)
        mass = float(np.sum(grid * grid))
        n = 4000
        values = np.empty(n)
        for s in range(n):
            draws = draw_noise(q_max=q, m=2, seed=50_000 + s)
            values[s] = strat_expansion(tensor, IndexPattern((1, 2)), draws, q)
        second = float(np.mean(values**2))
        stderr = float(np.std(values**2, ddof=1)) / math.sqrt(n)
        assert abs(second - mass) < 4.0 * stderr


class TestDiagonalTrace:
    def test_exact_low_order_values(self):
        # Frozen exact rational partial traces (dt = 1).
        assert diagonal_trace((0, 0), 0, 1.0) == pytest.approx(0.5, abs=0)
        assert diagonal_trace((0, 0), 7, 1.0) == pytest.approx(0.5, abs=0)
        assert diagonal_trace((1, 0), 0, 1.0) == pytest.approx(-1.0 / 6.0, rel=1e-15)
        assert diagonal_trace((1, 0), 1, 1.0) == pytest.approx(-13.0 / 60.0, rel=1e-15)
        assert diagonal_trace((1, 0), 3, 1.0) == pytest.approx(-59.0 / 252.0, rel=1e-15)
        # At q = 0 the (1, 1) series keeps C_11 too: 1/8 + 1/24.
        assert diagonal_trace((1, 1), 0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert diagonal_trace((1, 1), 1, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert diagonal_trace((1, 1), 6, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert diagonal_trace((0, 2), 0, 1.0) == pytest.approx(1.0 / 4.0, rel=1e-15)
        assert diagonal_trace((0, 2), 2, 1.0) == pytest.approx(79.0 / 420.0, rel=1e-15)

    def test_limits_are_conversion_constants(self):
        # sum_{i <= q} C_ii -> (1/2) int_0^dt w1 w2 ds as q grows.
        dt = 0.8
        targets = {
            (1, 0): -(dt**2) / 4.0,
            (0, 1): -(dt**2) / 4.0,
            (2, 0): dt**3 / 6.0,
            (0, 2): dt**3 / 6.0,
        }
        for weights, limit in targets.items():
            near = diagonal_trace(weights, 40, dt)
            far = diagonal_trace(weights, 5, dt)
            assert abs(near - limit) < abs(far - limit)
            assert near == pytest.approx(limit, rel=2e-2)

    def test_scaling(self):
        assert diagonal_trace((1, 0), 4, 0.5) == pytest.approx(
            diagonal_trace((1, 0), 4, 1.0) * 0.25, rel=1e-14
        )


class TestDoubleSeries:
    def test_validation(self):
        draws = draw_noise(q_max=8, m=2, seed=0)
        with pytest.raises(ValueError):
            legendre_double_series((3, 0), IndexPattern((1, 2)), draws, 1, DT)
        with pytest.raises(ValueError):
            legendre_double_series((0, 0), IndexPattern((1, 2, 3)), draws, 1, DT)
        with pytest.raises(ValueError):
            legendre_double_series((0, 0), IndexPattern((1, 2)), draws, -1, DT)
        with pytest.raises(ValueError):
            legendre_double_series((0, 0), IndexPattern((1, 2)), draws, 1, DT, "both")

    def test_supported_weights(self):
        assert set(DOUBLE_SERIES_WEIGHTS) == {
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (2, 0),
            (0, 2),
        }

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_unweighted_equals_truncated_contraction(self, q):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), q), DT)
        grid = tensor.truncated(q)
        draws = draw_noise(q_max=q + 1, m=2, seed=21)
        z1 = draws.zeta[0, : q + 1]
        z2 = draws.zeta[1, : q + 1]
        series = legendre_double_series((0, 0), IndexPattern((1, 2)), draws, q, DT)
        assert series == pytest.approx(float(z1 @ grid @ z2), rel=1e-13)

    @pytest.mark.parametrize("weights", [(1, 0), (0, 1)])
    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_single_weight_equals_masked_contraction(self, weights, q):
        # The contraction of the dense view is the banded series.
        view = pair_series_tensor(weights, q, DT).values
        draws = draw_noise(q_max=q + 3, m=2, seed=33)
        z1 = draws.zeta[0, : q + 3]
        z2 = draws.zeta[1, : q + 3]
        series = legendre_double_series(weights, IndexPattern((1, 2)), draws, q, DT)
        assert series == pytest.approx(float(z1 @ view @ z2), rel=1e-12)

    def test_double_weight_boundary_is_adjusted(self):
        # The (2, 0) form keeps an outermost off-diagonal cell with a
        # value different from the plain coefficient; the plain masked
        # contraction therefore does not reproduce it.
        q = 1
        spec = KernelSpec(2, (2, 0))
        tensor = scaled_tensor(coeff_tensor(spec, q + 3), DT)
        n = q + 4
        eff = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                zeta = np.zeros((2, n))
                zeta[0, i] = 1.0
                zeta[1, j] = 1.0
                draws = NoiseDraws(zeta=zeta, xi=None, mu=None, seed=0)
                eff[i, j] = legendre_double_series(
                    (2, 0), IndexPattern((1, 2)), draws, q, DT
                )
        full = tensor.truncated(q + 3)
        boundary = (q, q + 1)
        assert eff[boundary] != pytest.approx(full[boundary], rel=1e-6)
        # Interior cells agree with the plain coefficients.
        assert eff[0, 0] == pytest.approx(full[0, 0], rel=1e-12)
        assert eff[0, 2] == pytest.approx(full[0, 2], rel=1e-12)

    @pytest.mark.parametrize("weights", DOUBLE_SERIES_WEIGHTS)
    def test_dense_view_expansions_match_band_evaluator(self, weights):
        # The Wick evaluator on the dense view and the band evaluator sum
        # the same series, in both calculi.
        seeds = range(60, 68)
        batch = batched_draws(seeds, q_max=12, m=2)
        singles = [draw_noise(12, 2, s) for s in seeds]
        for q in range(9):
            view = pair_series_tensor(weights, q, DT)
            for pattern in (IndexPattern((1, 2)), IndexPattern((2, 2))):
                for calculus, expand in (("strat", strat_expansion), ("ito", ito_expansion)):
                    band = legendre_double_series(weights, pattern, batch, q, DT, calculus)
                    wick = [expand(view, pattern, d, view.q) for d in singles]
                    assert band == pytest.approx(wick, rel=1e-12)

    def test_ito_subtracts_retained_trace(self):
        draws = draw_noise(q_max=9, m=1, seed=3)
        pattern = IndexPattern((1, 1))
        for weights in DOUBLE_SERIES_WEIGHTS:
            for q in (0, 2, 5):
                strat = legendre_double_series(weights, pattern, draws, q, DT, "strat")
                ito = legendre_double_series(weights, pattern, draws, q, DT, "ito")
                assert strat - ito == pytest.approx(
                    diagonal_trace(weights, q, DT), rel=1e-12, abs=1e-15
                )

    def test_ito_equals_strat_for_distinct(self):
        draws = draw_noise(q_max=9, m=2, seed=3)
        pattern = IndexPattern((1, 2))
        for weights in DOUBLE_SERIES_WEIGHTS:
            assert legendre_double_series(
                weights, pattern, draws, 3, DT, "ito"
            ) == legendre_double_series(weights, pattern, draws, 3, DT, "strat")

    def test_batched_matches_scalar(self):
        seeds = [11, 22, 33, 44]
        batch = batched_draws(seeds, q_max=9, m=2)
        for weights in [(0, 0), (1, 0), (1, 1)]:
            for pattern, calculus in [
                (IndexPattern((1, 2)), "strat"),
                (IndexPattern((1, 1)), "ito"),
            ]:
                vb = legendre_double_series(weights, pattern, batch, 4, DT, calculus)
                vs = [
                    legendre_double_series(
                        weights, pattern, draw_noise(9, 2, s), 4, DT, calculus
                    )
                    for s in seeds
                ]
                assert np.array_equal(vb, np.array(vs))


class TestBandTable:
    """The band table reproduces the hand-written pair series it replaced."""

    @pytest.mark.parametrize("dt", [0.37, 1.0, 2.5])
    @pytest.mark.parametrize("weights", DOUBLE_SERIES_WEIGHTS)
    def test_matches_hand_forms(self, weights, dt):
        form, reach = HAND_FORMS[weights]
        batch = batched_draws(range(100, 132), q_max=25 + reach, m=2)
        single = draw_noise(25 + reach, 2, seed=7)
        worst = 0.0
        for q in range(26):
            assert _pair_bands(weights, q)[2] == q + reach
            for draws in (batch, single):
                for comps in ((1, 2), (1, 1), (2, 1)):
                    z1, z2 = (draws.zeta[c - 1] for c in comps)
                    ref = form(z1, z2, q, dt)
                    value = legendre_double_series(weights, IndexPattern(comps), draws, q, dt)
                    assert np.shape(value) == np.shape(ref)
                    rel = np.max(np.abs(value - ref)) / np.max(np.abs(ref))
                    worst = max(worst, float(rel))
        assert worst <= 1e-13

    @pytest.mark.parametrize("weights", DOUBLE_SERIES_WEIGHTS)
    def test_diagonal_is_the_old_trace(self, weights):
        spec = KernelSpec(2, weights)
        scale = Fraction(1, 2 ** (sum(weights) + 2))
        for q in range(13):
            bands, trace, _ = _pair_bands(weights, q)
            (diagonal,) = [b for b in bands if b.offset == 0]
            band_sum = sum(
                ((2 * a + 1) * c for a, c in enumerate(diagonal.exact[0], diagonal.start)),
                Fraction(0),
            )
            # The (1, 1) series keeps its (1, 1) cell at q = 0 as well.
            top = 1 if (weights, q) == ((1, 1), 0) else q
            old = sum(
                ((2 * i + 1) * bar_coeff(spec, (i, i)) for i in range(top + 1)), Fraction(0)
            )
            assert band_sum * scale == old * scale == trace

    @pytest.mark.parametrize("weights", DOUBLE_SERIES_WEIGHTS)
    def test_ito_mean_is_zero(self, weights):
        # Exactly: the kept diagonal cells at dt = 1 sum to the trace the
        # Ito series subtracts.  In floats: the series is a quadratic form
        # z M z, its Stratonovich mean is the sum of M_aa, read off unit
        # draws, and the Ito series subtracts the same sum.
        scale = Fraction(1, 2 ** (sum(weights) + 2))
        for q in range(13):
            bands, trace, needed = _pair_bands(weights, q)
            kept = sum(
                (
                    (2 * a + 1) * c
                    for band in bands
                    if band.offset == 0
                    for a, c in enumerate(band.exact[0], band.start)
                ),
                Fraction(0),
            )
            assert kept * scale - trace == 0
            unit = NoiseDraws(zeta=np.eye(needed)[None], xi=None, mu=None, seed=0)
            pattern = IndexPattern((1, 1))
            strat = legendre_double_series(weights, pattern, unit, q, DT, "strat")
            ito = legendre_double_series(weights, pattern, unit, q, DT, "ito")
            trace_dt = diagonal_trace(weights, q, DT)
            assert math.fsum(strat) == pytest.approx(trace_dt, rel=1e-14)
            assert np.allclose(ito, strat - trace_dt, rtol=0, atol=0)

    @pytest.mark.parametrize("weights", DOUBLE_SERIES_WEIGHTS)
    def test_unit_cells_are_scale_coeff(self, weights):
        spec = KernelSpec(2, weights)
        for q in range(13):
            for band in _pair_bands(weights, q)[0]:
                d = band.offset
                upper, lower = band.exact
                for i, a in enumerate(range(band.start, band.start + len(upper))):
                    fold = upper[i] + lower[i]
                    assert band.unit[0, i] == scale_coeff(upper[i], spec, (a, a + d), 1.0)
                    assert band.unit[1, i] == scale_coeff(lower[i], spec, (a + d, a), 1.0)
                    assert band.unit[2, i] == scale_coeff(fold, spec, (a, a + d), 1.0)

    def test_cache_is_bounded(self):
        assert _pair_bands.cache_info().maxsize is not None


@pytest.fixture(scope="module")
def batch():
    return batched_draws(range(50), q_max=24, m=1)


class TestDiagonalIdentities:
    """Closed product identities of the equal-component pair forms.

    These hold pathwise at every truncation order; the boundary
    adjustments of the double-weight forms exist precisely to keep them
    exact.
    """

    @pytest.mark.parametrize("q", [0, 1, 5, 20])
    def test_mixed_weight_pair_sum(self, batch, q):
        pattern = IndexPattern((1, 1))
        s10 = legendre_double_series((1, 0), pattern, batch, q, DT, "strat")
        s01 = legendre_double_series((0, 1), pattern, batch, q, DT, "strat")
        i0 = legendre_closed_single(0, 1, batch, DT)
        i1 = legendre_closed_single(1, 1, batch, DT)
        assert np.allclose(s10 + s01, i0 * i1, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("q", [0, 1, 5, 20])
    def test_double_weight_square(self, batch, q):
        pattern = IndexPattern((1, 1))
        s11 = legendre_double_series((1, 1), pattern, batch, q, DT, "strat")
        i1 = legendre_closed_single(1, 1, batch, DT)
        assert np.allclose(s11, i1 * i1 / 2.0, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("q", [0, 1, 5, 20])
    def test_second_weight_pair_sum(self, batch, q):
        pattern = IndexPattern((1, 1))
        s20 = legendre_double_series((2, 0), pattern, batch, q, DT, "strat")
        s02 = legendre_double_series((0, 2), pattern, batch, q, DT, "strat")
        i0 = legendre_closed_single(0, 1, batch, DT)
        i2 = legendre_closed_single(2, 1, batch, DT)
        assert np.allclose(s20 + s02, i0 * i2, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("q", [0, 1, 5, 20])
    def test_unweighted_square(self, batch, q):
        # The equal-component unweighted pair collapses to dt zeta_0^2 / 2.
        pattern = IndexPattern((1, 1))
        s00 = legendre_double_series((0, 0), pattern, batch, q, DT, "strat")
        z0 = batch.zeta[0, :, 0]
        assert np.allclose(s00, DT * z0 * z0 / 2.0, rtol=1e-12, atol=1e-15)


class TestSupportMask:
    """The dense view against the hand-written mask of the single-weight series."""

    def test_shape_and_cells(self):
        # At q >= 1 the view is the coefficient tensor restricted to the mask.
        for weights in ((1, 0), (0, 1)):
            for q in range(1, 7):
                view = pair_series_tensor(weights, q, 1.0).values
                full = scaled_tensor(coeff_tensor(KernelSpec(2, weights), q + 2), 1.0)
                mask = pair_series_support(q)
                assert view.shape == mask.shape
                assert not np.any(view[~mask])
                assert np.array_equal(view, np.where(mask, full.values, 0.0))

    def test_q0(self):
        # At q = 0 the series also keeps the corner cells (0, 1) and (1, 0),
        # adjusted by the unweighted coefficient; the mask leaves them out.
        mask = pair_series_support(0)
        assert mask.sum() == 3  # (0,0), (0,2), (2,0)
        for weights in ((1, 0), (0, 1)):
            spec = KernelSpec(2, weights)
            view = pair_series_tensor(weights, 0, 1.0).values
            assert view.shape == mask.shape
            for j in ((0, 1), (1, 0)):
                adjusted = bar_coeff(spec, j) + bar_coeff(KernelSpec.unweighted(2), j)
                assert not mask[j]
                assert view[j] == scale_coeff(adjusted, spec, j, 1.0)
            assert np.count_nonzero(view[~mask]) == 1
            full = scaled_tensor(coeff_tensor(spec, 2), 1.0)
            assert np.array_equal(view[mask], full.values[mask])


class TestHermiteDiagonal:
    def test_validation(self):
        draws = draw_noise(q_max=4, m=1, seed=0)
        with pytest.raises(ValueError):
            hermite_diagonal(2, 0, 1, draws, DT)
        with pytest.raises(ValueError):
            hermite_diagonal(3, -1, 1, draws, DT)
        with pytest.raises(ValueError):
            hermite_diagonal(3, 0, 1, draws, DT, "both")

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_triple_forms(self, l):
        draws = draw_noise(q_max=4, m=1, seed=31)
        single = legendre_closed_single(l, 1, draws, DT)
        delta = DT ** (2 * l + 1) / (2 * l + 1)
        assert hermite_diagonal(3, l, 1, draws, DT, "strat") == pytest.approx(
            single**3 / 6.0, rel=1e-13
        )
        assert hermite_diagonal(3, l, 1, draws, DT, "ito") == pytest.approx(
            (single**3 - 3.0 * single * delta) / 6.0, rel=1e-13
        )

    @pytest.mark.parametrize("l", [0, 1])
    def test_quadruple_forms(self, l):
        draws = draw_noise(q_max=4, m=1, seed=37)
        single = legendre_closed_single(l, 1, draws, DT)
        delta = DT ** (2 * l + 1) / (2 * l + 1)
        assert hermite_diagonal(4, l, 1, draws, DT, "strat") == pytest.approx(
            single**4 / 24.0, rel=1e-13
        )
        expected = (single**4 - 6.0 * single**2 * delta + 3.0 * delta**2) / 24.0
        assert hermite_diagonal(4, l, 1, draws, DT, "ito") == pytest.approx(
            expected, rel=1e-13
        )


class TestConversion:
    def test_validation(self):
        pattern = IndexPattern((1, 1))
        with pytest.raises(ValueError):
            ito_strat_convert(0.0, pattern, (0, 0), DT, "sideways")
        with pytest.raises(ValueError):
            ito_strat_convert(0.0, pattern, (0, 0, 0), DT, "strat_to_ito")
        with pytest.raises(ValueError):
            ito_strat_convert(
                0.0, IndexPattern((1, 1, 1)), (0, 0, 0), DT, "strat_to_ito"
            )
        draws = draw_noise(4, 4, 0)
        with pytest.raises(ValueError):
            ito_strat_convert(
                0.0, IndexPattern((1, 1, 2, 3)), (0, 0, 0, 0), DT, "strat_to_ito", draws=draws
            )
        with pytest.raises(ValueError):
            ito_strat_convert(
                0.0, IndexPattern((1, 1, 2, 3, 4)), (0,) * 5, DT, "strat_to_ito",
                draws=draws, q=2,
            )

    def test_rule_extends_the_hand_cases(self):
        # Weights outside the pair table, and the all-equal quadruple without q.
        assert ito_strat_convert(1.25, IndexPattern((1, 2)), (2, 1), DT, "strat_to_ito") == 1.25
        assert ito_strat_convert(
            0.0, IndexPattern((1, 1)), (2, 1), DT, "strat_to_ito"
        ) == pytest.approx(DT**4 / 8.0, rel=1e-15)
        draws = draw_noise(4, 1, 0)
        single = legendre_closed_single(0, 1, draws, DT)
        shift = ito_strat_convert(
            0.0, IndexPattern((1, 1, 1, 1)), (0, 0, 0, 0), DT, "strat_to_ito", draws=draws
        )
        assert shift == pytest.approx(
            hermite_diagonal(4, 0, 1, draws, DT, "ito") - single**4 / 24.0, rel=1e-12, abs=1e-15
        )

    def test_pair_shifts_are_exact_constants(self):
        # Ito - Strat = -(1/2) int w1 w2 over the interval.
        pattern = IndexPattern((1, 1))
        expected = {
            (0, 0): -DT / 2.0,
            (1, 0): DT * DT / 4.0,
            (0, 1): DT * DT / 4.0,
            (1, 1): -(DT**3) / 6.0,
            (2, 0): -(DT**3) / 6.0,
            (0, 2): -(DT**3) / 6.0,
        }
        for weights, shift in expected.items():
            assert ito_strat_convert(
                0.0, pattern, weights, DT, "strat_to_ito"
            ) == pytest.approx(shift, rel=1e-15)

    def test_distinct_pair_identity(self):
        pattern = IndexPattern((1, 2))
        for weights in DOUBLE_SERIES_WEIGHTS:
            assert ito_strat_convert(1.25, pattern, weights, DT, "ito_to_strat") == 1.25

    def test_round_trip(self):
        pattern = IndexPattern((1, 1))
        value = 0.33
        out = ito_strat_convert(value, pattern, (1, 0), DT, "strat_to_ito")
        back = ito_strat_convert(out, pattern, (1, 0), DT, "ito_to_strat")
        assert back == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_all_equal_triple_exact_at_every_order(self, q):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 8), DT)
        pattern = IndexPattern((1, 1, 1))
        draws = draw_noise(q_max=8, m=1, seed=11)
        strat = strat_expansion(tensor, pattern, draws, q)
        ito = ito_expansion(tensor, pattern, draws, q)
        converted = ito_strat_convert(
            strat, pattern, (0, 0, 0), DT, "strat_to_ito", draws=draws
        )
        assert converted == pytest.approx(ito, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("q", [0, 1, 3, 6])
    def test_all_equal_quadruple_exact_at_every_order(self, q):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(4), 6), DT)
        pattern = IndexPattern((1, 1, 1, 1))
        draws = draw_noise(q_max=10, m=1, seed=11)
        strat = strat_expansion(tensor, pattern, draws, q)
        ito = ito_expansion(tensor, pattern, draws, q)
        converted = ito_strat_convert(
            strat, pattern, (0, 0, 0, 0), DT, "strat_to_ito", draws=draws, q=q
        )
        assert converted == pytest.approx(ito, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("comps", [(1, 1, 2), (1, 2, 2)])
    def test_mixed_triple_converges_with_order(self, comps):
        # For mixed patterns the correction uses exact single integrals
        # while the expansion truncates, so the pathwise gap shrinks as
        # the truncation order grows.
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 10), DT)
        pattern = IndexPattern(comps)
        rms = {}
        for q in (0, 10):
            acc = 0.0
            n = 120
            for s in range(n):
                draws = draw_noise(q_max=10, m=2, seed=7000 + s)
                ito = ito_expansion(tensor, pattern, draws, q)
                strat = strat_expansion(tensor, pattern, draws, q)
                conv = ito_strat_convert(
                    strat, pattern, (0, 0, 0), DT, "strat_to_ito", draws=draws
                )
                acc += (ito - conv) ** 2
            rms[q] = math.sqrt(acc / n)
        assert rms[10] < 0.2 * rms[0]


_SEEDS = st.integers(0, 2**32 - 1)
_STEPS = st.floats(1e-3, 1.0)


class TestConversionRule:
    """The one conversion rule reproduces the hand forms of ``conversion_reference``."""

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.sampled_from(DOUBLE_SERIES_WEIGHTS),
        comps=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
        dt=_STEPS,
    )
    def test_pairs(self, weights, comps, dt):
        shift = ito_strat_convert(0.0, IndexPattern(comps), weights, dt, "strat_to_ito")
        assert shift == pytest.approx(pair_shift(comps, weights, dt), rel=1e-12, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(comps=st.sampled_from(list(itertools.product((1, 2, 3), repeat=3))),
           seed=_SEEDS, dt=_STEPS)
    def test_unweighted_triples(self, comps, seed, dt):
        draws = draw_noise(2, 3, seed)
        shift = ito_strat_convert(
            0.0, IndexPattern(comps), (0, 0, 0), dt, "strat_to_ito", draws=draws
        )
        assert shift == pytest.approx(triple_shift(comps, draws, dt), rel=1e-12, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(comps=st.sampled_from(list(itertools.product((1, 2), repeat=4))),
           q=st.integers(0, 8), seed=_SEEDS, dt=_STEPS)
    def test_unweighted_quadruples(self, comps, q, seed, dt):
        draws = draw_noise(q + 3, 2, seed)
        shift = ito_strat_convert(
            0.0, IndexPattern(comps), (0, 0, 0, 0), dt, "strat_to_ito", draws=draws, q=q
        )
        assert shift == pytest.approx(
            quadruple_shift(comps, draws, q, dt), rel=1e-12, abs=1e-15
        )

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from((3, 4)), l=st.integers(0, 3), seed=_SEEDS, dt=_STEPS)
    def test_hermite_diagonal(self, k, l, seed, dt):
        draws = draw_noise(3, 1, seed)
        assert hermite_diagonal(k, l, 1, draws, dt, "ito") == pytest.approx(
            hermite_ito(k, l, 1, draws, dt), rel=1e-12, abs=1e-15
        )


class TestTrigForms:
    def test_validation(self):
        draws = draw_noise(q_max=8, m=2, seed=0)
        with pytest.raises(ValueError):
            trig_milstein("I7", IndexPattern((1,)), draws, 1, DT)
        with pytest.raises(ValueError):
            trig_milstein("I00", IndexPattern((1,)), draws, 1, DT)
        with pytest.raises(ValueError):
            trig_milstein("I00", IndexPattern((1, 2)), draws, -1, DT)
        tailless = NoiseDraws(zeta=draws.zeta, xi=None, mu=None, seed=0)
        with pytest.raises(ValueError):
            trig_milstein("I1", IndexPattern((1,)), tailless, 1, DT)

    @pytest.mark.parametrize(
        "kind, pattern, needed",
        [("I1", (1,), 2 * 10**12), ("I2", (1,), 2 * 10**12 + 1),
         ("I00", (1, 2), 2 * 10**12 + 1), ("I00_tail", (1, 2), 2 * 10**12 + 1)],
    )
    def test_short_draws_refused_before_any_length_q_array(self, kind, pattern, needed):
        # At q = 10**12, np.arange(1, q + 1) alone would ask for 7.28 TiB.
        message = f"draws hold 3 Gaussians per component, need {needed}$"
        with pytest.raises(ValueError, match=message):
            trig_milstein(kind, IndexPattern(pattern), draw_noise(2, 2, 0), 10**12, DT)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_pair_resummation(self, q):
        # The closed pair form equals the contraction of the numerically
        # integrated sine/cosine coefficient grid.
        import itertools

        draws = draw_noise(q_max=8, m=2, seed=3)
        direct = trig_milstein("I00", IndexPattern((1, 2)), draws, q, DT)
        spec = KernelSpec.unweighted(2)
        total = 0.0
        for i, j in itertools.product(range(2 * q + 1), repeat=2):
            total += trig_coeff(spec, (i, j), DT) * draws.zeta[0, i] * draws.zeta[1, j]
        assert direct == pytest.approx(total, rel=1e-10)

    def test_tail_term_vanishes_with_zero_tail_draws(self):
        base = draw_noise(q_max=8, m=2, seed=9)
        zeroed = NoiseDraws(
            zeta=base.zeta,
            xi=np.zeros_like(base.xi),
            mu=np.zeros_like(base.mu),
            seed=base.seed,
        )
        for q in (0, 2):
            a = trig_milstein("I00", IndexPattern((1, 2)), zeroed, q, DT)
            b = trig_milstein("I00_tail", IndexPattern((1, 2)), zeroed, q, DT)
            assert a == b

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_weighted_single_variances_are_exact(self, q):
        # Tail-augmented weighted singles reproduce the full second
        # moment dt^3/3 (one weight) and dt^5/5 (squared weight) at any
        # truncation order: unit-vector draws read off one coefficient
        # at a time.
        n = 2 * q + 1
        total1 = 0.0
        total2 = 0.0
        for slot in range(n + 2):
            zeta = np.zeros((1, max(n, 1)))
            xi = np.zeros(1)
            mu = np.zeros(1)
            if slot < n:
                zeta[0, slot] = 1.0
            elif slot == n:
                xi[0] = 1.0
            else:
                mu[0] = 1.0
            draws = NoiseDraws(zeta=zeta, xi=xi, mu=mu, seed=0)
            c1 = trig_milstein("I1", IndexPattern((1,)), draws, q, DT)
            c2 = trig_milstein("I2", IndexPattern((1,)), draws, q, DT)
            total1 += c1 * c1
            total2 += c2 * c2
        assert total1 == pytest.approx(DT**3 / 3.0, rel=1e-12)
        assert total2 == pytest.approx(DT**5 / 5.0, rel=1e-12)

    def test_pair_tail_augmentation_changes_value(self):
        draws = draw_noise(q_max=8, m=2, seed=12)
        a = trig_milstein("I00", IndexPattern((1, 2)), draws, 2, DT)
        b = trig_milstein("I00_tail", IndexPattern((1, 2)), draws, 2, DT)
        assert a != b

    @pytest.mark.parametrize("dt", [1e-3, 0.37, 1.0])
    @pytest.mark.parametrize("q", [0, 1, 2, 5, 29, 624])
    def test_matches_the_former_forms(self, q, dt):
        # Within 4 rounding units of the sum of absolute terms: the pair
        # forms now sum the sine series before they multiply it.  The former
        # pair forms failed on batched draws, so each batch entry is checked
        # against the former form of its own draw.
        eps = np.finfo(float).eps
        singles = [draw_noise(2 * q + 1, 3, seed) for seed in (4, 5, 6)]
        stacked = {name: np.stack([getattr(d, name) for d in singles], axis=1)
                   for name in ("zeta", "xi", "mu")}
        batch = NoiseDraws(**stacked, seed=4)
        for kind, comps in (("I1", (2,)), ("I2", (3,)), ("I00", (1, 3)), ("I00_tail", (2, 1)),
                            ("I00", (2, 2)), ("I00_tail", (3, 3))):
            pattern = IndexPattern(comps)
            values = trig_milstein(kind, pattern, batch, q, dt)
            for b, draws in enumerate(singles):
                former = trig_milstein_reference.trig_milstein(kind, pattern, draws, q, dt)
                tolerance = 4 * eps * trig_milstein_reference.magnitude(kind, pattern, draws, q, dt)
                assert abs(trig_milstein(kind, pattern, draws, q, dt) - former) <= tolerance
                assert abs(values[b] - former) <= tolerance

    @pytest.mark.parametrize("dt", [1e-3, 0.37, 1.0])
    @pytest.mark.parametrize("q", [0, 1, 2, 5])
    @pytest.mark.parametrize("kind,l", [("I1", 1), ("I2", 2)])
    def test_single_forms_are_trig_coefficients(self, kind, l, q, dt):
        # With zero tails a unit vector at index j reads the coefficient of
        # basis function j; the cosines of I1 read zero.
        spec = KernelSpec(1, (l,))
        for j in range(2 * q + 1):
            zeta = np.zeros((1, 2 * q + 1))
            zeta[0, j] = 1.0
            draws = NoiseDraws(zeta=zeta, xi=np.zeros(1), mu=np.zeros(1), seed=0)
            assert trig_milstein(kind, IndexPattern((1,)), draws, q, dt) == pytest.approx(
                trig_coeff(spec, (j,), dt), rel=1e-14, abs=1e-14 * dt ** spec.scale_exponent
            )

    @pytest.mark.parametrize("kind,comps", [("I1", (1, 2)), ("I2", (1, 1)), ("I00", (1,)),
                                            ("I00_tail", (1, 2, 1))])
    def test_multiplicity_checked(self, kind, comps):
        # "I1" with a pair pattern once read its first component without an error.
        draws = draw_noise(q_max=8, m=2, seed=0)
        with pytest.raises(ValueError, match=f"the {kind} form takes"):
            trig_milstein(kind, IndexPattern(comps), draws, 2, DT)

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["I1", "I2", "I00", "I00_tail"])
    def test_gaussians_read(self, kind, q):
        # I1 reads max(1, 2q) Gaussians per component, every other kind 2q + 1.
        needed = max(1, 2 * q) if kind == "I1" else 2 * q + 1
        pattern = IndexPattern((1,) if kind in ("I1", "I2") else (1, 2))
        base = draw_noise(q_max=needed, m=2, seed=1)
        exact = NoiseDraws(base.zeta[:, :needed], base.xi, base.mu, 1)
        assert math.isfinite(trig_milstein(kind, pattern, exact, q, DT))
        short = NoiseDraws(base.zeta[:, : needed - 1], base.xi, base.mu, 1)
        with pytest.raises(ValueError, match=f"need {needed}"):
            trig_milstein(kind, pattern, short, q, DT)


class TestTruncationOrderChecks:
    @pytest.mark.parametrize("q", [1.5, True, -1])
    def test_every_entry_point_refuses_the_order(self, q):
        # Each once read a float or bool order as an integer order, or failed inside numpy.
        match = "nonnegative|outside" if q == -1 else "is not an integer"
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 2), DT)
        draws = draw_noise(q_max=8, m=2, seed=0)
        calls = [
            lambda: coeff_tensor(KernelSpec.unweighted(2), q),
            lambda: tensor.truncated(q),
            lambda: exact_error(tensor, IndexPattern((1, 2)), q),
            lambda: ito_expansion(tensor, IndexPattern((1, 2)), draws, q),
            lambda: strat_expansion(tensor, IndexPattern((1, 2)), draws, q),
            lambda: legendre_double_series((1, 0), IndexPattern((1, 2)), draws, q, DT),
            lambda: diagonal_trace((0, 0), q, DT),
            lambda: pair_series_tensor((0, 0), q, DT),
            lambda: draw_noise(q, 1, 0),
        ]
        calls += [lambda kind=kind: series_error(kind, q, DT) for kind in SERIES_KINDS]
        calls += [
            lambda kind=kind: trig_milstein(kind, IndexPattern(comps), draws, q, DT)
            for kind, comps in (("I1", (1,)), ("I2", (1,)), ("I00", (1, 2)), ("I00_tail", (1, 2)))
        ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()

    def test_integer_like_orders_are_read_as_int(self):
        assert series_error("pair_trig", np.int64(3), DT) == series_error("pair_trig", 3, DT)
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 3), DT)
        assert tensor.truncated(np.int64(2)).shape == (3, 3)
