"""Mean-square truncation errors: exact forms, closed series, bounds."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stochint.coeffs import (
    DOUBLE_SERIES_WEIGHTS, KernelSpec, ScaledTensor, coeff_tensor, scaled_tensor,
)
from stochint.errors import (
    SERIES_KINDS,
    TRIG_SERIES_CAP,
    IndexPattern,
    SeriesCapError,
    error_bound,
    exact_error,
    kernel_norm,
    kernel_norm_exact,
    series_error,
)
from stochint.errors import (
    _SERIES, _polygamma, _position_permutations, _tail_sum_fourths, _tail_sum_squares,
)
from stochint.expansion import pair_series_tensor

import error_pattern_reference
import trig_interaction_reference
import trig_series_reference
from monomial_reference import kernel_norm_simplex
from trig_coeff_reference import trig_coeff


class TestKernelNorm:
    # I_k = dt^(2 sum(l) + k) / prod_r (2(l_1 + ... + l_r) + r)
    KNOWN = {
        (2, (0, 0)): Fraction(1, 2),
        (3, (0, 0, 0)): Fraction(1, 6),
        (4, (0, 0, 0, 0)): Fraction(1, 24),
        (5, (0, 0, 0, 0, 0)): Fraction(1, 120),
        (2, (1, 0)): Fraction(1, 12),
        (2, (0, 1)): Fraction(1, 4),
        (3, (1, 0, 0)): Fraction(1, 60),
        (3, (0, 1, 0)): Fraction(1, 20),
        (3, (0, 0, 1)): Fraction(1, 10),
    }

    @pytest.mark.parametrize("key", sorted(KNOWN))
    def test_known_values(self, key):
        k, weights = key
        spec = KernelSpec(k, weights)
        assert kernel_norm_exact(spec) == self.KNOWN[key]

    def test_exact_equals_simplex_route(self):
        # Two independent computations: product formula vs simplex integral.
        for k in (1, 2, 3, 4):
            for weights in itertools.product(range(3), repeat=k):
                if sum(weights) > 3:
                    continue
                spec = KernelSpec(k, weights)
                assert kernel_norm_exact(spec) == kernel_norm_simplex(spec)

    def test_float_scaling(self):
        spec = KernelSpec(2, (1, 0))
        dt = 0.37
        assert kernel_norm(spec, dt) == pytest.approx(dt**4 / 12.0, rel=1e-15)


def _set_partitions(k: int):
    """Component labels of every partition of ``k`` positions, labelled by first position."""
    if k == 1:
        yield (1,)
        return
    for head in _set_partitions(k - 1):
        for label in range(1, max(head) + 2):
            yield head + (label,)


class TestEqualityPattern:
    """The group ``G`` that :func:`exact_error` reads from an index pattern's labels."""

    def test_position_permutations_count(self):
        # Product of factorials of the group sizes.
        assert len(_position_permutations((1, 2, 3))) == 1
        assert len(_position_permutations((1, 1, 1))) == 6
        assert len(_position_permutations((1, 1, 2))) == 2
        assert len(_position_permutations((3, 1, 3, 3, 1))) == 12

    def test_permutations_fix_groups(self):
        perms = _position_permutations((1, 2, 1, 2))
        assert len(set(perms)) == 4
        for axes in perms:
            assert sorted(axes) == [0, 1, 2, 3]
            # Axes 0,2 may swap with each other only; same for 1,3.
            assert {axes[0], axes[2]} == {0, 2}
            assert {axes[1], axes[3]} == {1, 3}

    def test_labels_matter_only_through_equality(self):
        assert _position_permutations((7, 2, 7)) == _position_permutations((1, 2, 1))
        assert _position_permutations((2, 1, 2, 1)) == _position_permutations((1, 2, 1, 2))

    @pytest.mark.parametrize("label", [1.5, True, "1"])
    def test_labels_are_integers(self, label):
        # A float label once built, and ito_expansion then failed inside numpy.
        with pytest.raises(ValueError, match=f"component label {label!r} is not an integer"):
            IndexPattern((label, 2))

    def test_integer_labels_are_stored_as_int(self):
        pattern = IndexPattern((np.int64(1), 2))
        assert pattern == IndexPattern((1, 2))
        assert all(type(c) is int for c in pattern.components)

    def test_all_set_partitions(self):
        assert [len(list(_set_partitions(k))) for k in range(1, 6)] == [1, 2, 5, 15, 52]

    @pytest.mark.parametrize("k, q", [(1, 9), (2, 7), (3, 5), (4, 4), (5, 3)])
    def test_exact_error_keeps_its_bits(self, k, q):
        # Against the former EqualityPattern route, for every partition and every order.
        rng = np.random.default_rng(k)
        spec = KernelSpec.unweighted(k)
        tensors = [
            scaled_tensor(coeff_tensor(spec, q), 0.37),
            scaled_tensor(coeff_tensor(KernelSpec(k, (1,) + (0,) * (k - 1)), q), 1.0),
            ScaledTensor(spec, q, 0.5, rng.standard_normal((q + 1,) * k)),
        ]
        if k == 2:
            tensors += [pair_series_tensor(w, 2, 0.37) for w in DOUBLE_SERIES_WEIGHTS]
        for components in _set_partitions(k):
            old = error_pattern_reference.EqualityPattern.from_components(components)
            for tensor in tensors:
                for order in [None, *range(tensor.q + 1)]:
                    new = exact_error(tensor, IndexPattern(components), order)
                    assert new == error_pattern_reference.exact_error(tensor, old, order)


class TestExactError:
    def test_pair_distinct_matches_closed_series(self):
        dt = 0.5
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 50), dt)
        pattern = IndexPattern((1, 2))
        for q in (0, 1, 2, 5, 10, 25, 50):
            exact = exact_error(tensor, pattern, q=q)
            closed = series_error("pair_legendre", q, dt)
            assert exact == pytest.approx(closed, rel=1e-12)

    def test_banded_weighted_pair_matches_closed_series(self):
        # At q >= 1 every kept cell of the (1, 0) series is a coefficient.
        dt = 0.5
        for q in (1, 2, 5, 9):
            tensor = pair_series_tensor((1, 0), q, dt)
            distinct = exact_error(tensor, IndexPattern((1, 2)))
            equal = exact_error(tensor, IndexPattern((1, 1)))
            assert distinct == pytest.approx(
                series_error("pair_legendre_weighted", q, dt), rel=1e-11
            )
            assert equal == pytest.approx(
                series_error("pair_legendre_weighted_equal", q, dt), rel=1e-11
            )

    def test_monotone_in_q(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 8), 0.5)
        pattern = IndexPattern((1, 2, 3))
        errors = [exact_error(tensor, pattern, q=q) for q in range(9)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert all(e > 0 for e in errors)

    def test_named_constants(self):
        # Unit-interval error constants of the plain expansions, frozen
        # from the exact rational computation.
        cases = [
            (KernelSpec.unweighted(3), 6, 0.019553857606871283),
            (KernelSpec.unweighted(4), 2, 0.022913992272758504),
            (KernelSpec(3, (1, 0, 0)), 2, 0.008154289),
            (KernelSpec(3, (0, 1, 0)), 2, 0.016834845),
            (KernelSpec(3, (0, 0, 1)), 2, 0.025280140),
            (KernelSpec.unweighted(5), 1, 0.007589521919879063),
        ]
        for spec, q, expected in cases:
            tensor = scaled_tensor(coeff_tensor(spec, q), 1.0)
            value = exact_error(tensor, IndexPattern(tuple(range(1, spec.k + 1))), q=q)
            assert value == pytest.approx(expected, rel=1e-7)

    def test_pattern_multiplicity_checked(self):
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 2), 0.5)
        with pytest.raises(ValueError):
            exact_error(tensor, IndexPattern((1, 2, 3)))

    @pytest.mark.parametrize("q", [-1, -2, 5])
    def test_order_outside_the_tensor_is_rejected(self, q):
        # A negative order once sliced from the end: q = -2 read order 3 of this tensor.
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(2), 4), 0.5)
        with pytest.raises(ValueError, match=f"truncation order {q} is outside 0..4"):
            exact_error(tensor, IndexPattern((1, 2)), q=q)
        with pytest.raises(ValueError, match=f"truncation order {q} is outside 0..4"):
            error_bound(tensor, q=q)

    def test_tensor_shape_is_checked(self):
        # A 3x3 grid labelled q = 5 once gave exact_error(..., q=4) == -8.875.
        with pytest.raises(ValueError, match=r"tensor shape \(3, 3\) != \(6, 6\)"):
            ScaledTensor(KernelSpec.unweighted(2), 5, 0.5, np.ones((3, 3)))
        for weights in DOUBLE_SERIES_WEIGHTS:
            coefficients = scaled_tensor(coeff_tensor(KernelSpec(2, weights), 4), 0.5)
            assert coefficients.values.shape == (5, 5)
            tensor = pair_series_tensor(weights, 4, 0.5)
            assert tensor.values.shape == (tensor.q + 1,) * 2


class TestErrorBound:
    def test_dominates_exact_error(self):
        dt = 0.5
        for spec, comps in [
            (KernelSpec.unweighted(2), (1, 1)),
            (KernelSpec.unweighted(3), (1, 1, 2)),
            (KernelSpec.unweighted(3), (1, 1, 1)),
        ]:
            tensor = scaled_tensor(coeff_tensor(spec, 6), dt)
            pattern = IndexPattern(comps)
            for q in range(7):
                assert error_bound(tensor, q=q) >= exact_error(
                    tensor, pattern, q=q
                ) - 1e-15

    def test_factorial_prefactor(self):
        dt = 0.5
        tensor = scaled_tensor(coeff_tensor(KernelSpec.unweighted(3), 4), dt)
        values = tensor.truncated(4)
        tail = kernel_norm(tensor.spec, dt) - float(np.sum(values * values))
        assert error_bound(tensor, q=4) == pytest.approx(6.0 * tail, rel=1e-14)


class TestClosedSeries:
    @pytest.mark.parametrize("kind", ["triple_trig", "triple_trig_tail", "pair_trig_weighted"])
    def test_trig_interaction_series_capped(self, kind):
        assert math.isfinite(series_error(kind, TRIG_SERIES_CAP, 1.0))
        with pytest.raises(SeriesCapError, match="cap"):
            series_error(kind, TRIG_SERIES_CAP + 1, 1.0)
        # 10**400 has no float: any work before the cap check would overflow.
        with pytest.raises(SeriesCapError, match="cap"):
            series_error(kind, 10**400, 1.0)

    @pytest.mark.parametrize(
        "kind", ["pair_legendre", "pair_legendre_weighted", "pair_legendre_weighted_equal",
                 "pair_trig", "pair_trig_tail", "single_trig_weighted"],
    )
    def test_order_without_a_float_is_rejected(self, kind):
        with pytest.raises(ValueError, match=f"q={10**400}"):
            series_error(kind, 10**400, 1.0)
        # Finite at an order that has a float (weighted-equal cancels to 0 there).
        assert 0.0 <= series_error(kind, 10**200, 1.0) < 1e-199

    @pytest.mark.parametrize("kind", SERIES_KINDS)
    def test_overflowing_interval_is_rejected(self, kind):
        with pytest.raises(ValueError, match="no finite float"):
            series_error(kind, 2, 1e300)
        assert series_error(kind, 2, 1e-300) == 0.0

    def test_known_kinds(self):
        assert set(SERIES_KINDS) == {
            "pair_legendre",
            "pair_legendre_weighted",
            "pair_legendre_weighted_equal",
            "pair_trig",
            "pair_trig_tail",
            "pair_trig_weighted",
            "single_trig_weighted",
            "triple_trig",
            "triple_trig_tail",
        }

    def test_kinds_are_the_registry(self):
        assert SERIES_KINDS == tuple(sorted(_SERIES))
        with pytest.raises(ValueError, match="^unknown series kind 'nope'; known: ") as info:
            series_error("nope", 1, 0.5)
        assert str(info.value).split("; known: ")[1].split(", ") == list(SERIES_KINDS)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_error("no_such_kind", 1, 0.5)
        with pytest.raises(ValueError):
            series_error("pair_legendre", -1, 0.5)
        with pytest.raises(ValueError):
            series_error("pair_legendre_weighted", 0, 0.5)
        for dt in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                series_error("pair_legendre", 1, dt)

    def test_pair_legendre_closed_form(self):
        # dt^2 / (4 (2q + 1))
        for q in (0, 3, 10, 100):
            assert series_error("pair_legendre", q, 0.7) == pytest.approx(
                0.49 / (4 * (2 * q + 1)), rel=1e-15
            )

    def test_weighted_pair_first_value(self):
        # q = 1 leaves the finite part empty: value fixed by the tail sums
        # a = 1/3, b = 1/5, c = 1/7 alone.
        a, b, c = 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0
        expected = (
            a + (a * a + b * b) / 16.0 - (a + b) / 32.0 + 5.0 * (b + c) / 32.0
        ) / 16.0
        assert series_error("pair_legendre_weighted", 1, 1.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_weighted_equal_pair_first_value(self):
        a, b, c = 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0
        expected = ((c - a) / 16.0 + (a * a + b * b) / 8.0) / 16.0
        assert series_error("pair_legendre_weighted_equal", 1, 1.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_trig_pair_tail_relation(self):
        # Modeling the discarded tail with extra Gaussians removes
        # exactly dt^2 alpha(q) / pi^2 from the pair error.
        from scipy.special import polygamma

        dt = 0.7
        for q in (0, 1, 5, 50):
            alpha = float(polygamma(1, q + 1))
            gap = series_error("pair_trig", q, dt) - series_error(
                "pair_trig_tail", q, dt
            )
            assert gap == pytest.approx(dt * dt * alpha / math.pi**2, rel=1e-13)

    def test_trig_alpha_matches_brute_tail(self):
        # alpha(q) = sum_{r > q} 1/r^2, evaluated here by an independent
        # accelerated summation.
        import mpmath as mp

        for q in (0, 2, 7):
            tail = float(mp.nsum(lambda r: 1.0 / r**2, [q + 1, mp.inf]))
            assert series_error("pair_trig_tail", q, 1.0) == pytest.approx(
                tail / (2.0 * math.pi**2), rel=1e-12
            )

    def test_single_trig_weighted_form(self):
        from scipy.special import polygamma

        dt = 0.7
        for q in (0, 1, 4):
            alpha = float(polygamma(1, q + 1))
            assert series_error("single_trig_weighted", q, dt) == pytest.approx(
                dt**3 * alpha / (2.0 * math.pi**2), rel=1e-13
            )

    def test_triple_trig_exceeds_tail_variant(self):
        for q in (1, 2, 10):
            assert series_error("triple_trig", q, 0.5) > series_error(
                "triple_trig_tail", q, 0.5
            )

    def test_all_kinds_decrease_and_vanish(self):
        dt = 0.5
        for kind in SERIES_KINDS:
            q0 = 1 if "weighted" in kind and "single" not in kind else 0
            values = [series_error(kind, q, dt) for q in range(q0, q0 + 30)]
            assert all(v > 0 for v in values)
            assert values[-1] < values[0]
            assert series_error(kind, 4000, dt) < 1e-3 * values[0]

    def test_frequency_interaction_sums_match_brute_force(self):
        # The closed triple/weighted-pair forms reduce two double
        # frequency sums to harmonic partial sums in O(q); compare the
        # reduction with the direct O(q^2) sums.
        from stochint.errors import _frequency_interaction_sums

        for q in (1, 2, 3, 10, 40):
            s_b, s_c = _frequency_interaction_sums(q)
            pairs = [
                (r, l)
                for r in range(1, q + 1)
                for l in range(1, q + 1)
                if l != r
            ]
            brute_b = sum(1.0 / (l * l * (r * r - l * l)) for r, l in pairs)
            brute_c = sum(1.0 / (r * r - l * l) ** 2 for r, l in pairs)
            assert s_b == pytest.approx(brute_b, rel=1e-12, abs=1e-15)
            assert s_c == pytest.approx(brute_c, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("q", [1, 2, 3, 10, 99, 10**3, 10**4, 123_457, 10**6])
    def test_interaction_sums_keep_their_bits(self, q):
        # In-place prefixes and sliced reads against the copying route they replaced.
        from stochint.errors import _frequency_interaction_sums, _harmonic_prefixes

        for new, old in zip(_harmonic_prefixes(2 * q), trig_interaction_reference._harmonic_prefixes(2 * q)):
            assert new.tobytes() == old.tobytes()
        assert _frequency_interaction_sums(q) == trig_interaction_reference.frequency_interaction_sums(q)
        for kind in ("triple_trig", "triple_trig_tail", "pair_trig_weighted"):
            for dt in (1.0, 0.37):
                reference = trig_interaction_reference.series_error_reference(kind, q, dt)
                assert series_error(kind, q, dt) == reference

    def test_interaction_sums_hold_under_eight_arrays(self):
        # The sums reuse two buffers; the copying route held about ten arrays of q floats.
        from stochint.errors import _frequency_interaction_sums

        q = 10**5
        tracemalloc.start()
        try:
            _frequency_interaction_sums(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * q * np.dtype(float).itemsize

    def test_triple_trig_reconstruction_from_brute_sums(self):
        # Rebuild the triple error bracket from scratch using the brute
        # double sums and partial harmonic sums.
        dt = 0.5
        pi2 = math.pi**2
        pi4 = pi2 * pi2
        for q in (1, 3, 10):
            pairs = [
                (r, l)
                for r in range(1, q + 1)
                for l in range(1, q + 1)
                if l != r
            ]
            s_b = sum(1.0 / (l * l * (r * r - l * l)) for r, l in pairs)
            s_c = sum(1.0 / (r * r - l * l) ** 2 for r, l in pairs)
            h2 = sum(1.0 / r**2 for r in range(1, q + 1))
            h4 = sum(1.0 / r**4 for r in range(1, q + 1))
            d = 5.0 * (h2 * h2 - h4) - s_b + 6.0 * s_c
            expected = dt**3 * (
                5.0 / 36.0 - h2 / (2.0 * pi2) - 79.0 * h4 / (32.0 * pi4) - d / (4.0 * pi4)
            )
            assert series_error("triple_trig", q, dt) == pytest.approx(
                expected, rel=1e-12
            )
            expected_weighted = dt**4 / 4.0 * (
                1.0 / 9.0
                - h2 / (2.0 * pi2)
                - 5.0 * h4 / (8.0 * pi4)
                - (2.0 * s_c + s_b) / pi4
            )
            assert series_error("pair_trig_weighted", q, dt) == pytest.approx(
                expected_weighted, rel=1e-12
            )

    def test_decay_rates(self):
        # Pair errors decay like 1/q, the tail-augmented and weighted
        # variants at least as fast.
        dt = 1.0
        for kind in ("pair_legendre", "pair_trig", "pair_trig_tail"):
            r = series_error(kind, 400, dt) / series_error(kind, 200, dt)
            assert r == pytest.approx(0.5, abs=0.02)


class TestPolygammaPort:
    """The Cephes Hurwitz-zeta port against scipy, kept as a test-only reference.

    scipy is imported inside each test that uses it, here and in
    ``TestClosedSeries``, not at module level: a test process that has
    loaded ``scipy.special`` runs the oracle slower, and every test
    collected with this module would pay for it.
    """

    #: q = 0..20000 and a log grid up to 1e8.
    QS = sorted(set(range(20001)) | {int(v) for v in np.round(np.logspace(0, 8, 3001))})

    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_scipy(self, n):
        from scipy.special import polygamma

        x = np.array(self.QS, dtype=np.float64) + 1.0
        reference = polygamma(n, x)
        mismatched = [
            q for q, xi, ref in zip(self.QS, x.tolist(), reference.tolist())
            if _polygamma(n, xi) != ref
        ]
        assert mismatched == []

    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_scipy_beyond_1e8(self, n):
        # scipy's asymptotic branch, up to arguments whose tail sums underflow.
        from scipy.special import polygamma

        x = np.logspace(8, 300, 2001)
        reference = polygamma(n, x)
        mismatched = [
            xi for xi, ref in zip(x.tolist(), reference.tolist()) if _polygamma(n, xi) != ref
        ]
        assert mismatched == []

    def test_import_does_not_load_scipy(self):
        import stochint

        code = "import sys, stochint.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(Path(stochint.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_tail_sums_match_the_scipy_forms(self):
        from scipy.special import polygamma

        for q in self.QS[::97] + [10**8]:
            assert _tail_sum_squares(q) == float(polygamma(1, q + 1))
            assert _tail_sum_fourths(q) == float(polygamma(3, q + 1)) / 6.0


class TestTrigSeriesAgainstExactCoefficients:
    """The pair and single trig series are ``I_k - sum C**2`` over ``{0..2q}**k``.

    In floats against ``trig_coeff``, and exactly in Q[1/pi] through
    ``trig_series_reference``.

    ``triple_trig`` is pinned exactly too: its pi**0 and pi**-2 parts are the
    full-grid tail's, and its pi**-4 part is lower by a known rational, so
    the series lies below the full grid's Parseval floor (at ``q = 1`` it
    reads 0.062884 and the full-grid tail 0.063205).  ``triple_trig_tail``
    and ``pair_trig_weighted`` are not tied to this sum yet.
    """

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, spec",
        [("pair_trig", KernelSpec.unweighted(2)), ("single_trig_weighted", KernelSpec(1, (1,)))],
        ids=["pair_trig", "single_trig_weighted"],
    )
    def test_series_is_the_full_grid_tail(self, kind, spec, q):
        kept = math.fsum(
            trig_coeff(spec, j, 1.0) ** 2
            for j in itertools.product(range(2 * q + 1), repeat=spec.k)
        )
        assert series_error(kind, q, 1.0) == pytest.approx(kernel_norm(spec, 1.0) - kept, rel=1e-14)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(trig_series_reference.SERIES))
    def test_exact_form_is_the_exact_full_grid_tail(self, kind, q):
        # One power of 1/pi at a time: both sides are tuples of rationals.
        spec, exact_form = trig_series_reference.SERIES[kind]
        form = exact_form(q)
        assert form == trig_series_reference.full_grid_tail(spec, q)
        value = math.fsum(float(c) / math.pi**p for p, c in enumerate(form))
        assert series_error(kind, q, 1.0) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize(
        "q, gap", [(1, Fraction(1, 32)), (2, Fraction(89, 4608)), (3, Fraction(13297, 1036800))]
    )
    def test_triple_trig_exact_form(self, q, gap):
        form = trig_series_reference.triple_trig(q)
        tail = trig_series_reference.full_grid_tail(KernelSpec.unweighted(3), q)
        assert len(form) == len(tail) == 5
        assert form[:4] == tail[:4] and form[1] == form[3] == 0  # pi**0 to pi**-3; odd powers zero
        assert tail[4] - form[4] == gap
        value = math.fsum(float(c) / math.pi**p for p, c in enumerate(form))
        assert series_error("triple_trig", q, 1.0) == pytest.approx(value, rel=1e-14)
