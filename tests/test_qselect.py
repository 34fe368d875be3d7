"""Minimal truncation-order selection: scan logic and reference columns."""

from __future__ import annotations

import math

import pytest

from stochint.qselect import (
    CONDITION_IDS,
    Condition,
    QSelectCapError,
    TRIPLE_EXACT_CAP,
    TRIPLE_FLOAT_CAP,
    TRIPLE_REL_TOL,
    min_q,
    scan_detail,
    triple_legendre_error_constant,
    _probe,
    _triple_constant_float,
    _triple_square_sum,
)
from stochint.errors import SeriesCapError
from stochint.tables import Q_TABLES

from monomial_reference import triple_shell_sums
from qselect_reference import linear_scan

# Leading error constants of the unweighted triple expansion, computed
# once from the exact shell-incremental rational sum and frozen here.
TRIPLE_CONSTANTS = [
    0.1388888888888889,
    0.08222222222222222,
    0.050249433106575966,
    0.03614125172566731,
    0.02819370476713134,
    0.023097633634328773,
    0.019553857606871314,
    0.016948041768775974,
    0.014952019195673408,
]


class TestTripleConstant:
    @pytest.mark.parametrize("q", range(len(TRIPLE_CONSTANTS)))
    def test_frozen_values(self, q):
        assert triple_legendre_error_constant(q) == pytest.approx(
            TRIPLE_CONSTANTS[q], rel=1e-12
        )

    def test_parseval_sum_equals_shell_sum(self):
        shells = triple_shell_sums(10)
        for q in range(11):
            assert _triple_square_sum(q) == shells[q]

    def test_q0_is_one_sixth_minus_leading_term(self):
        # e3(0) = 1/6 - (1/64) * (4/3)^2 = 5/36
        assert triple_legendre_error_constant(0) == pytest.approx(5.0 / 36.0, rel=1e-14)

    def test_float_route_matches_exact(self):
        for q in range(31):
            exact = triple_legendre_error_constant(q)
            assert abs(_triple_constant_float(q) - exact) <= 1e-12 * exact, q

    def test_strictly_decreasing(self):
        values = [triple_legendre_error_constant(q) for q in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)


class TestCondition:
    def test_known_ids(self):
        assert "pair_legendre_dt3" in CONDITION_IDS
        assert "triple_trig_dt4" in CONDITION_IDS
        assert len(CONDITION_IDS) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            Condition("no_such_condition", 0.1)
        with pytest.raises(ValueError):
            Condition("pair_legendre_dt3", 1.5)
        with pytest.raises(ValueError):
            Condition("pair_legendre_dt3", 0.1, cap=0)

    def test_rhs_power(self):
        assert Condition("pair_legendre_dt3", 0.25).rhs == pytest.approx(0.25**3)
        assert Condition("pair_legendre_dt4", 0.25).rhs == pytest.approx(0.25**4)


class TestScan:
    @pytest.mark.parametrize(
        "cond_id,dt",
        [
            ("pair_legendre_dt3", 2**-7),
            ("pair_legendre_dt4", 0.08222),
            ("pair_trig_tail_dt3", 2**-6),
            ("pair_trig_dt4", 0.0821),
            ("triple_legendre_dt4", 0.0502),
            ("triple_trig_tail_dt4", 0.0231),
            ("triple_trig_dt4", 0.0196),
        ],
    )
    def test_boundary_is_minimal(self, cond_id, dt):
        detail = scan_detail(Condition(cond_id, dt))
        threshold = detail.rhs * (1.0 + detail.tolerance)
        assert detail.lhs_at_minimal <= threshold
        if detail.minimal_q > 0:
            assert _probe(cond_id, detail.minimal_q - 1, dt)[0] > threshold

    def test_pair_conditions_report_one_above_minimal(self):
        detail = scan_detail(Condition("pair_legendre_dt3", 2**-5))
        assert detail.reported_q == detail.minimal_q + 1
        assert detail.tolerance == 0.0

    def test_triple_conditions_report_minimal_with_tolerance(self):
        detail = scan_detail(Condition("triple_legendre_dt4", 0.0502))
        assert detail.reported_q == detail.minimal_q
        assert detail.tolerance == TRIPLE_REL_TOL

    def test_cap_raises(self):
        with pytest.raises(QSelectCapError):
            min_q(Condition("pair_legendre_dt3", 2**-10, cap=5))

    @pytest.mark.parametrize(
        "cond",
        [
            Condition("pair_legendre_dt3", 2**-10, cap=5),
            Condition("triple_trig_dt4", 0.0196, cap=3),
            Condition("pair_trig_tail_dt3", 1e-9),
        ],
        ids=["small-cap", "triple-small-cap", "default-cap"],
    )
    def test_cap_error_carries_lhs_at_cap(self, cond):
        with pytest.raises(QSelectCapError) as raised:
            scan_detail(cond)
        assert raised.value.lhs_at_cap == _probe(cond.id, cond.cap, cond.dt)[0]
        assert raised.value.rhs == cond.rhs

    def test_cap_itself_admissible(self):
        minimal = scan_detail(Condition("pair_legendre_dt3", 2**-10)).minimal_q
        detail = scan_detail(Condition("pair_legendre_dt3", 2**-10, cap=minimal))
        assert detail.minimal_q == minimal

    def test_routes(self):
        assert scan_detail(Condition("pair_trig_dt3", 0.01)).route == "series"
        assert scan_detail(Condition("triple_trig_dt4", 0.0196)).route == "series"
        assert scan_detail(Condition("triple_legendre_dt4", 0.0502)).route == "float_parseval"

    def test_near_tie_uses_exact_constant(self):
        # The threshold sits on the constant at q = 5: the float sum is too
        # close to decide, so the probe there reads the exact constant.
        dt = triple_legendre_error_constant(5) / (1.0 + TRIPLE_REL_TOL)
        assert _probe("triple_legendre_dt4", 5, dt)[1] == "exact"
        assert _probe("triple_legendre_dt4", 4, dt)[1] == "float_parseval"
        detail = scan_detail(Condition("triple_legendre_dt4", dt))
        assert (detail.minimal_q, detail.reported_q, detail.lhs_at_minimal) == linear_scan(
            Condition("triple_legendre_dt4", dt)
        )

    def test_near_tie_above_exact_cap_is_resource_error(self, monkeypatch):
        # The exact sum grows eightfold per doubling of q; above the cap a
        # near-tie raises before any exact work.
        def no_exact_work(q):
            raise AssertionError(f"exact triple sum at q={q}")

        monkeypatch.setattr("stochint.qselect._triple_square_sum", no_exact_work)
        q = TRIPLE_EXACT_CAP + 1
        dt = _triple_constant_float(q) / (1.0 + TRIPLE_REL_TOL)
        with pytest.raises(SeriesCapError, match=f"q={q} is a near-tie"):
            _probe("triple_legendre_dt4", q, dt)
        assert _probe("triple_legendre_dt4", q - 1, dt)[1] == "float_parseval"


def _reference_grid() -> list[Condition]:
    """Every column of the order tables at their printed steps and at extra ones."""
    extra = {37: (1e-6, 1e-5, 3e-4, 7e-3), 39: (0.01, 0.03), 40: (0.01, 0.03)}
    return [
        Condition(cond_id, dt)
        for number, table in sorted(Q_TABLES.items())
        for _, cond_id in table.columns
        for dt in table.dts + extra[number]
    ]


class TestAgainstLinearScan:
    @pytest.mark.parametrize("cond", _reference_grid(), ids=lambda c: f"{c.id}@{c.dt:g}")
    def test_same_order_and_lhs(self, cond):
        detail = scan_detail(cond)
        minimal, reported, lhs = linear_scan(cond)
        assert (detail.minimal_q, detail.reported_q) == (minimal, reported)
        if detail.route == "float_parseval":
            assert abs(detail.lhs_at_minimal - lhs) <= 1e-12 * lhs
        else:
            assert detail.lhs_at_minimal == lhs

    def test_cap_error_matches(self):
        cond = Condition("pair_legendre_dt3", 2**-10, cap=5)
        with pytest.raises(QSelectCapError) as fast:
            scan_detail(cond)
        with pytest.raises(QSelectCapError) as slow:
            linear_scan(cond)
        assert fast.value.lhs_at_cap == slow.value.lhs_at_cap


class TestTripleFloatCap:
    """The O(q³) float triple sum is never probed past ``TRIPLE_FLOAT_CAP``."""

    def test_scan_stops_at_the_float_cap(self):
        # q1 = 313 at dt = 4e-4: the uncapped scan probed q = 512, 384, ...
        with pytest.raises(QSelectCapError) as raised:
            scan_detail(Condition("triple_legendre_dt4", 4e-4))
        assert raised.value.cap == TRIPLE_FLOAT_CAP
        assert f"q={TRIPLE_FLOAT_CAP}:" in str(raised.value)
        assert raised.value.lhs_at_cap == _probe("triple_legendre_dt4", TRIPLE_FLOAT_CAP, 4e-4)[0]

    def test_lower_condition_cap_still_binds(self):
        with pytest.raises(QSelectCapError) as raised:
            scan_detail(Condition("triple_legendre_dt4", 0.0196, cap=3))
        assert raised.value.cap == 3

    def test_other_conditions_keep_their_cap(self):
        assert scan_detail(Condition("triple_trig_dt4", 1e-4)).minimal_q == 1011

    def test_reference_orders_lie_below_the_cap(self):
        orders = [
            scan_detail(cond).minimal_q
            for cond in _reference_grid()
            if cond.id == "triple_legendre_dt4"
        ]
        assert len(orders) == 6
        assert max(orders) < TRIPLE_FLOAT_CAP


class TestReferenceColumns:
    """Frozen integer columns; full table equality runs in the acceptance suite."""

    def test_pair_legendre_powers_of_two(self, printed):
        frozen = printed["q_tables"]["37"]
        qs = [min_q(Condition("pair_legendre_dt3", 2.0**e)) for e in frozen["dt_log2"]]
        assert qs == frozen["pol"]

    def test_trig_columns_powers_of_two(self, printed):
        frozen = printed["q_tables"]["37"]
        dts = [2.0**e for e in frozen["dt_log2"]]
        assert (
            [min_q(Condition("pair_trig_tail_dt3", dt)) for dt in dts]
            == frozen["trig"]
        )
        assert (
            [min_q(Condition("pair_trig_dt3", dt)) for dt in dts]
            == frozen["trig_star"]
        )

    def test_pair_to_trig_ratio_list(self, printed):
        frozen = printed["q_tables"]["37"]
        dts = [2.0**e for e in frozen["dt_log2"]]
        pol = [min_q(Condition("pair_legendre_dt3", dt)) for dt in dts]
        trig = [min_q(Condition("pair_trig_tail_dt3", dt)) for dt in dts]
        ratios = [round(p / t, 2) for p, t in zip(pol, trig)]
        assert ratios == [1.67, 2.25, 2.43, 2.36, 2.41, 2.43, 2.45, 2.45]

    def test_mixed_order_columns(self, printed):
        frozen = printed["q_tables"]["39"]
        dts = [float(d) for d in frozen["dt"]]
        assert (
            [min_q(Condition("pair_legendre_dt4", dt)) for dt in dts]
            == frozen["q"]
        )
        assert (
            [min_q(Condition("triple_legendre_dt4", dt)) for dt in dts]
            == frozen["q1"]
        )
