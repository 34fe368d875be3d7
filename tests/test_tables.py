"""Numbered-table registries and their mapping onto library calls."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stochint.coeffs import bar_coeff
from stochint.errors import series_error
from stochint.qselect import Condition, min_q
from stochint.tables import (
    COEFF_TABLES,
    DEFAULT_ERROR_QS,
    ERROR_TABLES,
    Q_TABLES,
    compute_coeff_table,
    compute_error_table,
    compute_q_table,
    pol_over_trig_ratios,
)


class TestRegistries:
    def test_coeff_table_numbers(self):
        assert sorted(COEFF_TABLES) == list(range(4, 37))

    def test_error_table_numbers(self):
        assert sorted(ERROR_TABLES) == [1, 2, 3, 38, 41, 42]

    def test_q_table_numbers(self):
        assert sorted(Q_TABLES) == [37, 39, 40]

    def test_layout_groups(self):
        # 4-10: triples 7x7; 11-19: quadruples 3x3; 20-28: weighted
        # triples 3x3; 29-36: quintuples 2x2.
        for n in range(4, 11):
            layout = COEFF_TABLES[n]
            assert (layout.rows, layout.cols) == (7, 7)
            assert layout.spec.k == 3 and layout.spec.weights == (0, 0, 0)
        for n in range(11, 20):
            layout = COEFF_TABLES[n]
            assert (layout.rows, layout.cols) == (3, 3)
            assert layout.spec.k == 4
        for n in range(20, 29):
            layout = COEFF_TABLES[n]
            assert (layout.rows, layout.cols) == (3, 3)
            assert layout.spec.k == 3 and sum(layout.spec.weights) == 1
        for n in range(29, 37):
            layout = COEFF_TABLES[n]
            assert (layout.rows, layout.cols) == (2, 2)
            assert layout.spec.k == 5

    def test_weighted_triples_cover_all_weight_positions(self):
        seen = {COEFF_TABLES[n].spec.weights for n in range(20, 29)}
        assert seen == {(0, 0, 1), (1, 0, 0), (0, 1, 0)}


class TestCoeffTables:
    def test_unknown_number(self):
        with pytest.raises(ValueError):
            compute_coeff_table(3)
        with pytest.raises(ValueError):
            compute_coeff_table(37)

    def test_spot_cells(self):
        t4 = compute_coeff_table(4)
        assert t4[0][0] == Fraction(4, 3)
        assert all(isinstance(v, Fraction) for row in t4 for v in row)
        t20 = compute_coeff_table(20)
        assert t20[0][0] == Fraction(-2, 1)

    def test_cells_are_bar_coefficients(self):
        for number in (5, 13, 24, 31):
            layout = COEFF_TABLES[number]
            grid = compute_coeff_table(number)
            assert len(grid) == layout.rows
            assert all(len(row) == layout.cols for row in grid)
            for row in range(layout.rows):
                for col in range(layout.cols):
                    assert grid[row][col] == bar_coeff(
                        layout.spec, layout.js(row, col)
                    )

    def test_triple_outer_index_steps_with_table_number(self):
        # Tables 4..10 scan the outermost basis index 0..6.
        for number in range(4, 11):
            assert COEFF_TABLES[number].js(1, 2)[-1] == number - 4


class TestErrorTables:
    def test_unknown_number(self):
        with pytest.raises(ValueError):
            compute_error_table(4)

    def test_default_orders(self):
        assert DEFAULT_ERROR_QS == (1, 10, 100, 1000, 10000)

    def test_normalization(self):
        for number, table in ERROR_TABLES.items():
            values = compute_error_table(number, qs=(1, 10))
            for q, value in zip((1, 10), values):
                assert value == pytest.approx(
                    table.factor * series_error(table.series, q, 1.0), rel=1e-14
                )

    def test_values_decrease(self):
        for number in ERROR_TABLES:
            values = compute_error_table(number)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_unit_interval_normalization_is_dt_free(self):
        # factor * error / dt**power at dt = 1 equals the raw series
        # scaled by the declared factor; the power only matters for
        # reconstructing dimensional values.
        table = ERROR_TABLES[1]
        dt = 0.25
        raw = series_error(table.series, 5, dt)
        normalized = compute_error_table(1, qs=(5,))[0]
        assert raw == pytest.approx(normalized * dt**table.power / table.factor,
                                    rel=1e-14)


class TestQTables:
    def test_unknown_number(self):
        with pytest.raises(ValueError):
            compute_q_table(38)

    def test_columns_match_single_condition_calls(self):
        for number in (37, 39):
            table = Q_TABLES[number]
            dts = table.dts[:2]
            cols = compute_q_table(number, dts=dts)
            assert set(cols) == {name for name, _ in table.columns}
            for name, cond_id in table.columns:
                expected = [min_q(Condition(cond_id, dt)) for dt in dts]
                assert cols[name] == expected

    def test_dyadic_interval_lengths(self):
        assert Q_TABLES[37].dts == tuple(2.0**e for e in range(-5, -13, -1))
        assert Q_TABLES[39].dts == Q_TABLES[40].dts

    def test_ratio_list_matches_columns(self):
        cols = compute_q_table(37)
        ratios = pol_over_trig_ratios()
        assert ratios == [
            round(p / t, 2) for p, t in zip(cols["pol"], cols["trig"])
        ]
        assert len(ratios) == 8
