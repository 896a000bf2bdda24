import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevar.panel import (
    PanelError,
    StandardizationStats,
    TimePanel,
    adf_stat,
    destandardize,
    lag_embed,
    log_returns,
    read_panel_csv,
    standardize,
    summary_stats,
    write_panel_csv,
)
from conftest import daily_panel


class TestTimePanel:
    def test_rejects_nan(self):
        with pytest.raises(PanelError, match="non-finite"):
            daily_panel([[1.0], [np.nan]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(PanelError, match="duplicate"):
            daily_panel([[1.0, 2.0]], names=("a", "a"))

    def test_rejects_nonincreasing_dates(self):
        d = date(2020, 1, 1)
        with pytest.raises(PanelError, match="increasing"):
            TimePanel((d, d), ("a",), np.ones((2, 1)))

    def test_values_read_only(self):
        panel = daily_panel([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0

    def test_position_lookup(self):
        panel = daily_panel([1.0, 2.0, 3.0])
        assert panel.position(date(2020, 1, 2)) == 1
        with pytest.raises(PanelError, match="not in panel"):
            panel.position(date(2021, 1, 1))


class TestLogReturns:
    def test_constant_series_gives_zeros(self):
        out = log_returns(daily_panel([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(out.values, np.zeros((2, 1)))

    def test_doubling_gives_ln2(self):
        out = log_returns(daily_panel([100.0, 200.0]))
        assert out.values[0, 0] == pytest.approx(0.6931471805599453, abs=1e-15)

    def test_one_to_e_gives_one(self):
        out = log_returns(daily_panel([1.0, math.e]))
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_dates_shift_to_later_day(self):
        panel = daily_panel([1.0, 2.0, 3.0])
        out = log_returns(panel)
        assert out.dates == panel.dates[1:]

    def test_nonpositive_price_names_series_and_date(self):
        panel = daily_panel([[1.0, 1.0], [2.0, -1.0]], names=("good", "bad"))
        with pytest.raises(PanelError, match="'bad'.*2020-01-02"):
            log_returns(panel)

    def test_exp_cumsum_roundtrip(self, rng):
        x = rng.standard_normal((40, 3))
        prices = daily_panel(np.exp(np.cumsum(x, axis=0)))
        out = log_returns(prices)
        np.testing.assert_allclose(out.values, x[1:], atol=1e-10)


class TestStandardize:
    def test_hand_example_population_sd(self):
        out, stats = standardize(daily_panel([1.0, 2.0, 3.0]))
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        np.testing.assert_allclose(out.values[:, 0], expected, atol=1e-12)
        assert stats.sds[0] == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_already_standard_unchanged(self):
        col = np.array([-1.0, 1.0])  # mean 0, population sd 1
        out, _ = standardize(daily_panel(col))
        np.testing.assert_allclose(out.values[:, 0], col, atol=1e-12)

    def test_constant_column_rejected_by_name(self):
        panel = daily_panel([[1.0, 5.0], [2.0, 5.0]], names=("ok", "flat"))
        with pytest.raises(PanelError, match="'flat'"):
            standardize(panel)

    def test_output_moments_property(self, rng):
        for _ in range(20):
            T = int(rng.integers(2, 60))
            K = int(rng.integers(1, 5))
            vals = rng.standard_normal((T, K)) * rng.uniform(0.1, 10) + rng.normal()
            if np.any(vals.std(axis=0) == 0):
                continue
            out, _ = standardize(daily_panel(vals))
            assert np.max(np.abs(out.values.mean(axis=0))) <= 1e-12
            assert np.max(np.abs(out.values.std(axis=0) - 1)) <= 1e-12


class TestDestandardize:
    def test_roundtrip(self, rng):
        panel = daily_panel(rng.standard_normal((30, 4)) * 3 + 7)
        std, stats = standardize(panel)
        back = destandardize(std, stats)
        np.testing.assert_allclose(back.values, panel.values, atol=1e-10)
        again, stats2 = standardize(back)
        np.testing.assert_allclose(again.values, std.values, atol=1e-10)

    def test_zeros_map_to_means(self):
        stats = StandardizationStats(np.array([2.0, -3.0]), np.array([1.5, 0.5]))
        panel = daily_panel(np.zeros((4, 2)))
        out = destandardize(panel, stats)
        np.testing.assert_array_equal(out.values, np.tile([2.0, -3.0], (4, 1)))

    def test_unit_panel_zero_means_gives_sds(self):
        stats = StandardizationStats(np.zeros(2), np.array([1.5, 0.5]))
        out = destandardize(daily_panel(np.ones((3, 2))), stats)
        np.testing.assert_array_equal(out.values, np.tile([1.5, 0.5], (3, 1)))

    def test_dimension_mismatch(self):
        stats = StandardizationStats(np.zeros(3), np.ones(3))
        with pytest.raises(PanelError, match="3 series"):
            destandardize(daily_panel(np.ones((3, 2))), stats)


class TestLagEmbed:
    def test_hand_layout_k1_p1(self):
        emb = lag_embed(daily_panel([1.0, 2.0, 3.0]), 1)
        np.testing.assert_array_equal(emb.Y, [[2.0, 3.0]])
        np.testing.assert_array_equal(emb.Z, [[1.0, 2.0]])

    def test_shapes_k2_p2(self, rng):
        emb = lag_embed(daily_panel(rng.standard_normal((10, 2))), 2)
        assert emb.Y.shape == (2, 8)
        assert emb.Z.shape == (4, 8)

    def test_p_equals_T_rejected(self):
        with pytest.raises(PanelError, match=">="):
            lag_embed(daily_panel([1.0, 2.0, 3.0]), 3)

    def test_column_stacking_order(self, rng):
        vals = rng.standard_normal((7, 2))
        emb = lag_embed(daily_panel(vals), 3)
        # column tau stacks [y_{tau+2}; y_{tau+1}; y_tau], target y_{tau+3}
        for tau in range(4):
            np.testing.assert_array_equal(emb.Y[:, tau], vals[tau + 3])
            np.testing.assert_array_equal(
                emb.Z[:, tau], np.concatenate([vals[tau + 2], vals[tau + 1], vals[tau]])
            )

    def test_noiseless_var_reconstruction_exact(self, rng):
        # y_{t} = A1 y_{t-1} + A2 y_{t-2} with known A reproduces Y from Z exactly
        K, p, T = 3, 2, 40
        A = rng.uniform(-0.3, 0.3, size=(K, K * p))
        vals = np.zeros((T, K))
        vals[0] = rng.standard_normal(K)
        vals[1] = rng.standard_normal(K)
        for t in range(2, T):
            vals[t] = A @ np.concatenate([vals[t - 1], vals[t - 2]])
        emb = lag_embed(daily_panel(vals), p)
        np.testing.assert_allclose(A @ emb.Z, emb.Y, atol=1e-12)

    def test_regressor_names_lag_major(self):
        emb = lag_embed(daily_panel(np.ones((5, 2)) * [[1.0, 2.0]] + np.arange(5)[:, None]), 2)
        assert emb.regressor_names() == ["s0.l1", "s1.l1", "s0.l2", "s1.l2"]


class TestSummaryStats:
    def test_range_is_max_minus_min(self, rng):
        panel = daily_panel(rng.standard_normal((50, 3)))
        rep = summary_stats(panel)
        np.testing.assert_array_equal(rep.value_range, rep.maximum - rep.minimum)

    def test_symmetric_sample_zero_skew(self):
        vals = np.concatenate([np.arange(1, 26), -np.arange(1, 26)]).astype(float)
        rep = summary_stats(daily_panel(vals))
        assert abs(rep.skewness[0]) < 1e-12

    def test_kurtosis_convention(self, rng):
        vals = rng.standard_normal(2000)
        panel = daily_panel(vals)
        excess = summary_stats(panel).kurtosis[0]
        raw = summary_stats(panel, excess_kurtosis=False).kurtosis[0]
        assert raw - excess == pytest.approx(3.0)
        assert abs(excess) < 0.5  # near 0 for a normal sample

    def test_too_short_rejected(self):
        with pytest.raises(PanelError, match="20"):
            summary_stats(daily_panel(np.arange(10.0)))


class TestAdf:
    # Monte-Carlo oracle: -2.86 is the 5% critical value of the
    # constant-included Dickey-Fuller distribution, -1.95 the 5% value of the
    # no-constant variant. A unit root should fail to reject at 5% in ~95% of
    # draws under the matching critical value.

    def test_random_walk_fails_to_reject_default(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            rw = np.cumsum(rng.standard_normal(2000))
            hits += adf_stat(rw, lags=1, constant=True) > -2.86
        assert hits >= 90

    def test_random_walk_fails_to_reject_no_constant(self):
        rng = np.random.default_rng(8)
        hits = 0
        for _ in range(100):
            rw = np.cumsum(rng.standard_normal(2000))
            hits += adf_stat(rw, lags=1, constant=False) > -1.95
        assert hits >= 90

    def test_white_noise_rejects(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(100):
            wn = rng.standard_normal(2000)
            hits += adf_stat(wn, lags=1, constant=True) < -2.86
        assert hits >= 95

    def test_too_short_for_lags(self):
        with pytest.raises(PanelError, match="too short"):
            adf_stat(np.arange(6.0), lags=3)


class TestCsvRoundtrip:
    def test_write_read_identity(self, tmp_path, rng):
        panel = daily_panel(rng.standard_normal((15, 3)), names=("a", "b", "c"))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.names == panel.names
        assert back.dates == panel.dates
        np.testing.assert_array_equal(back.values, panel.values)

    def test_missing_date_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("date,a\n2020-01-01,1.0\n2020-01-03,2.0\n")
        with pytest.raises(PanelError, match="missing dates"):
            read_panel_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,a\n2020-01-01,1.0\n")
        with pytest.raises(PanelError, match="first column"):
            read_panel_csv(path)

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        # blank lines count toward the line number and are skipped
        path = tmp_path / "text.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n\n2020-01-02,3.0,2.5\n"
                        "2020-01-03,4.0,n/a\n2020-01-04,x,1.0\n")
        with pytest.raises(PanelError, match=r"text\.csv:5: non-numeric value$"):
            read_panel_csv(path)
        # the first bad line is reported, whatever is wrong with a later one
        path.write_text(path.read_text() + "2020-01-05,1.0\n")
        with pytest.raises(PanelError, match=r"text\.csv:5: non-numeric value$"):
            read_panel_csv(path)

    def test_seventeen_digit_values_round_trip_bitwise(self, tmp_path, rng):
        # magnitudes over 600 decades, subnormals and signed zeros included
        values = rng.standard_normal((40, 4)) * 10.0 ** rng.integers(-300, 300, (40, 4))
        values[0] = [5e-324, -2.2250738585072014e-308, -0.0, 0.0]
        panel = daily_panel(values, names=("a", "b", "c", "d"))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert read_panel_csv(path).values.tobytes() == values.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2,
        max_size=40,
    )
)
def test_log_returns_inverts_exp_cumsum(xs):
    x = np.asarray(xs)
    prices = daily_panel(np.exp(np.cumsum(x)))
    out = log_returns(prices)
    np.testing.assert_allclose(out.values[:, 0], x[1:], atol=1e-10)
