import csv
import math
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevar import panel as panel_mod
from sparsevar.panel import (
    PanelError,
    StandardizationStats,
    TimePanel,
    _date_ordinal,
    adf_stat,
    destandardize,
    lag_embed,
    log_returns,
    number,
    read_panel_csv,
    standardize,
    summary_stats,
    write_csv,
    write_panel_csv,
    write_text,
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
        for level in (5.0, -0.25, 1e9):
            panel = daily_panel([[1.0, level], [2.0, level], [4.0, level]], names=("ok", "flat"))
            with pytest.raises(PanelError, match="'flat'"):
                standardize(panel)

    @pytest.mark.parametrize("case", ["one_series", "volume_offsets", "mixed_signs"])
    def test_bitwise_equal_to_the_numpy_reference(self, rng, case):
        values = {
            "one_series": rng.standard_normal((50, 1)) * 3 + 2,
            # volume-like: offsets of 1e9 and more, unit noise
            "volume_offsets": np.array([1e9, 2e9, 7e9]) + rng.standard_normal((200, 3)),
            "mixed_signs": rng.standard_normal((120, 4)) * [1e-3, 1, 1e3, 1e6] + [-5, 0, 5e3, -1e7],
        }[case]
        out, stats = standardize(daily_panel(values))
        means, sds = values.mean(0), values.std(0)
        assert stats.means.tobytes() == means.tobytes() and stats.sds.tobytes() == sds.tobytes()
        assert out.values.tobytes() == ((values - means) / sds).tobytes()
        assert out.values.flags.c_contiguous and not out.values.flags.writeable

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

    def test_writer_quotes_spells_numbers_and_makes_its_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "out.csv"
        rows = [["a,b", number(0.1), number(math.nan)], ["c", 2, number(math.nan, "NA")]]
        write_csv(path, ["name", "x", "y"], iter(rows), trailer="# end\n")
        assert path.read_bytes() == (b'name,x,y\r\n"a,b",0.10000000000000001,\r\n'
                                     b"c,2,NA\r\n# end\n")
        write_text(tmp_path / "other" / "t.json", "{}\n")
        assert (tmp_path / "other" / "t.json").read_bytes() == b"{}\n"



def reference_read(path):
    """A panel CSV read row by row with ``csv`` and ``float``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    dates = tuple(date.fromisoformat(row[0].strip()) for row in rows)
    values = np.array([[float(x) for x in row[1:]] for row in rows])
    return tuple(h.strip() for h in header[1:]), dates, values


def panel_rows(rng, n_rows=6, start=date(2020, 1, 1)):
    """Header and cells of a 3-series panel with 17-digit values over 600 decades."""
    values = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    return [["date", "a", "b", "c"]] + [
        [(start + timedelta(days=t)).isoformat(), *("%.17g" % x for x in values[t])]
        for t in range(n_rows)]


def layout_lines(rows, layout):
    """The lines of a CSV of ``rows``, each cell padded or quoted by ``layout``."""
    if layout == "padded":
        rows = [[f" {c}\t" for c in row] for row in rows]
    if layout == "space_before_date":  # 11 characters, all kept by a U11 cell
        rows = [[f" {row[0]}", *row[1:]] for row in rows]
    if layout == "quoted":
        rows = [[f'"{c}"' for c in row] for row in rows]
    return [",".join(row) for row in rows]


class TestCsvReader:
    @pytest.mark.parametrize("layout", ["crlf", "padded", "quoted", "blank_lines", "bom",
                                        "space_before_date", "first_day", "last_day",
                                        "leap_day_2000", "leap_day_2020"])
    def test_matches_csv_and_float_bitwise(self, tmp_path, rng, layout):
        # canonical cells from the calendar's first day, to its last, and over the leap
        # days of a 400th and a 4th year
        start = {"first_day": date(1, 1, 1), "last_day": date(9999, 12, 26),
                 "leap_day_2000": date(2000, 2, 26), "leap_day_2020": date(2020, 2, 26)}
        lines = layout_lines(panel_rows(rng, start=start.get(layout, date(2020, 1, 1))), layout)
        if layout == "quoted":
            lines[0] = '"date","a, the first","b ""2""",c'
        if layout == "blank_lines":
            lines = lines[:1] + ["", ""] + lines[1:4] + [""] + lines[4:]
        path = tmp_path / "panel.csv"
        path.write_text("\r\n".join(lines) + "\r\n" if layout == "crlf" else "\n".join(lines),
                        newline="", encoding="utf-8-sig" if layout == "bom" else "utf-8")
        panel = read_panel_csv(path)
        names, dates, values = reference_read(path)
        assert panel.names == names and panel.dates == dates
        assert panel.values.tobytes() == values.tobytes()
        if layout == "quoted":
            assert names == ("a, the first", 'b "2"', "c")

    @pytest.mark.parametrize("text, error", [
        ("date,a,b,a\n2020-01-01,1.0,2.0,3.0\n", r"duplicate series names: \['a'\]"),
        ("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.0,nan\n",
         "non-finite value in series 'b' on 2020-01-02"),
        ("date,a,b\n 2020-01-01,1.0,2.0\n2020-01-02,-inf,2.0\n",
         "non-finite value in series 'a' on 2020-01-02"),
    ])
    def test_names_and_values_are_checked_as_a_panel_checks_them(self, tmp_path, text, error):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with pytest.raises(PanelError, match=error):
            read_panel_csv(path)

    @pytest.mark.parametrize("layout", ["canonical", "space_before_date"])
    def test_panel_is_built_from_its_checked_parts(self, tmp_path, rng, monkeypatch, layout):
        # the reader checks the days itself, so the public constructor's per-date loop and
        # second copy do not run; the values are one contiguous read-only copy
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(layout_lines(panel_rows(rng), layout)) + "\n")
        names, dates, values = reference_read(path)

        def refused(self):
            raise AssertionError("TimePanel.__post_init__ ran")

        monkeypatch.setattr(panel_mod.TimePanel, "__post_init__", refused)
        panel = read_panel_csv(path)
        assert panel.names == names and panel.dates == dates
        assert panel.values.tobytes() == values.tobytes()
        assert panel.values.flags.c_contiguous and not panel.values.flags.writeable

    @pytest.mark.parametrize("line, error", [
        ("2020-01-03,1.0,2.0,3.0", "expected 3 fields"),
        ("2020-01-03,1.0", "expected 3 fields"),
        ("   ", "expected 3 fields"),
        ("2020-01-33,1.0,2.0", "bad date '2020-01-33'"),
        # days and months not in the calendar, and cells that are not YYYY-MM-DD in ASCII
        *((f"{cell},1.0,2.0", f"bad date '{cell}'") for cell in [
            "2019-02-29", "1900-02-29", "2020-04-31", "2020-00-10", "2020-13-01", "0000-01-01",
            "2020-1-01", "２０２０-01-03", "2020-01-0３", "+020-01-03", "2020-01-03x"]),
        ("2020-01-03\0,1.0,2.0", "bad date '2020-01-03\\x00'"),  # a U11 cell drops the NUL
        # Python 3.11's date.fromisoformat reads both as 2020-01-03; 3.10 rejects both
        ("20200103,1.0,2.0", "bad date '20200103'"),
        ("2020-W01-5,1.0,2.0", "bad date '2020-W01-5'"),
        ("2020-01-03,1.0,abc", "non-numeric value"),
        ("2020-01-03,#5,1.0", "non-numeric value"),
        ("2020-01-03,1.0,1_000", "non-numeric value"),
        ("2020-01-03,,1.0", "non-numeric value"),
    ])
    def test_bad_line_names_its_line(self, tmp_path, line, error):
        # blank lines count toward the line number
        path = tmp_path / "bad.csv"
        path.write_text(f"date,a,b\n2020-01-01,1.0,2.0\n\n2020-01-02,3.0,4.0\n{line}\n"
                        "2020-01-04,5.0,6.0\n", encoding="utf-8")
        with pytest.raises(PanelError, match=rf"bad\.csv:5: {re.escape(error)}$"):
            read_panel_csv(path)

    @pytest.mark.parametrize("layout, calls", [("canonical", 0), ("crlf", 0), ("quoted", 0),
                                               ("padded", 6), ("space_before_date", 6),
                                               ("padded_later", 6)])
    def test_only_other_date_cells_call_the_converter(self, tmp_path, rng, monkeypatch,
                                                      layout, calls):
        # a canonical file is parsed in loadtxt's C pass (exact=False); one whose first date
        # is not exact, per line at once; one with a later date not exact, per line after it
        passes = {"padded": [True], "space_before_date": [True], "padded_later": [False, True]}
        seen, made, read_body = [], [], panel_mod._read_body
        monkeypatch.setattr("sparsevar.panel._date_ordinal",
                            lambda cell: seen.append(cell) or _date_ordinal(cell))
        monkeypatch.setattr("sparsevar.panel._read_body",
                            lambda path, exact: made.append(exact) or read_body(path, exact=exact))
        path = tmp_path / "panel.csv"
        lines = layout_lines(panel_rows(rng), layout.removesuffix("_later"))
        if layout == "padded_later":
            lines = layout_lines(panel_rows(rng), "canonical")[:4] + lines[4:]
        path.write_text(("\r\n" if layout == "crlf" else "\n").join(lines), newline="")
        assert read_panel_csv(path).dates == reference_read(path)[1]
        assert (len(seen), made) == (calls, passes.get(layout, [False]))

    def test_underscore_digit_groups_are_rejected(self, tmp_path):
        # float accepts them; the reader's parser does not, and says where
        assert float("1_000") == 1000.0
        path = tmp_path / "grouped.csv"
        path.write_text("date,a\n2020-01-01,1000\n2020-01-02,1_000\n")
        with pytest.raises(PanelError, match=r"grouped\.csv:3: non-numeric value$"):
            read_panel_csv(path)

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)])
    def test_first_bad_line_wins_whatever_its_kind(self, tmp_path, order):
        bad = ["2020-01-03,1.0", "2020-01-3x,1.0,2.0", "2020-01-03,x,2.0",
               "2020-01-03,1.0,2.0,3.0"]
        errors = ["expected 3 fields", "bad date '2020-01-3x'", "non-numeric value",
                  "expected 3 fields"]
        path = tmp_path / "bad.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n"
                        + "".join(bad[i] + "\n" for i in order))
        with pytest.raises(PanelError, match=rf"bad\.csv:4: {errors[order[0]]}$"):
            read_panel_csv(path)

    def test_every_line_too_wide_is_reported_at_the_first(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("date,a\n\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n")
        with pytest.raises(PanelError, match=r"wide\.csv:3: expected 2 fields$"):
            read_panel_csv(path)

    @pytest.mark.parametrize("header, bad_row, gap", [
        (b"date,\xe9", b"", b"\n"),
        (b"date,a", b"2020-01-10,\xe9\n", b"\n"),
        # past the first 8 KB read: it fails inside np.loadtxt, whose ValueError sends
        # the reader to _bad_line, which reads the file again
        (b"date,a", b"2020-01-10,\xe9\n", b"\n" * 9000),
    ])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, header, bad_row, gap):
        rows = gap.join(f"2020-01-{d:02d},{d}.0".encode() for d in range(1, 10))
        path = tmp_path / "latin1.csv"
        path.write_bytes(header + b"\n" + rows + b"\n" + bad_row)
        with pytest.raises(PanelError, match=r"latin1\.csv: not UTF-8 text \(invalid "):
            read_panel_csv(path)

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("date,a,b\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PanelError, match="no data rows"):
                read_panel_csv(path)


def same_panel(derived, dates, names, values):
    """The derived panel equals a validated TimePanel of the same parts, read-only."""
    validated = TimePanel(dates, names, values)
    assert derived.dates == validated.dates and derived.names == validated.names
    assert derived.values.tobytes() == validated.values.tobytes()
    assert derived.values.shape == validated.values.shape
    assert not derived.values.flags.writeable


class TestDerivedPanels:
    def test_slice_rows_is_a_read_only_view(self, rng):
        panel = daily_panel(rng.standard_normal((12, 3)))
        part = panel.slice_rows(3, 9)
        assert np.shares_memory(part.values, panel.values)
        same_panel(part, panel.dates[3:9], panel.names, panel.values[3:9])
        with pytest.raises(ValueError):
            part.values[0, 0] = 1.0

    def test_standardize_and_destandardize(self, rng):
        panel = daily_panel(rng.standard_normal((12, 3)) * 5 + 2)
        std, stats = standardize(panel)
        same_panel(std, panel.dates, panel.names, stats.transform(panel.values))
        back = destandardize(std, stats)
        same_panel(back, panel.dates, panel.names, stats.inverse(std.values))

    def test_cv_window_in_training_units(self, rng):
        panel = daily_panel(rng.standard_normal((40, 2)))
        _, stats = standardize(panel.slice_rows(0, 30))
        window = panel.slice_rows(28, 40)
        scaled = window.with_values(stats.transform(window.values))
        same_panel(scaled, panel.dates[28:40], panel.names, stats.transform(panel.values[28:40]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_with_values_rejects_non_finite(self, bad):
        panel = daily_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        values = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(PanelError, match="non-finite value in series 'b' on 2020-01-02"):
            panel.with_values(values)

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (3, 2), (1, 2, 2)])
    def test_with_values_rejects_another_shape(self, shape):
        panel = daily_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        with pytest.raises(PanelError, match=rf"values of shape \({shape[0]},"):
            panel.with_values(np.ones(shape))

    def test_with_values_keeps_its_own_copy(self):
        panel = daily_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
        base = np.array([[5.0, 6.0], [7.0, 8.0]])
        derived = panel.with_values(base[:, :])
        base[0, 0] = -1.0
        assert base.flags.writeable and derived.values[0, 0] == 5.0
        assert not derived.values.flags.writeable

    def test_overflowing_destandardize_raises(self):
        stats = StandardizationStats(np.zeros(1), np.full(1, 1e300))
        with np.errstate(over="ignore"), pytest.raises(PanelError, match="non-finite"):
            destandardize(daily_panel([[1.0], [1e10]]), stats)

    @pytest.mark.parametrize("dates, names, values, error", [
        ((date(2020, 1, 1),), ("a",), np.ones(1), "2-D"),
        ((date(2020, 1, 1),), ("a",), np.ones((2, 1)), "2 rows but 1 dates"),
        ((date(2020, 1, 1),), ("a",), np.ones((1, 2)), "2 columns but 1 names"),
        ((date(2020, 1, 1),), ("a", "a"), np.ones((1, 2)), "duplicate"),
        ((date(2020, 1, 2), date(2020, 1, 1)), ("a",), np.ones((2, 1)), "increasing"),
        ((date(2020, 1, 1),), ("a",), np.full((1, 1), np.inf), "non-finite"),
    ])
    def test_public_construction_checks_everything(self, dates, names, values, error):
        with pytest.raises(PanelError, match=error):
            TimePanel(dates, names, values)


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


@settings(max_examples=50, deadline=None)
@given(
    start=st.dates(date(1, 1, 1), date(9998, 12, 31)),
    values=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=1, max_size=40),
    layout=st.sampled_from(["canonical", "quoted", "padded", "crlf"]),
)
def test_read_equals_the_reference_on_any_calendar(tmp_path_factory, start, values, layout):
    rows = [["date", "a", "b", "c"]] + [
        [(start + timedelta(days=t)).isoformat(), *("%.17g" % x for x in row)]
        for t, row in enumerate(values)]
    path = tmp_path_factory.mktemp("calendar") / "panel.csv"
    path.write_text(("\r\n" if layout == "crlf" else "\n").join(layout_lines(rows, layout)),
                    newline="")
    panel = read_panel_csv(path)
    names, dates, reference = reference_read(path)
    assert panel.names == names and panel.dates == dates
    assert panel.values.tobytes() == reference.tobytes()
