from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevar.ingestion import (
    IngestionError,
    MonthlyIndex,
    ScoredItem,
    SentimentConfig,
    compound_normalize,
    daily_aggregate,
    load_monthly_index_csv,
    load_scored_items_csv,
    load_trend_chunks,
    rescale_gtrends,
)


class TestCompoundNormalize:
    def test_zero_maps_to_zero(self):
        assert compound_normalize(0.0) == 0.0

    def test_hand_value_alpha_15(self):
        # 4 / sqrt(16 + 15) = 4 / sqrt(31)
        assert compound_normalize(4.0) == pytest.approx(0.7184212081070996, abs=1e-9)

    def test_bounded_for_large_input(self):
        assert abs(compound_normalize(1e7)) < 1.0
        assert compound_normalize(1e7) == pytest.approx(1.0, abs=1e-6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(IngestionError):
            SentimentConfig(alpha=0.0)

    # valence sums are bounded by a few hundred in practice; within that range
    # the strict float64 inequalities below hold without slack
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_bounded_and_odd(self, x):
        y = compound_normalize(x)
        assert -1.0 < y < 1.0
        assert compound_normalize(-x) == -y

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-200, max_value=200, allow_nan=False),
        st.floats(min_value=1e-3, max_value=200, allow_nan=False),
    )
    def test_strictly_monotone(self, x, dx):
        assert compound_normalize(x + dx) > compound_normalize(x)


class TestDailyAggregate:
    cfg = SentimentConfig()

    def item(self, day, hour, x):
        return ScoredItem(datetime(2021, 3, day, hour, tzinfo=timezone.utc), x)

    def test_all_zero_valence_gives_zero_series(self):
        items = [self.item(d, 12, 0.0) for d in range(1, 6)]
        out = daily_aggregate(items, self.cfg, (date(2021, 3, 1), date(2021, 3, 5)))
        np.testing.assert_array_equal(out.values, np.zeros((5, 1)))

    def test_symmetric_pair_cancels(self):
        items = [self.item(1, 9, 4.0), self.item(1, 17, -4.0)]
        out = daily_aggregate(items, self.cfg, (date(2021, 3, 1), date(2021, 3, 1)))
        assert out.values[0, 0] == 0.0

    def test_hand_mean(self):
        # mean of {4 -> 4/sqrt(31), 0 -> 0} = 0.359210...
        items = [self.item(1, 9, 4.0), self.item(1, 10, 0.0)]
        out = daily_aggregate(items, self.cfg, (date(2021, 3, 1), date(2021, 3, 1)))
        assert out.values[0, 0] == pytest.approx(0.3592106040535498, abs=1e-9)

    def test_fill_zero_and_carry(self):
        items = [self.item(1, 9, 4.0)]
        window = (date(2021, 3, 1), date(2021, 3, 3))
        zero = daily_aggregate(items, self.cfg, window, fill="zero")
        assert zero.values[1, 0] == 0.0 and zero.values[2, 0] == 0.0
        carry = daily_aggregate(items, self.cfg, window, fill="carry")
        assert carry.values[1, 0] == carry.values[0, 0] != 0.0

    def test_out_of_window_item_rejected(self):
        items = [self.item(9, 9, 1.0)]
        with pytest.raises(IngestionError, match="outside window"):
            daily_aggregate(items, self.cfg, (date(2021, 3, 1), date(2021, 3, 2)))

    def test_timezone_converted_to_utc(self):
        # 23:30 UTC-2 on March 1 is 01:30 UTC March 2
        from datetime import timedelta as td

        ts = datetime(2021, 3, 1, 23, 30, tzinfo=timezone(td(hours=-2)))
        out = daily_aggregate(
            [ScoredItem(ts, 4.0)], self.cfg, (date(2021, 3, 1), date(2021, 3, 2))
        )
        assert out.values[0, 0] == 0.0
        assert out.values[1, 0] > 0.0


class TestRescaleGtrends:
    def chunks(self):
        return {
            (2021, 1): np.full(31, 40.0),
            (2021, 2): np.full(28, 80.0),
        }

    def monthly(self, w1, w2):
        return MonthlyIndex(((2021, 1), (2021, 2)), np.array([w1, w2]))

    def test_identity_at_weight_100(self):
        out = rescale_gtrends(self.chunks(), self.monthly(100.0, 100.0))
        np.testing.assert_array_equal(out.values[:31, 0], np.full(31, 40.0))
        np.testing.assert_array_equal(out.values[31:, 0], np.full(28, 80.0))
        assert out.dates[0] == date(2021, 1, 1)
        assert out.dates[-1] == date(2021, 2, 28)

    def test_weight_50_halves(self):
        full = rescale_gtrends(self.chunks(), self.monthly(100.0, 100.0))
        half = rescale_gtrends(self.chunks(), self.monthly(100.0, 50.0))
        np.testing.assert_allclose(half.values[31:, 0], full.values[31:, 0] / 2)

    def test_weight_zero_zeroes_month(self):
        out = rescale_gtrends(self.chunks(), self.monthly(0.0, 100.0))
        np.testing.assert_array_equal(out.values[:31, 0], np.zeros(31))

    def test_missing_month_rejected(self):
        with pytest.raises(IngestionError, match="missing daily chunk"):
            rescale_gtrends({(2021, 1): np.full(31, 1.0)}, self.monthly(50.0, 50.0))

    def test_wrong_chunk_length_rejected(self):
        bad = {(2021, 1): np.full(30, 1.0), (2021, 2): np.full(28, 1.0)}
        with pytest.raises(IngestionError, match="calendar"):
            rescale_gtrends(bad, self.monthly(50.0, 50.0))

    def test_homogeneous_in_weights(self, rng):
        chunks = {
            (2021, 1): rng.uniform(0, 100, 31),
            (2021, 2): rng.uniform(0, 100, 28),
        }
        w = np.array([80.0, 60.0])
        ref = rescale_gtrends(chunks, MonthlyIndex(((2021, 1), (2021, 2)), w))
        scaled = rescale_gtrends(chunks, MonthlyIndex(((2021, 1), (2021, 2)), 0.5 * w))
        np.testing.assert_allclose(scaled.values, 0.5 * ref.values, atol=1e-14)

    def test_monthly_mean_proportionality(self, rng):
        # re-aggregated monthly means equal weights * chunk means / 100
        chunks = {
            (2021, 1): rng.uniform(0, 100, 31),
            (2021, 2): rng.uniform(0, 100, 28),
        }
        w = np.array([73.0, 21.0])
        out = rescale_gtrends(chunks, MonthlyIndex(((2021, 1), (2021, 2)), w))
        jan = out.values[:31, 0].mean()
        feb = out.values[31:, 0].mean()
        assert jan == pytest.approx(w[0] * chunks[(2021, 1)].mean() / 100, rel=1e-12)
        assert feb == pytest.approx(w[1] * chunks[(2021, 2)].mean() / 100, rel=1e-12)

    def test_noncontiguous_months_rejected(self):
        with pytest.raises(IngestionError, match="contiguous"):
            MonthlyIndex(((2021, 1), (2021, 3)), np.array([1.0, 1.0]))


class TestLoaders:
    def test_scored_items_csv(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "timestamp,valence_sum\n2021-03-01T09:00:00,4.0\n2021-03-01T10:00:00,-2.5\n"
        )
        items = load_scored_items_csv(path)
        assert len(items) == 2
        assert items[1].valence_sum == -2.5

    def test_monthly_index_csv(self, tmp_path):
        path = tmp_path / "monthly.csv"
        path.write_text("month,weight\n2021-01,100\n2021-02,55\n")
        idx = load_monthly_index_csv(path)
        assert idx.months == ((2021, 1), (2021, 2))
        np.testing.assert_array_equal(idx.weights, [100.0, 55.0])

    def test_trend_chunks_dir(self, tmp_path):
        lines = ["date,value"] + [f"2021-02-{d:02d},{d}.0" for d in range(1, 29)]
        (tmp_path / "2021-02.csv").write_text("\n".join(lines) + "\n")
        chunks = load_trend_chunks(tmp_path)
        assert set(chunks) == {(2021, 2)}
        np.testing.assert_array_equal(chunks[(2021, 2)], np.arange(1.0, 29.0))

    def test_trend_chunk_incomplete_month(self, tmp_path):
        lines = ["date,value"] + [f"2021-02-{d:02d},{d}.0" for d in range(1, 28)]
        (tmp_path / "2021-02.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="every day"):
            load_trend_chunks(tmp_path)


class TestLoaderHeaders:
    @pytest.mark.parametrize("load, name, text", [
        (load_scored_items_csv, "items.csv", "time,valence_sum,extra\n2021-03-01T09:00:00,4.0,x\n"),
        (load_monthly_index_csv, "monthly.csv", "month,w\n2021-01,100\n"),
        (load_trend_chunks, "2021-02.csv", "day,value,extra\n2021-02-01,1.0,x\n"),
    ])
    def test_missing_column_rejected_despite_an_extra_one(self, tmp_path, load, name, text):
        (tmp_path / name).write_text(text)
        target = tmp_path if load is load_trend_chunks else tmp_path / name
        with pytest.raises(IngestionError, match="need columns"):
            load(target)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        bom = {"encoding": "utf-8-sig"}
        (tmp_path / "items.csv").write_text("timestamp,valence_sum\n2021-03-01T09:00:00,4.0\n",
                                            **bom)
        (tmp_path / "monthly.csv").write_text("month,weight\n2021-02,55\n", **bom)
        (tmp_path / "trends").mkdir()
        (tmp_path / "trends" / "2021-02.csv").write_text(
            "date,value\n" + "".join(f"2021-02-{d:02d},{d}.0\n" for d in range(1, 29)), **bom)
        assert load_scored_items_csv(tmp_path / "items.csv")[0].valence_sum == 4.0
        assert load_monthly_index_csv(tmp_path / "monthly.csv").months == ((2021, 2),)
        np.testing.assert_array_equal(load_trend_chunks(tmp_path / "trends")[(2021, 2)],
                                      np.arange(1.0, 29.0))

    @pytest.mark.parametrize("load, name, text", [
        (load_scored_items_csv, "items.csv", b"timestamp,valence_sum\n2021-03-01T09:00:00,\xe9\n"),
        (load_monthly_index_csv, "monthly.csv", b"month,weight\xe9\n2021-01,100\n"),
        (load_trend_chunks, "2021-02.csv", b"date,value\n2021-02-01,1.0\xe9\n"),
    ])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, load, name, text):
        (tmp_path / name).write_bytes(text)
        target = tmp_path if load is load_trend_chunks else tmp_path / name
        with pytest.raises(IngestionError, match=rf"{name}: not UTF-8 text"):
            load(target)

    @pytest.mark.parametrize("load, name, text", [
        (load_scored_items_csv, "items.csv", "timestamp,valence_sum\n2021-03-01T09:00:00,4\n\n\nx,1\n"),
        (load_monthly_index_csv, "monthly.csv", "month,weight\n2021-01,100\n\n\n2021-02,x\n"),
        (load_trend_chunks, "2021-02.csv", "date,value\n2021-02-01,1.0\n\n\n2021-02-02,x\n"),
        # short rows, and dates that Python 3.11's date.fromisoformat reads as 2021-02-02
        (load_scored_items_csv, "items.csv",
         "timestamp,valence_sum\n2021-03-01T09:00:00,4\n\n\n2021-03-01T10:00:00\n"),
        (load_monthly_index_csv, "monthly.csv", "month,weight\n2021-01,100\n\n\n2021-02\n"),
        (load_trend_chunks, "2021-02.csv", "date,value\n2021-02-01,1.0\n\n\n2021-02-02\n"),
        (load_trend_chunks, "2021-02.csv", "date,value\n2021-02-01,1.0\n\n\n20210202,2.0\n"),
        (load_trend_chunks, "2021-02.csv", "date,value\n2021-02-01,1.0\n\n\n2021-W05-2,2.0\n"),
    ])
    def test_error_names_the_physical_line_after_blank_lines(self, tmp_path, load, name, text):
        (tmp_path / name).write_text(text)
        target = tmp_path if load is load_trend_chunks else tmp_path / name
        with pytest.raises(IngestionError, match=rf"{name}:5: bad row"):
            load(target)
