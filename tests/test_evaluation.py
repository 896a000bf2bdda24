import math
from datetime import date, timedelta
from statistics import NormalDist

import numpy as np
import pytest

from sparsevar.evaluation import EvaluationError, epa_test, evaluate_forecasts, star_marks
from sparsevar.forecasting import ForecastSet

# e2 = 0, so the loss differential is d = e1^2 = [4, 1, 1, 0, 4, 1, 1, 4, 0, 1]:
# mean 1.7, centered c = d - 1.7, gamma0 = sum(c^2) / 10 = 24.1 / 10 and
# gamma1 = sum(c_t c_{t-1}) / 10 = -9.29 / 10.
E1 = [2.0, 1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0]
E2 = [0.0] * 10


def two_sided(stat):
    return 2.0 * (1.0 - NormalDist().cdf(abs(stat)))


class TestEpa:
    def test_h1_hand_values(self):
        # omega = gamma0; HLN factor sqrt((H + 1 - 2h + h(h-1)/H) / H) = sqrt(9 / 10)
        dm = 1.7 / math.sqrt(2.41 / 10)
        expected = dm * math.sqrt(0.9)
        res = epa_test(E1, E2, 1)
        assert res.statistic == pytest.approx(expected, rel=1e-12)
        assert res.statistic == pytest.approx(3.2852, abs=1e-4)
        assert res.p_value == pytest.approx(two_sided(expected), rel=1e-9)
        np.testing.assert_array_equal(res.loss_diff, [4, 1, 1, 0, 4, 1, 1, 4, 0, 1])

    def test_h2_one_autocovariance_term(self):
        # omega = gamma0 + 2 (1 - 1/2) gamma1 = 2.41 - 0.929 = 1.481;
        # HLN factor sqrt((10 + 1 - 4 + 2/10) / 10) = sqrt(0.72)
        dm = 1.7 / math.sqrt(1.481 / 10)
        expected = dm * math.sqrt(0.72)
        res = epa_test(E1, E2, 2)
        assert res.statistic == pytest.approx(expected, rel=1e-12)
        assert res.statistic == pytest.approx(3.7483, abs=1e-4)
        assert res.p_value == pytest.approx(two_sided(expected), rel=1e-9)

    def test_sign_follows_the_first_model(self):
        assert epa_test(E2, E1, 1).statistic == pytest.approx(-epa_test(E1, E2, 1).statistic)

    @pytest.mark.parametrize("h", [1, 3])
    def test_identical_losses_give_p_one(self, rng, h):
        e = rng.standard_normal(12)
        for other in (e, -e):
            res = epa_test(e, other, h)
            assert res.statistic == 0.0
            assert res.p_value == 1.0

    def test_bad_inputs(self):
        with pytest.raises(EvaluationError, match=">= 10"):
            epa_test(E1[:9], E2[:9], 1)
        with pytest.raises(EvaluationError, match="mismatch"):
            epa_test(E1, E2[:9], 1)
        with pytest.raises(EvaluationError, match="horizon"):
            epa_test(E1, E2, 0)


class TestStarMarks:
    def test_boundaries_are_strict(self):
        assert star_marks(0.01) == "**"
        assert star_marks(0.05) == "*"
        assert star_marks(0.10) == ""
        assert star_marks(math.nextafter(0.01, 0.0)) == "***"
        assert star_marks(math.nextafter(0.05, 0.0)) == "**"
        assert star_marks(math.nextafter(0.10, 0.0)) == "*"
        assert star_marks(0.0) == "***"
        assert star_marks(1.0) == ""

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(EvaluationError):
            star_marks(1.5)


def three_origin_set():
    """One series, horizons 1-2, origins d0..d2; the series is 1, 3, 2 on
    d1..d3 and unobserved on d4, so origin d2's h = 2 actual is NaN."""
    d0 = date(2021, 3, 1)
    origins = tuple(d0 + timedelta(days=i) for i in range(3))
    actuals = np.array([[1.0, 3.0], [3.0, 2.0], [2.0, np.nan]])[:, :, None]
    values = np.array([[2.0, 2.0], [2.0, 4.0], [1.0, 0.0]])[:, :, None]
    return ForecastSet(origins=origins, horizons=(1, 2), names=("a",),
                       values=values, actuals=actuals)


class TestEvaluateForecasts:
    def cells(self, mda_form):
        report = evaluate_forecasts({"m": three_origin_set()}, mda_form=mda_form)
        assert len(report.cells) == 8
        return {(c.series, c.horizon, c.metric): c.value for c in report.cells}

    def test_consecutive_form(self):
        cells = self.cells("consecutive")
        # h = 1 errors -1, 1, 1; h = 2 errors 1, -2 (the NaN target is dropped)
        assert cells["a", 1, "rmse"] == 1.0
        assert cells["a", 2, "rmse"] == math.sqrt(2.5)
        # h = 1: actual changes +2, -1 against forecast changes 0, -1
        assert cells["a", 1, "mda"] == 0.5
        # h = 2: actual change -1 against forecast change +2
        assert cells["a", 2, "mda"] == 0.0
        for h in (1, 2):
            for metric in ("rmse", "mda"):
                assert cells["average", h, metric] == cells["a", h, metric]

    def test_origin_form(self):
        cells = self.cells("origin")
        # h = 1 base is the value at the origin (1 at d1, 3 at d2; none at d0):
        # actual changes +2, -1 against forecast changes 2 - 1, 1 - 3
        assert cells["a", 1, "mda"] == 1.0
        # h = 2 base is each origin's own h = 1 (actual 1, 3; forecast 2, 2):
        # actual changes +2, -1 against forecast changes 0, +2
        assert cells["a", 2, "mda"] == 0.0
        assert cells["a", 1, "rmse"] == 1.0

    def test_unknown_form(self):
        with pytest.raises(EvaluationError, match="mda_form"):
            evaluate_forecasts({"m": three_origin_set()}, mda_form="daily")
