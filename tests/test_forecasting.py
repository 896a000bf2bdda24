from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from sparsevar import forecasting
from sparsevar.cv import WalkForwardPlan, select_lambda
from sparsevar.forecasting import (
    ForecastError,
    iterate_forecast,
    read_forecast_csv,
    recursive_exercise,
    write_forecast_csv,
)
from sparsevar.lasso import LassoConfig, LassoGrid, VarModel, fit_panel_var, fit_panel_vars
from sparsevar.panel import StandardizationStats, TimePanel
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate


def model_from(A, p, k, stats=None):
    return VarModel(
        p=p,
        names=tuple(f"y{i + 1}" for i in range(k)),
        A=np.asarray(A, dtype=float),
        sigma_u=np.eye(k) * 0.0,
        stats=stats,
    )


class TestIterateForecast:
    def test_zero_dynamics_forecasts_the_mean(self):
        stats = StandardizationStats(np.array([3.0, -1.0]), np.array([2.0, 0.5]))
        model = model_from(np.zeros((2, 2)), 1, 2, stats)
        out = iterate_forecast(model, np.array([[9.0, 9.0]]), 4)
        np.testing.assert_array_equal(out, np.tile([3.0, -1.0], (4, 1)))

    def test_scalar_halving_hand_iteration(self):
        model = model_from([[0.5]], 1, 1)
        out = iterate_forecast(model, np.array([[1.0]]), 3)
        np.testing.assert_allclose(out[:, 0], [0.5, 0.25, 0.125], atol=1e-15)

    def test_matches_zero_noise_simulator_grid(self, rng):
        # equality with the noiseless simulator for all K<=4, p<=3, h<=6
        for k in range(1, 5):
            for p in range(1, 4):
                A = make_stable(rng, k, p)
                init = rng.standard_normal((p, k))
                spec = SyntheticSpec(
                    k=k, p=p, t=30, coefficients=A, innovation_sd=0.0,
                    seed=0, initial_state=init,
                )
                pnl, truth = simulate(spec)
                model = model_from(truth.A, p, k)
                start = 10
                history = pnl.values[start: start + p]
                out = iterate_forecast(model, history, 6)
                np.testing.assert_allclose(
                    out, pnl.values[start + p: start + p + 6], atol=1e-10
                )

    def test_horizon_one_equals_direct_product(self, rng):
        k, p = 3, 2
        A = rng.uniform(-0.3, 0.3, size=(k, k * p))
        model = model_from(A, p, k)
        history = rng.standard_normal((p, k))
        out = iterate_forecast(model, history, 1)
        z = np.concatenate([history[-1], history[-2]])
        np.testing.assert_array_equal(out[0], A @ z)

    def test_bad_inputs(self):
        model = model_from([[0.5]], 1, 1)
        with pytest.raises(ForecastError, match="horizon"):
            iterate_forecast(model, np.array([[1.0]]), 0)
        with pytest.raises(ForecastError, match="history"):
            iterate_forecast(model, np.array([[1.0], [2.0]]), 2)


def make_stable(rng, k, p, radius=0.9):
    from sparsevar.synthetic import spectral_radius

    A = rng.uniform(-0.5, 0.5, size=(k, k * p))
    r = spectral_radius(A, k, p)
    if r > radius:
        s = radius / r
        for lag in range(1, p + 1):
            A[:, (lag - 1) * k: lag * k] *= s**lag
    return A


def noisy_panel(seed=0, k=3, p=2, t=240):
    spec = SyntheticSpec(
        k=k, p=p, t=t,
        recipe=SparseRecipe(density=0.3, magnitude=0.3, seed=seed),
        seed=seed,
    )
    return simulate(spec)


class TestRecursiveExercise:
    def exercise(self, pnl, n_origins=30, H=4, **kw):
        start = pnl.dates[-n_origins - H]
        end = pnl.dates[-1 - H]
        kw.setdefault("cfg", LassoConfig(lam=0.05, tol=1e-7))
        kw.setdefault("estimator", "lasso")
        return recursive_exercise(pnl, 2, kw.pop("cfg"), kw.pop("estimator"), start, end, H=H, **kw)

    def test_thirty_origin_shape(self):
        pnl, _ = noisy_panel()
        fs = self.exercise(pnl)
        assert fs.values.shape == (30, 4, 3)
        assert fs.actuals.shape == (30, 4, 3)
        assert len(fs.origins) == 30
        assert fs.horizons == (1, 2, 3, 4)
        assert not np.any(np.isnan(fs.actuals))

    def test_origins_are_consecutive_days(self):
        pnl, _ = noisy_panel()
        fs = self.exercise(pnl, n_origins=10)
        for a, b in zip(fs.origins, fs.origins[1:]):
            assert b - a == timedelta(days=1)

    @staticmethod
    def quarter_turn_panel(T):
        # period-4 orbit y_{t+1} = [[0,-1],[1,0]] y_t; over full periods the
        # sample mean cancels exactly in float
        vals = np.empty((T, 2))
        vals[0] = (1.0, 0.25)
        for t in range(1, T):
            vals[t] = (-vals[t - 1][1], vals[t - 1][0])
        dates = tuple(date(2020, 1, 1) + timedelta(days=i) for i in range(T))
        return TimePanel(dates, ("y1", "y2"), vals)

    def test_noiseless_var_zero_error_full_period_fit(self):
        # with an exactly zero training mean the intercept-free standardized
        # fit reproduces the noiseless dynamics, so forecasts are exact
        pnl = self.quarter_turn_panel(68)
        train = pnl.slice_rows(0, 64)  # multiple of the period
        from sparsevar.lasso import fit_panel_var

        model = fit_panel_var(train, 1, LassoConfig(lam=0.0, tol=1e-13, max_sweeps=50000), "ols")
        preds = iterate_forecast(model, train.values[-1:], 4)
        np.testing.assert_allclose(preds, pnl.values[64:68], atol=1e-10)

    def test_noiseless_var_error_vanishes_with_window(self):
        # expanding windows cover partial periods, so the omitted intercept
        # leaves an O(mean) error that shrinks as the window grows
        errs = []
        for T in (64, 256):
            pnl = self.quarter_turn_panel(T)
            start, end = pnl.dates[-9], pnl.dates[-5]
            fs = recursive_exercise(
                pnl, 1, LassoConfig(lam=0.0, tol=1e-13, max_sweeps=50000),
                "ols", start, end, H=4,
            )
            errs.append(float(np.nanmax(np.abs(fs.values - fs.actuals))))
        assert errs[1] < errs[0] / 2
        assert errs[1] < 0.02

    def test_no_lookahead_truncation_identity(self):
        pnl, _ = noisy_panel(seed=1)
        fs = self.exercise(pnl, n_origins=6)
        cfg = LassoConfig(lam=0.05, tol=1e-7)
        for o, origin in enumerate(fs.origins):
            idx = pnl.position(origin)
            truncated = pnl.slice_rows(0, idx + 1)
            fs_t = recursive_exercise(
                truncated, 2, cfg, "lasso", origin, origin, H=4
            )
            np.testing.assert_array_equal(fs_t.values[0], fs.values[o])

    def test_insufficient_history(self):
        pnl, _ = noisy_panel()
        with pytest.raises(ForecastError, match="insufficient history"):
            recursive_exercise(
                pnl, 2, LassoConfig(lam=0.05), "lasso",
                pnl.dates[3], pnl.dates[10], H=2,
            )

    def test_nonconverged_flagged_or_raises(self):
        # lag 7: 21 regressors, all active at this penalty, too many for an
        # exact solve (21^3 > 20^3), so one sweep cannot converge the fit
        pnl, _ = noisy_panel(seed=2)
        cfg = LassoConfig(lam=1e-4, tol=1e-12, max_sweeps=1)
        start = end = pnl.dates[-5]
        with pytest.raises(ForecastError, match="converge"):
            recursive_exercise(pnl, 7, cfg, "lasso", start, end, H=2)
        fs = recursive_exercise(
            pnl, 7, cfg, "lasso", start, end, H=2, allow_nonconverged=True
        )
        assert fs.nonconverged_origins == (start,)

    def test_cv_at_first_origin_policy(self):
        pnl, _ = noisy_panel(seed=3, t=300)
        plan = WalkForwardPlan(n_splits=2, test_size=25, min_train=120)
        cfg = LassoConfig(tol=1e-6, max_sweeps=2000)
        start, end = pnl.dates[-10], pnl.dates[-6]
        fs = recursive_exercise(
            pnl, 2, cfg, "lasso", start, end, H=2, plan=plan, refit_policy="first"
        )
        assert fs.values.shape == (5, 2, 3)


def assert_bitwise(a, b):
    """Equal to the bit, signed zeros included."""
    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLockstepOrigins:
    """Every origin of an exercise is refitted in one lockstep solve; each
    origin's model and forecasts must be those of ``fit_panel_var`` on that
    origin's window alone, bit for bit. On this AR(1)-error panel (m = 22
    regressors, so the dense OLS fits are beyond exact solves and sweep) the
    origins stop after different sweep counts, and the models hold signed
    zeros."""

    cfg = LassoConfig(lam=0.11, tol=1e-9)
    H = 3

    @staticmethod
    def panel():
        spec = SyntheticSpec(k=11, p=2, t=260, error="ar1", rho=0.5,
                             recipe=SparseRecipe(density=0.3, magnitude=0.3, seed=7), seed=7)
        return simulate(spec)[0]

    def rows(self, pnl):
        return list(range(pnl.n_obs - 6 - self.H, pnl.n_obs - self.H))  # six origins

    def exercise(self, pnl, cfg, estimator, **kw):
        idx = self.rows(pnl)
        return recursive_exercise(pnl, 2, cfg, estimator, pnl.dates[idx[0]], pnl.dates[idx[-1]],
                                  H=self.H, **kw)

    def solo_forecast(self, pnl, i, cfg, estimator):
        model = fit_panel_var(pnl.slice_rows(0, i + 1), 2, cfg, estimator)
        return model, iterate_forecast(model, pnl.values[i - 1: i + 1], self.H)

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_each_origin_equals_its_solo_fit(self, estimator):
        pnl = self.panel()
        idx = self.rows(pnl)
        stacked = fit_panel_vars([pnl.slice_rows(0, i + 1) for i in idx], 2, self.cfg, estimator)
        fs = self.exercise(pnl, self.cfg, estimator)
        assert len({len(m.objective_history) for m in stacked}) > 1  # origins stop apart
        for o, (i, model) in enumerate(zip(idx, stacked)):
            solo, forecast = self.solo_forecast(pnl, i, self.cfg, estimator)
            assert_bitwise(model.A, solo.A)
            assert_bitwise(model.sigma_u, solo.sigma_u)
            assert (model.rho is None) == (solo.rho is None) == (estimator != "fgls-lasso")
            if model.rho is not None:
                assert_bitwise(model.rho, solo.rho)
            assert_bitwise(model.stats.means, solo.stats.means)
            assert_bitwise(model.stats.sds, solo.stats.sds)
            assert (model.sweeps, model.converged) == (solo.sweeps, solo.converged)
            assert model.objective_history == solo.objective_history
            assert (model.lam, model.estimator) == (solo.lam, solo.estimator)
            assert_bitwise(fs.values[o], forecast)
        if estimator != "ols":
            zeros = np.concatenate([m.A[m.A == 0] for m in stacked])
            assert zeros.size and not np.signbit(zeros).any()  # every zero is +0.0

    @pytest.mark.parametrize("estimator", ["ols", "lasso", "fgls-lasso"])
    def test_every_nonconverged_origin_is_named(self, estimator):
        pnl = self.panel()
        idx = self.rows(pnl)
        free = fit_panel_vars([pnl.slice_rows(0, i + 1) for i in idx], 2, self.cfg, estimator)
        capped = replace(self.cfg, max_sweeps=max(m.sweeps for m in free) - 1)
        hit = tuple(pnl.dates[i] for i, m in zip(idx, free) if m.sweeps > capped.max_sweeps)
        assert 0 < len(hit) < len(idx)
        with pytest.raises(ForecastError, match="converge") as err:
            self.exercise(pnl, capped, estimator)
        named = [str(pnl.dates[i]) in str(err.value) for i in idx]
        assert named == [pnl.dates[i] in hit for i in idx]
        fs = self.exercise(pnl, capped, estimator, allow_nonconverged=True)
        assert fs.nonconverged_origins == hit
        for o, i in enumerate(idx):
            solo, forecast = self.solo_forecast(pnl, i, capped, estimator)
            assert solo.converged == (pnl.dates[i] not in hit)
            assert_bitwise(fs.values[o], forecast)


class TestSelectionPolicies:
    """The walk-forward plan fixes the folds, so selecting the penalty at every
    origin reads the same rows as selecting it at the first; both policies run
    one selection and give the forecasts recorded when ``per_origin`` still
    re-selected at every origin. They were re-recorded when fixed-penalty fits
    moved to the covariance form (forecasts moved by at most 3.4e-16), and the
    fgls-lasso ones again when FGLS stage 2 became one batched solve on
    whitened moments from shared cross-products (11 of 12 cells moved, by at
    most 3.3e-16). Both were re-recorded when the solver gained its exact
    active-set finish: every cell moved, by at most 2.9e-10 (lasso) and
    3.2e-10 (fgls-lasso), to within 6.7e-16 of the same exercise solved by
    proximal gradient (the old values were within 3.3e-10); the selected
    penalty did not move. The fgls-lasso ones were re-recorded when FGLS rho came
    from each design's Prais-Winsten basis instead of its residual samples: 6 of 12
    cells moved, by at most 5.6e-17 (1.1e-15 relative)."""

    plan = WalkForwardPlan(n_splits=2, test_size=20, min_train=120)
    cfg = LassoConfig(tol=1e-8, grid=LassoGrid(n_points=10, ratio=0.01))

    def run(self, estimator, policy, monkeypatch):
        spec = SyntheticSpec(k=2, p=2, t=200,
                             recipe=SparseRecipe(density=0.5, magnitude=0.3, seed=4), seed=4)
        pnl, _ = simulate(spec)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].n_obs)
            return select_lambda(*args, **kwargs)

        monkeypatch.setattr(forecasting, "select_lambda", counted)
        fs = recursive_exercise(pnl, 2, self.cfg, estimator, pnl.dates[-6], pnl.dates[-4],
                                H=2, plan=self.plan, refit_policy=policy)
        assert calls == [pnl.n_obs - 5]
        return fs

    @pytest.mark.parametrize("estimator,recorded", [
        ("lasso", [
            [[-0.3856487156258893, 0.10675020802059189],
             [-0.06153691440215584, 0.037355350223163164]],
            [[-0.06357586045190484, -0.16953453647235014],
             [-0.2513759579572915, 0.06567921670290827]],
            [[-0.264777953327423, 0.059449827294166896],
             [-0.0805458834469596, -0.05225845776566507]],
        ]),
        ("fgls-lasso", [
            [[-0.3875208986123114, 0.10535033279581912],
             [-0.062000737580616895, 0.03595040181700366]],
            [[-0.06398381211652948, -0.16283101592860863],
             [-0.2514859690589619, 0.06825946144384855]],
            [[-0.26490165295119583, 0.06801714435238487],
             [-0.08103686687264998, -0.05073438377520563]],
        ]),
    ])
    def test_per_origin_equals_first(self, estimator, recorded, monkeypatch):
        per_origin = self.run(estimator, "per_origin", monkeypatch)
        first = self.run(estimator, "first", monkeypatch)
        np.testing.assert_array_equal(per_origin.values, np.array(recorded))
        np.testing.assert_array_equal(first.values, per_origin.values)
        np.testing.assert_array_equal(first.actuals, per_origin.actuals)
        assert first.origins == per_origin.origins


class TestForecastCsv:
    def test_roundtrip(self, tmp_path):
        pnl, _ = noisy_panel(seed=5)
        start = pnl.dates[-10]
        end = pnl.dates[-7]
        fs = recursive_exercise(
            pnl, 2, LassoConfig(lam=0.05, tol=1e-7), "lasso", start, end, H=3
        )
        path = tmp_path / "fc.csv"
        write_forecast_csv(fs, path)
        back = read_forecast_csv(path)
        assert back.origins == fs.origins
        assert back.horizons == fs.horizons
        assert back.names == fs.names
        np.testing.assert_array_equal(back.values, fs.values)
        # NaN actuals at the tail survive the empty-cell convention
        both_nan = np.isnan(back.actuals) == np.isnan(fs.actuals)
        assert np.all(both_nan)
        finite = ~np.isnan(fs.actuals)
        np.testing.assert_array_equal(back.actuals[finite], fs.actuals[finite])

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "origin,horizon,series,forecast,actual\n"
            "2020-01-10,1,a,0.5,0.4\n"
            "2020-01-10,2,a,0.6,0.2\n"
            "2020-01-11,1,a,0.1,0.3\n"
        )
        with pytest.raises(ForecastError, match="missing origin=2020-01-11 horizon=2"):
            read_forecast_csv(path)

    def test_missing_column_rejected_despite_an_extra_one(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "origin,horizon,series,forecast,extra\n"
            "2020-01-10,1,a,0.5,x\n"
        )
        with pytest.raises(ForecastError, match="need columns"):
            read_forecast_csv(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("origin,horizon,series,forecast,actual\n2020-01-10,1,a,0.5,0.4\n",
                        encoding="utf-8-sig")
        back = read_forecast_csv(path)
        assert back.names == ("a",) and back.values[0, 0, 0] == 0.5

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"origin,horizon,series,forecast,actual\n2020-01-10,1,\xe9,0.5,0.4\n")
        with pytest.raises(ForecastError, match=r"latin1\.csv: not UTF-8 text"):
            read_forecast_csv(path)

    def test_error_names_the_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("origin,horizon,series,forecast,actual\n2020-01-10,1,a,0.5,0.4\n\n\n"
                        "2020-01-11,1,a,x,0.4\n")
        with pytest.raises(ForecastError, match=r"gap\.csv:5: bad row"):
            read_forecast_csv(path)

    @pytest.mark.parametrize("row", ["20200111,1,a,0.5,0.4", "2020-W02-6,1,a,0.5,0.4",
                                     "2020-01-11"])
    def test_other_date_forms_and_short_rows_are_bad_rows(self, tmp_path, row):
        # both dates read as 2020-01-11 by Python 3.11's date.fromisoformat
        path = tmp_path / "bad.csv"
        path.write_text(f"origin,horizon,series,forecast,actual\n2020-01-10,1,a,0.5,0.4\n{row}\n")
        with pytest.raises(ForecastError, match=r"bad\.csv:3: bad row"):
            read_forecast_csv(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "origin,horizon,series,forecast,actual\n"
            "2020-01-10,1,a,0.5,0.4\n"
            "2020-01-10,1,a,0.5,0.4\n"
        )
        with pytest.raises(ForecastError, match="duplicate"):
            read_forecast_csv(path)
