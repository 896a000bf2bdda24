import numpy as np
import pytest

from sparsevar.cv import (
    CvError,
    WalkForwardPlan,
    _fold_losses,
    make_splits,
    select_lambda,
    write_cv_excluded_csv,
    write_cv_report_csv,
)
from sparsevar.lasso import (
    LassoConfig,
    LassoGrid,
    _fgls_refit,
    _pw_basis,
    fit_panel_var,
    lambda_grid,
    lambda_max,
    lasso_path,
)
from sparsevar.panel import StandardizationStats, TimePanel, lag_embed, standardize
from sparsevar.synthetic import SparseRecipe, SyntheticSpec, simulate
from dataclasses import replace

from conftest import daily_panel


class TestMakeSplits:
    def test_hand_example(self):
        plan = WalkForwardPlan(n_splits=3, test_size=10, min_train=70)
        splits = make_splits(100, plan)
        assert [len(tr) for tr, _ in splits] == [70, 80, 90]
        assert [(v.start, v.stop) for _, v in splits] == [(70, 80), (80, 90), (90, 100)]

    def test_single_split(self):
        plan = WalkForwardPlan(n_splits=1, test_size=20, min_train=60)
        splits = make_splits(100, plan)
        assert len(splits) == 1
        assert splits[0][0] == range(0, 60)
        assert splits[0][1] == range(60, 80)

    def test_off_by_one_boundary(self):
        plan = WalkForwardPlan(n_splits=3, test_size=10, min_train=71)
        with pytest.raises(CvError, match="infeasible"):
            make_splits(100, plan)
        # exactly feasible at min_train = 70
        make_splits(100, WalkForwardPlan(n_splits=3, test_size=10, min_train=70))

    def test_anchored_and_expanding(self):
        plan = WalkForwardPlan(n_splits=4, test_size=5, min_train=30)
        splits = make_splits(100, plan)
        for (tr, va), (tr2, va2) in zip(splits, splits[1:]):
            assert tr.start == 0 and tr2.start == 0
            assert len(tr2) == len(tr) + plan.test_size
            assert va.stop == va2.start  # contiguous validation blocks
        for tr, va in splits:
            assert set(tr).isdisjoint(va)
            assert max(tr) < min(va)


def sparse_panel(seed, k=5, p=1, t=500, density=0.15, magnitude=0.35, sd=1.0):
    spec = SyntheticSpec(
        k=k, p=p, t=t,
        recipe=SparseRecipe(density=density, magnitude=magnitude, seed=seed),
        innovation_sd=sd,
        seed=seed,
    )
    return simulate(spec)


class TestSelectLambda:
    def test_noiseless_recovers_exact_support(self, rng):
        # effectively noiseless: tiny innovations relative to the signal keep
        # the CV loss surface minimized where the support is exact
        pnl, truth = sparse_panel(0, t=500, sd=1.0)
        plan = WalkForwardPlan(n_splits=3, test_size=60, min_train=150)
        cfg = LassoConfig(tol=1e-7, max_sweeps=3000, grid=LassoGrid(n_points=80))
        lam, report = select_lambda(pnl, 1, cfg, plan)
        model = fit_panel_var(pnl, 1, replace(cfg, lam=lam))
        tp = np.sum((model.A != 0) & (truth.A != 0))
        fn = np.sum((model.A == 0) & (truth.A != 0))
        assert fn == 0  # full recall at the CV penalty
        assert report.lambda_star == lam

    def test_white_noise_selects_near_lambda_max(self):
        spec = SyntheticSpec(
            k=4, p=1, t=400, coefficients=np.zeros((4, 4)), seed=5
        )
        pnl, _ = simulate(spec)
        plan = WalkForwardPlan(n_splits=3, test_size=50, min_train=150)
        cfg = LassoConfig(tol=1e-7, max_sweeps=3000, grid=LassoGrid(n_points=60))
        lam, report = select_lambda(pnl, 1, cfg, plan)
        # empty-model region: the selected penalty sits in the top decade
        assert lam >= 0.1 * report.lams[0]

    def test_single_point_grid(self):
        pnl, _ = sparse_panel(1, t=300)
        plan = WalkForwardPlan(n_splits=2, test_size=40, min_train=150)
        cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=1))
        lam, report = select_lambda(pnl, 1, cfg, plan)
        assert len(report.lams) == 1
        assert lam == report.lams[0]

    def test_determinism(self):
        pnl, _ = sparse_panel(2, t=300)
        plan = WalkForwardPlan(n_splits=3, test_size=30, min_train=120)
        cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=25))
        lam1, rep1 = select_lambda(pnl, 1, cfg, plan)
        lam2, rep2 = select_lambda(pnl, 1, cfg, plan)
        assert lam1 == lam2
        np.testing.assert_array_equal(rep1.losses, rep2.losses)

    def test_no_leakage_training_stats_only(self):
        # altering validation rows must not change the fold's fitted path;
        # losses change, the training-standardization does not
        pnl, _ = sparse_panel(3, t=300)
        plan = WalkForwardPlan(n_splits=1, test_size=30, min_train=200)
        cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=10))
        lam_a, rep_a = select_lambda(pnl, 1, cfg, plan)
        # perturb only the last validation rows (index >= 230 unused too)
        vals = pnl.values.copy()
        vals[231:] += 10.0
        from sparsevar.panel import TimePanel

        pnl_b = TimePanel(pnl.dates, pnl.names, vals)
        lam_b, rep_b = select_lambda(pnl_b, 1, cfg, plan)
        # the validation window is [200, 230); rows >= 231 are untouched by
        # any fold, so the loss table must be identical
        np.testing.assert_array_equal(rep_a.losses, rep_b.losses)

    def test_infeasible_plan_raises(self):
        pnl, _ = sparse_panel(4, t=100)
        plan = WalkForwardPlan(n_splits=3, test_size=30, min_train=50)
        with pytest.raises(CvError, match="infeasible"):
            select_lambda(pnl, 1, LassoConfig(), plan)

    def test_min_train_must_exceed_lag(self):
        pnl, _ = sparse_panel(5, t=100)
        plan = WalkForwardPlan(n_splits=1, test_size=10, min_train=2)
        with pytest.raises(CvError, match="exceed"):
            select_lambda(pnl, 3, LassoConfig(), plan)

    def test_nonconverged_penalties_excluded_with_warning(self):
        # at lag 4 (m = 24 regressors) the first two points settle by exact
        # solves before any sweep; the last three are too dense for one
        # (24^3 > 20^3) and need 38 to 43 sweeps, so under max_sweeps=1 those
        # three penalties must be excluded
        pnl, _ = sparse_panel(6, k=6, t=300)
        plan = WalkForwardPlan(n_splits=1, test_size=30, min_train=150)
        cfg = LassoConfig(tol=1e-14, max_sweeps=1, grid=LassoGrid(n_points=5))
        with pytest.warns(UserWarning, match="excluded"):
            lam, report = select_lambda(pnl, 4, cfg, plan)
        assert np.all(np.isnan(report.losses[2:])) and np.isfinite(report.losses[:2]).all()
        assert report.excluded == tuple(report.lams[2:])
        assert lam == report.lams[np.nanargmin(report.losses[:, 0])]

    def test_fgls_estimator_runs(self):
        pnl, _ = sparse_panel(7, t=400)
        plan = WalkForwardPlan(n_splits=2, test_size=40, min_train=200)
        cfg = LassoConfig(tol=1e-6, grid=LassoGrid(n_points=15))
        lam, report = select_lambda(pnl, 1, cfg, plan, estimator="fgls-lasso")
        assert lam in report.lams
        assert np.isfinite(report.mean_loss[np.where(report.lams == lam)][0])

    def test_tie_break_prefers_larger_lambda(self):
        # a panel whose validation losses tie across the top penalties (empty
        # model region) must resolve to the larger penalty
        spec = SyntheticSpec(k=2, p=1, t=200, coefficients=np.zeros((2, 2)), seed=9)
        pnl, _ = simulate(spec)
        plan = WalkForwardPlan(n_splits=1, test_size=20, min_train=100)
        cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=30, ratio=0.5))
        lam, report = select_lambda(pnl, 1, cfg, plan)
        ties = report.mean_loss == report.mean_loss[np.where(report.lams == lam)][0]
        assert lam == report.lams[ties].max()


def fold_at_a_time(pnl, p, cfg, plan, estimator):
    """The loss table and per-(penalty, fold) convergence of ``select_lambda``,
    with each fold's path run on its own by ``lasso_path``."""
    splits = make_splits(pnl.n_obs, plan)
    last = splits[-1][0]
    anchor = lag_embed(standardize(pnl.slice_rows(last.start, last.stop))[0], p)
    lams = lambda_grid(lambda_max(anchor.Y, anchor.Z), cfg.grid)
    losses = np.full((len(lams), len(splits)), np.nan)
    ok = np.zeros((len(lams), len(splits)), dtype=bool)
    for fold, (train, val) in enumerate(splits):
        std, stats = standardize(pnl.slice_rows(train.start, train.stop))
        embed = lag_embed(std, p)
        window = pnl.slice_rows(val.start - p, val.stop)
        val_Z = lag_embed(TimePanel(window.dates, window.names,
                                    stats.transform(window.values)), p).Z
        _, fits, ok[:, fold], _ = map(np.array, zip(*lasso_path(embed.Y, embed.Z, lams, cfg)))
        if estimator == "fgls-lasso":
            design = (_pw_basis(embed.Y, embed.Z), embed.n_cols, ok[:, fold].sum())
            fits[ok[:, fold]], _, _, converged, _ = _fgls_refit(
                [design], fits[ok[:, fold]], lams[ok[:, fold]], cfg)
            ok[ok[:, fold], fold] = converged.all(axis=1)
        points = np.flatnonzero(ok[:, fold])
        losses[points, fold] = residual_losses(fits[points], stats, val_Z,
                                               pnl.values[val.start: val.stop])
    losses[~ok.all(axis=1)] = np.nan
    return lams, losses, ok


def residual_losses(fits, stats, val_Z, actual):
    """Each fit's loss scored point by point from its forecasts' errors in panel units."""
    out = np.empty(len(fits))
    for i, A in enumerate(fits):
        err = stats.inverse((A @ val_Z).T) - actual
        out[i] = np.mean(np.sum(err * err, axis=1))
    return out


class TestLockstepFolds:
    """Every fold's path runs in one lockstep call; each fold must still see
    exactly the path it has alone, and each point's loss must be the one that
    ``fold_at_a_time`` scores point by point. The losses were bitwise equal
    while ``_fold_losses`` scored per-point forecasts; from the QR of each
    validation design they round otherwise (here by at most 3.6e-15 absolute,
    5.4e-16 relative), so they are held to rtol 1e-13, and the grid and
    lambda* stay exact."""

    plan = WalkForwardPlan(n_splits=3, test_size=30, min_train=150)
    cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=8))
    # (panel, plan, cfg): the default panel, then 9 series with 200 validation points
    # per fold, 22 times the 9 regressors
    CASES = {
        "short": (lambda: sparse_panel(7, t=300)[0], plan, cfg),
        "long": (lambda: sparse_panel(5, k=9, t=560)[0],
                 WalkForwardPlan(n_splits=2, test_size=200, min_train=160),
                 LassoConfig(tol=1e-7, grid=LassoGrid(n_points=14))),
    }

    @pytest.mark.parametrize("estimator,case", [
        pytest.param("lasso", "short", id="lasso"),
        pytest.param("fgls-lasso", "short", id="fgls-lasso"),
        pytest.param("lasso", "long", id="lasso-long-validation"),
        pytest.param("fgls-lasso", "long", id="fgls-lasso-long-validation"),
    ])
    def test_loss_table_equals_fold_at_a_time(self, estimator, case):
        make_panel, plan, cfg = self.CASES[case]
        pnl = make_panel()
        lam, report = select_lambda(pnl, 1, cfg, plan, estimator=estimator)
        lams, losses, ok = fold_at_a_time(pnl, 1, cfg, plan, estimator)
        assert ok.all() and report.excluded == ()
        np.testing.assert_array_equal(report.lams, lams)
        np.testing.assert_allclose(report.losses, losses, rtol=1e-13, atol=0)
        assert lam == lams[np.argmin(losses.mean(axis=1))]

    def test_capped_fold_excludes_only_its_points(self):
        # at lag 5 (m = 25) the dense points sweep; fold 2 needs at most 24
        # sweeps per penalty, folds 0 and 1 need 27 and 25 at the fourth point
        # and 25 each at the fifth. At this cap folds 0 and 1 run out of sweeps
        # at those two penalties; fold 2 converges everywhere, and the other
        # penalties keep their losses
        pnl, _ = sparse_panel(7, t=300)
        capped = replace(self.cfg, max_sweeps=24)
        with pytest.warns(UserWarning, match="excluded: fit did not converge in fold 0, 1$"):
            lam, report = select_lambda(pnl, 5, capped, self.plan)
        lams, losses, ok = fold_at_a_time(pnl, 5, capped, self.plan, "lasso")
        assert ok[:, 2].all() and not ok[:, :2].all() and ok[:, :2].any()
        np.testing.assert_allclose(report.losses, losses, rtol=1e-13, atol=0)
        assert report.excluded == tuple(lams[~ok.all(axis=1)])
        assert report.reasons == ("fit did not converge in fold 0, 1",) * len(report.excluded)
        assert lam == lams[np.nanargmin(losses.mean(axis=1))]


class TestFoldLosses:
    """``_fold_losses`` scores every fit from a thin QR of the validation design;
    each loss must be the one its forecasts' errors give point by point."""

    @pytest.mark.parametrize("k,p,n_val", [
        pytest.param(50, 1, 30, id="paper-shape-fewer-points-than-regressors"),
        pytest.param(10, 2, 1000, id="tune_long-shape"),
        pytest.param(1, 2, 40, id="one-series"),
    ])
    def test_equals_residual_form(self, rng, k, p, n_val):
        # a validation window with means far from 0 and sds other than 1, in the
        # layout select_lambda builds
        stats = StandardizationStats(rng.normal(5.0, 2.0, k), rng.uniform(0.5, 3.0, k))
        raw = stats.inverse(rng.standard_normal((n_val + p, k)))
        val_Z, actual = lag_embed(daily_panel(stats.transform(raw)), p).Z, raw[p:]
        fits = 0.2 * rng.standard_normal((12, k, k * p)) / np.sqrt(k * p)
        fits[[0, 1, 5]] = 0.0  # the empty fits at the top of every grid
        losses = _fold_losses(fits, stats, val_Z, actual)
        np.testing.assert_allclose(losses, residual_losses(fits, stats, val_Z, actual),
                                   rtol=1e-12, atol=0)
        # exactly-zero fits tie bit for bit, so the tie break picks the larger penalty
        assert losses[0] == losses[1] == losses[5]

    def test_near_deterministic_fold(self, rng):
        # two exact AR(2) sinusoids about the stats' means, plus noise of sd 3e-6:
        # the 1-step R^2 of the best fit is about 1 - 1e-10. The fits step through
        # that minimizer along one direction. Here this scoring is within 5.4e-13 of
        # the exact losses; the Gram form was 2.3e-5 off and put the argmin at 11
        n, p = 1000, 2
        stats = StandardizationStats([100.0, -20.0], [3.0, 0.5])
        steps = np.outer(np.arange(-p, n), [0.3, 0.7]) + [0.0, 1.0]
        raw = stats.inverse(np.sin(steps) + 3e-6 * rng.standard_normal((n + p, 2)))
        val_Z, actual = lag_embed(daily_panel(stats.transform(raw)), p).Z, raw[p:]
        best = np.linalg.lstsq(val_Z.T, stats.transform(actual), rcond=None)[0].T
        fits = best + 1e-8 * np.arange(-10, 11)[:, None, None] * rng.standard_normal(best.shape)
        losses = _fold_losses(fits, stats, val_Z, actual)
        # the residual form in extended precision
        wide = [np.asarray(x, dtype=np.longdouble) for x in (fits, val_Z, actual)]
        err = ((wide[0] @ wide[1]).transpose(0, 2, 1) * np.asarray(stats.sds, np.longdouble)
               + np.asarray(stats.means, np.longdouble) - wide[2])
        exact = np.mean(np.sum(err * err, axis=2), axis=1)
        total = np.mean(np.sum((actual - actual.mean(axis=0)) ** 2, axis=1))
        assert 1 - exact.min() / total > 1 - 1e-9
        np.testing.assert_allclose(losses, exact.astype(float), rtol=1e-8, atol=0)
        assert np.argmin(losses) == np.argmin(exact) == 10


def ar1_panel():
    spec = SyntheticSpec(
        k=3, p=1, t=260,
        recipe=SparseRecipe(density=0.4, magnitude=0.35, seed=11),
        error="ar1", rho=0.5, seed=11,
    )
    return simulate(spec)[0]


GOLDEN_LAMS = [
    1.622276907881733, 0.6458400696510732, 0.2571135627588623,
    0.1023587529808597, 0.0407497535305944, 0.01622276907881733,
]


class TestGoldenLossTables:
    """Loss tables recorded before CV and the FGLS fit shared one code path;
    any change to the path, the whitening or the validation design shows here.
    The fgls-lasso table was re-recorded when FGLS stage 2 moved to the
    covariance form (losses moved by at most 1.4e-15) and again when it became
    one batched solve on whitened moments from shared cross-products (5 cells
    moved, by at most 1.8e-15). Both were re-recorded when the solver gained its
    exact active-set finish: 10 cells of each moved, by at most 5.2e-10
    (lasso) and 7.6e-10 (fgls-lasso) relative, to within 3.6e-15 of a
    proximal-gradient oracle of the same folds (the old values were within
    2.4e-9); lambda* did not move. Both were re-recorded when ``_fold_losses``
    moved from per-point forecasts to a thin QR of each validation design: 7
    cells (fgls-lasso) and 9 (lasso) moved, each by at most 1.8e-15 absolute
    (2.6e-16 relative); lambda* did not move. No cell moved when that QR's
    projection of the actuals became one product per series. The fgls-lasso
    table was re-recorded when FGLS rho came from each fold's Prais-Winsten
    basis instead of its residual samples: 5 cells moved, by at most 2.2e-15
    absolute (6.6e-16 relative); lambda* did not move."""

    plan = WalkForwardPlan(n_splits=2, test_size=30, min_train=180)
    cfg = LassoConfig(tol=1e-8, grid=LassoGrid(n_points=6, ratio=0.01))

    def check(self, estimator, losses, lam_star):
        lam, report = select_lambda(ar1_panel(), 1, self.cfg, self.plan, estimator=estimator)
        np.testing.assert_array_equal(report.lams, GOLDEN_LAMS)
        np.testing.assert_array_equal(report.losses, losses)
        assert lam == lam_star
        assert report.excluded == ()

    def test_fgls_lasso(self):
        self.check("fgls-lasso", [
            [7.147458393476303, 4.839913418706302],
            [6.899074802869734, 4.658856564464278],
            [3.379375699542874, 3.2527329881342033],
            [3.050079213831969, 3.1058272132915428],
            [3.029717789625788, 3.094148137276944],
            [3.0472566034400823, 3.098524419198326],
        ], 0.0407497535305944)

    def test_lasso(self):
        self.check("lasso", [
            [7.147458393476303, 4.839913418706302],
            [3.7001167465631983, 3.6553499400450886],
            [2.9799457953569037, 3.2561070342804266],
            [2.921337737901127, 3.1831603748218447],
            [2.957822506968189, 3.172499350867945],
            [2.9849200209940205, 3.168491091804151],
        ], 0.1023587529808597)


class TestReportCsv:
    def test_csv_layout(self, tmp_path):
        pnl, _ = sparse_panel(8, t=300)
        plan = WalkForwardPlan(n_splits=2, test_size=30, min_train=150)
        cfg = LassoConfig(tol=1e-7, grid=LassoGrid(n_points=5))
        lam, report = select_lambda(pnl, 1, cfg, plan)
        path = tmp_path / "cv.csv"
        write_cv_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,fold,loss"
        assert len(lines) == 1 + 5 * 2 + 1
        assert lines[-1].startswith("# lambda_star = ")
        assert float(lines[-1].split("=")[1]) == lam

    def test_excluded_csv(self, tmp_path):
        # TestSelectLambda.test_nonconverged_penalties_excluded_with_warning's run
        pnl, _ = sparse_panel(6, k=6, t=300)
        plan = WalkForwardPlan(n_splits=1, test_size=30, min_train=150)
        cfg = LassoConfig(tol=1e-14, max_sweeps=1, grid=LassoGrid(n_points=5))
        with pytest.warns(UserWarning, match="excluded"):
            _, report = select_lambda(pnl, 4, cfg, plan)
        path = tmp_path / "excluded.csv"
        write_cv_excluded_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["lambda,reason"] + [
            "%.17g,fit did not converge in fold 0" % lam for lam in report.lams[2:]
        ]
        _, clean = select_lambda(pnl, 4, replace(cfg, tol=1e-7, max_sweeps=1000), plan)
        write_cv_excluded_csv(clean, path)
        assert path.read_text().strip().splitlines() == ["lambda,reason"]
