"""Anchored walk-forward splits and penalty selection by out-of-fold forecast loss."""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from sparsevar.lasso import (
    LassoConfig,
    LassoError,
    lambda_grid,
    lambda_max,
    lasso_path,
    prais_winsten,
    _cd_solve,
)
from sparsevar.panel import PanelError, TimePanel, lag_embed, standardize

log = logging.getLogger("sparsevar.cv")


class CvError(ValueError):
    """Raised on infeasible plans or unusable grids."""


@dataclass(frozen=True)
class WalkForwardPlan:
    """Anchored expanding-window scheme: all folds start training at t = 0,
    each fold's validation block of test_size points directly follows its
    training window, and training grows by test_size per fold."""

    n_splits: int = 3
    test_size: int = 30
    min_train: int = 100

    def __post_init__(self):
        if self.n_splits < 1:
            raise CvError(f"n_splits must be >= 1, got {self.n_splits}")
        if self.test_size < 1:
            raise CvError(f"test_size must be >= 1, got {self.test_size}")
        if self.min_train < 2:
            raise CvError(f"min_train must be >= 2, got {self.min_train}")


@dataclass(frozen=True)
class CvReport:
    """Loss table over (penalty, fold) plus the selected penalty."""

    lams: np.ndarray            # descending
    losses: np.ndarray          # n_lams x n_folds, NaN where excluded
    mean_loss: np.ndarray       # n_lams, NaN where excluded
    lambda_star: float
    excluded: tuple[float, ...]


def make_splits(T: int, plan: WalkForwardPlan) -> list[tuple[range, range]]:
    """(train range, validation range) pairs; split i trains on
    [0, min_train + i * test_size) and validates on the next test_size points."""
    needed = plan.min_train + plan.n_splits * plan.test_size
    if needed > T:
        raise CvError(
            f"infeasible plan: min_train + n_splits * test_size = {needed} > T = {T}"
        )
    splits = []
    for i in range(plan.n_splits):
        train_end = plan.min_train + i * plan.test_size
        splits.append((range(0, train_end), range(train_end, train_end + plan.test_size)))
    return splits


def _one_step_predictions(values_std, A, p, val_range):
    """Standardized 1-step forecasts A @ z_t for every t in val_range.

    z_t stacks the p rows before t, lag-1 first, from already-standardized data.
    """
    K = values_std.shape[1]
    Z = np.empty((K * p, len(val_range)))
    for col, t in enumerate(val_range):
        for lag in range(1, p + 1):
            Z[(lag - 1) * K: lag * K, col] = values_std[t - lag]
    return A @ Z


def select_lambda(
    panel: TimePanel,
    p: int,
    cfg: LassoConfig,
    plan: WalkForwardPlan,
    estimator: str = "lasso",
) -> tuple[float, CvReport]:
    """Pick the penalty minimizing mean out-of-fold 1-step squared error.

    Each fold standardizes on its own training window only, fits the full
    descending grid with warm starts, and scores 1-step-ahead forecasts over
    the validation window without refitting. The loss is the squared error
    summed over all series, averaged over validation points, in the panel's
    original units. Ties break toward the larger (sparser) penalty. Penalties
    whose fit fails to converge in any fold are excluded with a warning.
    """
    if estimator not in ("lasso", "fgls", "fgls-lasso"):
        raise CvError(f"unknown estimator {estimator!r}")
    if plan.min_train <= p:
        raise CvError(f"min_train = {plan.min_train} must exceed lag order p = {p}")
    splits = make_splits(panel.n_obs, plan)

    # shared grid anchored at the largest training window's lambda_max so the
    # losses are comparable per penalty and no post-training data is touched
    largest_train = splits[-1][0]
    std_anchor, _ = standardize(panel.slice_rows(largest_train.start, largest_train.stop))
    embed_anchor = lag_embed(std_anchor, p)
    lams = lambda_grid(lambda_max(embed_anchor.Y, embed_anchor.Z), cfg.grid)

    losses = np.full((len(lams), len(splits)), np.nan)
    nonconverged = np.zeros(len(lams), dtype=bool)
    for fold, (train, val) in enumerate(splits):
        if train.stop > val.start:
            raise CvError(
                f"fold {fold}: training rows [{train.start}, {train.stop}) reach "
                f"validation start {val.start}"
            )
        train_panel = panel.slice_rows(train.start, train.stop)
        std_train, stats = standardize(train_panel)
        if stats.n_series != panel.n_series:
            raise CvError(
                f"fold {fold}: standardized {stats.n_series} series, panel has {panel.n_series}"
            )
        embed = lag_embed(std_train, p)
        # all panel rows in training units; only rows < val.stop are touched,
        # and predictions for index t use rows t-p .. t-1 only
        values_std = stats.transform(panel.values)
        actual = panel.values[val.start: val.stop]
        if estimator == "lasso":
            for i, (lam, A, converged, _) in enumerate(lasso_path(embed.Y, embed.Z, lams, cfg)):
                if not converged:
                    nonconverged[i] = True
                    continue
                preds_std = _one_step_predictions(values_std, A, p, val)
                preds = stats.inverse(preds_std.T)
                err = preds - actual
                losses[i, fold] = float(np.mean(np.sum(err * err, axis=1)))
        else:
            losses[:, fold] = _fgls_fold_losses(
                embed, lams, cfg, stats, values_std, val, actual, nonconverged
            )

    excluded = [float(lams[i]) for i in range(len(lams)) if nonconverged[i]]
    for lam in excluded:
        msg = f"penalty {lam:g} excluded: fit did not converge in at least one fold"
        log.warning(msg)
        warnings.warn(msg, stacklevel=2)
    losses[nonconverged, :] = np.nan
    if nonconverged.all():
        raise CvError("every grid penalty failed to converge; raise max_sweeps or tol")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_loss = np.nanmean(losses, axis=1)
    mean_loss[nonconverged] = np.nan
    valid = np.where(~nonconverged)[0]
    # grid is descending, argmin returns the first (largest-lambda) minimizer
    best = valid[int(np.argmin(mean_loss[valid]))]
    lambda_star = float(lams[best])
    report = CvReport(
        lams=lams,
        losses=losses,
        mean_loss=mean_loss,
        lambda_star=lambda_star,
        excluded=tuple(excluded),
    )
    return lambda_star, report


def _fgls_fold_losses(embed, lams, cfg, stats, values_std, val, actual, nonconverged):
    """Validation losses for the FGLS estimator along the penalty path."""
    Y, Z = embed.Y, embed.Z
    K, n = Y.shape
    out = np.full(len(lams), np.nan)
    for i, (lam, A1, conv1, _) in enumerate(lasso_path(Y, Z, lams, cfg)):
        if not conv1:
            nonconverged[i] = True
            continue
        resid = Y - A1 @ Z
        A = np.empty_like(A1)
        converged = True
        for k in range(K):
            u = resid[k] - resid[k].mean()
            denom = float(u @ u)
            rho = 0.0 if denom == 0.0 else float(np.clip(u[1:] @ u[:-1] / denom, -0.99, 0.99))
            yw = prais_winsten(Y[k: k + 1], rho)
            Zw = prais_winsten(Z, rho)
            row, _, conv, _ = _cd_solve(yw, Zw, lam, cfg.tol, cfg.max_sweeps, A1[k: k + 1].copy())
            A[k] = row[0]
            converged = converged and conv
        if not converged:
            nonconverged[i] = True
            continue
        preds_std = _one_step_predictions(values_std, A, embed.p, val)
        preds = stats.inverse(preds_std.T)
        err = preds - actual
        out[i] = float(np.mean(np.sum(err * err, axis=1)))
    return out


def write_cv_report_csv(report: CvReport, path) -> None:
    """``lambda,fold,loss`` rows; the selected penalty is a trailing comment line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "fold", "loss"])
        for i, lam in enumerate(report.lams):
            for fold in range(report.losses.shape[1]):
                loss = report.losses[i, fold]
                writer.writerow(
                    ["%.17g" % lam, fold, "" if np.isnan(loss) else "%.17g" % loss]
                )
        fh.write("# lambda_star = %.17g\n" % report.lambda_star)
