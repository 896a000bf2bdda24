"""Anchored walk-forward splits and penalty selection by out-of-fold forecast loss."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from sparsevar import SparsevarError
from sparsevar.lasso import TUNED, LassoConfig, _fgls_refit, _path_moments, _pw_basis, lambda_grid
from sparsevar.lasso import lambda_max, lasso_path, lasso_paths  # noqa: F401 (bench: lasso_path)
from sparsevar.panel import TimePanel, lag_embed, number, standardize, write_csv

log = logging.getLogger("sparsevar.cv")


class CvError(SparsevarError):
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
    reasons: tuple[str, ...] = ()  # why each excluded penalty was excluded


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


def select_lambda(
    panel: TimePanel,
    p: int,
    cfg: LassoConfig,
    plan: WalkForwardPlan,
    estimator: str = "lasso",
) -> tuple[float, CvReport]:
    """Pick the penalty minimizing mean out-of-fold 1-step squared error.

    Each fold standardizes on its own training window only, fits the full
    descending grid with warm starts, and scores 1-step forecasts over the
    validation window without refitting, from a thin QR of its design
    (``_fold_losses``): squared error summed over all series, averaged over
    validation points, in the panel's original units. Ties break toward the
    larger (sparser) penalty. Penalties whose fit fails to converge in any fold
    are excluded with a warning and their folds named in ``CvReport.reasons``.

    Every fold's path runs in lockstep with the others in one ``lasso_paths``
    call on the shared grid, from the fold's moments alone; each fold stops on
    its own, so its path is the one it has alone, and a fold that runs out of
    sweeps excludes only the penalties where it did. estimator is one of
    ``TUNED``; "fgls-lasso" scores each path point after its FGLS stage 2, the refit
    ``fit_fgls_lasso_var`` makes: one ``_fgls_refit`` for all folds, on their ``_pw_basis``.
    """
    if estimator not in TUNED:
        raise CvError(f"unknown estimator {estimator!r}")
    if plan.min_train <= p:
        raise CvError(f"min_train = {plan.min_train} must exceed lag order p = {p}")
    splits = make_splits(panel.n_obs, plan)

    folds, moments = [], []
    for fold, (train, val) in enumerate(splits):
        if train.stop > val.start:
            raise CvError(
                f"fold {fold}: training rows [{train.start}, {train.stop}) reach "
                f"validation start {val.start}"
            )
        std_train, stats = standardize(panel.slice_rows(train.start, train.stop))
        if stats.n_series != panel.n_series:
            raise CvError(
                f"fold {fold}: standardized {stats.n_series} series, panel has {panel.n_series}"
            )
        embed = lag_embed(std_train, p)
        moments.append(_path_moments(embed.Y, embed.Z))
        # validation design in training units: rows val.start - p .. val.stop - 1,
        # so the prediction for t uses rows t-p .. t-1 only
        window = panel.slice_rows(val.start - p, val.stop)
        val_Z = lag_embed(window.with_values(stats.transform(window.values)), p).Z
        actual = panel.values[val.start: val.stop]
        # the lasso needs only the moments; FGLS stage 2 the Prais-Winsten basis too
        basis = (_pw_basis(embed.Y, embed.Z), embed.n_cols) if estimator == "fgls-lasso" else None
        folds.append((basis, stats, val_Z, actual))
    # shared grid anchored at the last (largest) training window's lambda_max, so the
    # losses are comparable per penalty and no post-training data is touched
    lams = lambda_grid(lambda_max(embed.Y, embed.Z), cfg.grid)

    # every fold's path in lockstep: fits (n_lams, n_folds, K, m), ok (n_lams, n_folds)
    G, C, yy = (np.stack(parts) for parts in zip(*moments))
    points = list(lasso_paths(G, C, yy, lams, cfg))
    fits = np.array([A for _, A, _, _, _ in points])
    ok = np.array([converged for _, _, converged, _, _ in points])
    if estimator == "fgls-lasso":  # every fold's converged points, fold-major
        sel, by_fold = ok.T.copy(), fits.transpose(1, 0, 2, 3)
        designs = ((*basis, count) for (basis, *_), count in zip(folds, sel.sum(1)))
        by_fold[sel], _, _, converged, _ = _fgls_refit(
            designs, by_fold[sel], np.broadcast_to(lams, sel.shape)[sel], cfg)
        ok.T[sel] = converged.all(axis=1)
    losses = np.full((len(lams), len(splits)), np.nan)
    for fold, (_, stats, val_Z, actual) in enumerate(folds):
        points = np.flatnonzero(ok[:, fold])
        losses[points, fold] = _fold_losses(fits[points, fold], stats, val_Z, actual)

    nonconverged = ~ok.all(axis=1)
    reasons = [
        "fit did not converge in fold " + ", ".join(map(str, np.flatnonzero(~ok[i])))
        for i in np.flatnonzero(nonconverged)
    ]
    excluded = [float(lams[i]) for i in range(len(lams)) if nonconverged[i]]
    for lam, reason in zip(excluded, reasons):
        msg = f"penalty {lam:g} excluded: {reason}"
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
        reasons=tuple(reasons),
    )
    return lambda_star, report


def _fold_losses(fits: np.ndarray, stats, val_Z: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Each fit's (P, K, m) loss on a fold. With the thin QR val_Zᵀ = Q R (r = min(n_val, m))
    and ã the actuals in training units, fit A's is Σ_k sd_k² (‖(A Rᵀ − (Qᵀã)ᵀ)_k‖² +
    ‖ã_k − Q Qᵀ ã_k‖²) / n_val, O(K m r) whatever n_val. The Gram form ‖ã‖² − 2⟨A, C⟩ +
    ⟨A G, A⟩ cancels: at 1-step R² ≈ 1 − 1e-10 it was 2e-5 off and moved the argmin."""
    Q, R = np.linalg.qr(val_Z.T)
    target = stats.transform(actual)
    proj = np.array([a @ Q for a in target.T]).T  # per series: a threaded gemm's bytes vary by thread count
    loss = np.square(fits @ np.ascontiguousarray(R.T) - proj.T).sum(axis=2)
    loss += np.square(target - Q @ proj).sum(axis=0)
    return np.sum(loss * stats.sds ** 2, axis=1) / len(actual)


def write_cv_report_csv(report: CvReport, path) -> None:
    """``lambda,fold,loss`` rows, a failed fit's loss empty; the selected penalty is a
    trailing comment line."""
    write_csv(path, ["lambda", "fold", "loss"],
              ([number(lam), fold, number(loss)]
               for lam, row in zip(report.lams, report.losses) for fold, loss in enumerate(row)),
              trailer=f"# lambda_star = {number(report.lambda_star)}\n")


def write_cv_excluded_csv(report: CvReport, path) -> None:
    """``lambda,reason`` rows for every excluded penalty; only the header if none."""
    write_csv(path, ["lambda", "reason"],
              ([number(lam), reason] for lam, reason in zip(report.excluded, report.reasons)))
