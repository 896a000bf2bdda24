"""Multi-step VAR point forecasts and the expanding-origin out-of-sample exercise."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace as dc_replace
from datetime import date, timedelta

import numpy as np

from sparsevar.cv import WalkForwardPlan, select_lambda
from sparsevar.lasso import LassoConfig, VarModel, fit_panel_var
from sparsevar.panel import PanelError, TimePanel
from sparsevar.parallel import parallel_map


class ForecastError(ValueError):
    """Raised on invalid forecasting input or misaligned forecast files."""


@dataclass(frozen=True)
class ForecastSet:
    """Origin-indexed multi-horizon point forecasts with aligned actuals.

    values[o, h-1, k] is the h-step forecast of series k made at origins[o],
    in original (destandardized) units; actuals holds the realized value at
    the same target date, NaN where the sample ends first. Every forecast at
    origin o uses data dated <= o only.
    """

    origins: tuple[date, ...]
    horizons: tuple[int, ...]
    names: tuple[str, ...]
    values: np.ndarray
    actuals: np.ndarray
    target_dates: tuple[tuple[date, ...], ...] = ()
    nonconverged_origins: tuple[date, ...] = ()

    def __post_init__(self):
        shape = (len(self.origins), len(self.horizons), len(self.names))
        if self.values.shape != shape or self.actuals.shape != shape:
            raise ForecastError(
                f"values/actuals shape must be {shape}, got "
                f"{self.values.shape}/{self.actuals.shape}"
            )


def stack_state(history: np.ndarray) -> np.ndarray:
    """Stack the last p observations (rows oldest-first) into z = [y_t; ...; y_{t-p+1}]."""
    return np.concatenate(history[::-1], axis=0)


def iterate_forecast(
    model: VarModel,
    history: np.ndarray,
    h: int,
    standardized: bool = False,
) -> np.ndarray:
    """h-step point forecasts by iterating y_{T+s|T} = A_1 y_{T+s-1|T} + ...

    history holds the last p observations, oldest first. Raw units are assumed
    and the model's standardization statistics applied on the way in and out;
    pass ``standardized=True`` to work entirely in standardized units. The
    intercept is zero in standardized space. Returns an (h, K) array.
    """
    if h < 1:
        raise ForecastError(f"horizon must be >= 1, got {h}")
    history = np.asarray(history, dtype=float)
    K = model.n_series
    if history.shape != (model.p, K):
        raise ForecastError(
            f"history must be ({model.p}, {K}), got {history.shape}"
        )
    if not standardized and model.stats is not None:
        buf = [model.stats.transform(row) for row in history]
    else:
        buf = [row.copy() for row in history]
    out = np.empty((h, K))
    for s in range(h):
        z = stack_state(np.asarray(buf[-model.p:]))
        y_next = model.A @ z
        out[s] = y_next
        buf.append(y_next)
    if not standardized and model.stats is not None:
        out = model.stats.inverse(out)
    return out


def recursive_exercise(
    panel: TimePanel,
    p: int,
    cfg: LassoConfig,
    estimator: str,
    start_origin: date,
    end_origin: date,
    H: int = 4,
    plan: WalkForwardPlan | None = None,
    refit_policy: str = "first",
    allow_nonconverged: bool = False,
    threads: int = 1,
) -> ForecastSet:
    """Expanding-window forecast exercise.

    For every panel date from start_origin through end_origin the model is
    re-fitted on all data up to and including that origin and iterated over
    horizons 1..H. When a walk-forward plan is given, the penalty is selected
    by cross-validation at the first origin and held fixed (refit_policy
    "first") or re-selected at every origin ("per_origin"); otherwise
    cfg.lam is used as-is. Origins whose fit does not converge raise unless
    ``allow_nonconverged`` is set, in which case they are recorded.
    """
    if H < 1:
        raise ForecastError(f"H must be >= 1, got {H}")
    if refit_policy not in ("first", "per_origin"):
        raise ForecastError(f"unknown refit_policy {refit_policy!r}")
    i0 = panel.position(start_origin)
    i1 = panel.position(end_origin)
    if i1 < i0:
        raise ForecastError(f"end origin {end_origin} precedes start origin {start_origin}")
    min_train = plan.min_train if plan is not None else 2 * p
    if i0 + 1 < p + min_train:
        raise ForecastError(
            f"insufficient history at {start_origin}: {i0 + 1} rows, "
            f"need >= {p + min_train}"
        )
    cv_estimator = "fgls" if estimator == "fgls-lasso" else "lasso"

    lam_first = None
    if plan is not None and refit_policy == "first" and estimator != "ols":
        lam_first, _ = select_lambda(
            panel.slice_rows(0, i0 + 1), p, cfg, plan, estimator=cv_estimator
        )

    positions = list(range(i0, i1 + 1))

    def run_origin(idx: int):
        train = panel.slice_rows(0, idx + 1)
        if estimator == "ols":
            local_cfg = cfg
        elif plan is not None and refit_policy == "per_origin":
            lam, _ = select_lambda(train, p, cfg, plan, estimator=cv_estimator)
            local_cfg = dc_replace(cfg, lam=lam)
        elif lam_first is not None:
            local_cfg = dc_replace(cfg, lam=lam_first)
        else:
            local_cfg = cfg
        model = fit_panel_var(train, p, local_cfg, estimator)
        history = train.values[-p:]
        preds = iterate_forecast(model, history, H)
        return model.converged, preds

    results = parallel_map(run_origin, positions, threads)

    K = panel.n_series
    n_origins = len(positions)
    values = np.empty((n_origins, H, K))
    actuals = np.full((n_origins, H, K), np.nan)
    target_dates: list[tuple[date, ...]] = []
    nonconverged: list[date] = []
    last_date = panel.dates[-1]
    for o, (idx, (converged, preds)) in enumerate(zip(positions, results)):
        if not converged:
            if not allow_nonconverged:
                raise ForecastError(
                    f"fit did not converge at origin {panel.dates[idx]}; "
                    "pass allow_nonconverged=True to keep going"
                )
            nonconverged.append(panel.dates[idx])
        values[o] = preds
        dates_o = []
        for h in range(1, H + 1):
            t = idx + h
            if t < panel.n_obs:
                actuals[o, h - 1] = panel.values[t]
                dates_o.append(panel.dates[t])
            else:
                dates_o.append(last_date + timedelta(days=t - (panel.n_obs - 1)))
        target_dates.append(tuple(dates_o))
    return ForecastSet(
        origins=tuple(panel.dates[i] for i in positions),
        horizons=tuple(range(1, H + 1)),
        names=panel.names,
        values=values,
        actuals=actuals,
        target_dates=tuple(target_dates),
        nonconverged_origins=tuple(nonconverged),
    )


def write_forecast_csv(fs: ForecastSet, path) -> None:
    """``origin,horizon,series,forecast,actual`` rows, origin-major order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "horizon", "series", "forecast", "actual"])
        for o, origin in enumerate(fs.origins):
            for j, h in enumerate(fs.horizons):
                for k, name in enumerate(fs.names):
                    actual = fs.actuals[o, j, k]
                    writer.writerow(
                        [
                            origin.isoformat(),
                            h,
                            name,
                            "%.17g" % fs.values[o, j, k],
                            "" if math.isnan(actual) else "%.17g" % actual,
                        ]
                    )


def read_forecast_csv(path) -> ForecastSet:
    """Load a forecast CSV (also the import format for external benchmarks)."""
    cells: dict[tuple[date, int, str], tuple[float, float]] = {}
    origins: list[date] = []
    horizons: list[int] = []
    names: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"origin", "horizon", "series", "forecast", "actual"}
        if reader.fieldnames is None or set(reader.fieldnames) < required:
            raise ForecastError(f"{path}: need columns {sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                origin = date.fromisoformat(row["origin"].strip())
                h = int(row["horizon"])
                name = row["series"].strip()
                value = float(row["forecast"])
                actual_raw = row["actual"].strip()
                actual = float("nan") if actual_raw == "" else float(actual_raw)
            except (ValueError, AttributeError):
                raise ForecastError(f"{path}:{lineno}: bad row {row}") from None
            key = (origin, h, name)
            if key in cells:
                raise ForecastError(f"{path}:{lineno}: duplicate cell {key}")
            cells[key] = (value, actual)
            if origin not in origins:
                origins.append(origin)
            if h not in horizons:
                horizons.append(h)
            if name not in names:
                names.append(name)
    if not cells:
        raise ForecastError(f"{path}: no forecast rows")
    origins.sort()
    horizons.sort()
    values = np.empty((len(origins), len(horizons), len(names)))
    actuals = np.empty((len(origins), len(horizons), len(names)))
    for o, origin in enumerate(origins):
        for j, h in enumerate(horizons):
            for k, name in enumerate(names):
                key = (origin, h, name)
                if key not in cells:
                    raise ForecastError(
                        f"{path}: incomplete grid, missing origin={origin} "
                        f"horizon={h} series={name}"
                    )
                values[o, j, k], actuals[o, j, k] = cells[key]
    return ForecastSet(
        origins=tuple(origins),
        horizons=tuple(horizons),
        names=tuple(names),
        values=values,
        actuals=actuals,
    )
