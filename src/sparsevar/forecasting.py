"""Multi-step VAR point forecasts and the expanding-origin out-of-sample exercise."""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from datetime import date

import numpy as np

from sparsevar import SparsevarError
from sparsevar.cv import WalkForwardPlan, select_lambda
from sparsevar.lasso import TUNED, LassoConfig, VarModel, fit_panel_vars
from sparsevar.panel import TimePanel, csv_records, number, parse_date, stack_state, write_csv


class ForecastError(SparsevarError):
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
    nonconverged_origins: tuple[date, ...] = ()

    def __post_init__(self):
        shape = (len(self.origins), len(self.horizons), len(self.names))
        if self.values.shape != shape or self.actuals.shape != shape:
            raise ForecastError(
                f"values/actuals shape must be {shape}, got "
                f"{self.values.shape}/{self.actuals.shape}"
            )


def iterate_forecast(model: VarModel, history: np.ndarray, h: int) -> np.ndarray:
    """h-step point forecasts by iterating y_{T+s|T} = A_1 y_{T+s-1|T} + ...

    history holds the last p observations, oldest first, in raw units; the
    model's standardization statistics, if any, are applied on the way in and
    out. The intercept is zero in standardized space. Returns an (h, K) array.
    """
    if h < 1:
        raise ForecastError(f"horizon must be >= 1, got {h}")
    history = np.asarray(history, dtype=float)
    K = model.n_series
    if history.shape != (model.p, K):
        raise ForecastError(
            f"history must be ({model.p}, {K}), got {history.shape}"
        )
    buf = list(history if model.stats is None else model.stats.transform(history))
    out = np.empty((h, K))
    for s in range(h):
        z = stack_state(np.asarray(buf[-model.p:]))
        y_next = model.A @ z
        out[s] = y_next
        buf.append(y_next)
    return out if model.stats is None else model.stats.inverse(out)


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
) -> ForecastSet:
    """Expanding-window forecast exercise.

    For every panel date from start_origin through end_origin the model is
    re-fitted on all data up to and including that origin and iterated over
    horizons 1..H; all origins' refits are one ``fit_panel_vars`` call, in
    lockstep stacks, each exactly as alone. When a walk-forward plan is given, the
    penalty is selected once by cross-validation on the data up to the first
    origin and used at every origin; otherwise cfg.lam is used as-is. The plan
    fixes the folds, so a selection at any later origin reads the same rows
    and returns the same penalty: refit_policy "first" and "per_origin" both
    select once. Origins whose fit does not converge are all named in one
    error unless ``allow_nonconverged`` is set, in which case they are recorded.
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

    if plan is not None and estimator in TUNED:
        lam, _ = select_lambda(panel.slice_rows(0, i0 + 1), p, cfg, plan, estimator=estimator)
        cfg = dc_replace(cfg, lam=lam)

    positions = range(i0, i1 + 1)
    models = fit_panel_vars([panel.slice_rows(0, i + 1) for i in positions], p, cfg, estimator)
    nonconverged = [panel.dates[i] for i, model in zip(positions, models) if not model.converged]
    if nonconverged and not allow_nonconverged:
        raise ForecastError(f"fit did not converge at origin(s) {', '.join(map(str, nonconverged))}"
                            "; pass allow_nonconverged=True to keep going")
    K = panel.n_series
    values = np.empty((len(positions), H, K))
    actuals = np.full((len(positions), H, K), np.nan)
    for o, (idx, model) in enumerate(zip(positions, models)):
        values[o] = iterate_forecast(model, panel.values[idx + 1 - p: idx + 1], H)
        realized = panel.values[idx + 1: idx + 1 + H]  # fewer than H rows near the sample end
        actuals[o, :len(realized)] = realized
    return ForecastSet(
        origins=tuple(panel.dates[i] for i in positions),
        horizons=tuple(range(1, H + 1)),
        names=panel.names,
        values=values,
        actuals=actuals,
        nonconverged_origins=tuple(nonconverged),
    )


def write_forecast_csv(fs: ForecastSet, path) -> None:
    """``origin,horizon,series,forecast,actual`` rows, origin-major order; an actual past
    the panel's end is empty."""
    write_csv(path, ["origin", "horizon", "series", "forecast", "actual"],
              ([origin.isoformat(), h, name, number(value), number(actual)]
               for origin, values, actuals in zip(fs.origins, fs.values, fs.actuals)
               for h, row, actual_row in zip(fs.horizons, values, actuals)
               for name, value, actual in zip(fs.names, row, actual_row)))


def read_forecast_csv(path) -> ForecastSet:
    """Load a forecast CSV (also the import format for external benchmarks)."""
    cells: dict[tuple[date, int, str], tuple[float, float]] = {}
    origins: list[date] = []
    horizons: list[int] = []
    names: list[str] = []
    columns = ("origin", "horizon", "series", "forecast", "actual")
    for lineno, row in csv_records(path, columns, ForecastError):
        try:
            origin = parse_date(row["origin"])
            h = int(row["horizon"])
            name = row["series"].strip()
            value = float(row["forecast"])
            actual_raw = row["actual"].strip()
            actual = float("nan") if actual_raw == "" else float(actual_raw)
        except (ValueError, AttributeError, TypeError):  # a short row holds None
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
