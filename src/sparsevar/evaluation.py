"""Forecast accuracy metrics, equal-predictive-accuracy tests and report tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sparsevar import SparsevarError
from sparsevar.forecasting import ForecastSet
from sparsevar.panel import number, write_csv


class EvaluationError(SparsevarError):
    """Raised on empty, misaligned or otherwise unusable inputs."""


@dataclass(frozen=True)
class EpaResult:
    """Corrected test of equal predictive accuracy on squared-error loss."""

    statistic: float
    p_value: float
    loss_diff: np.ndarray


@dataclass(frozen=True)
class EvalCell:
    model: str
    series: str
    horizon: int
    metric: str
    value: float
    stars: str = ""


@dataclass(frozen=True)
class EvalReport:
    """Flat list of (model, series, horizon, metric) cells, averages included."""

    cells: tuple[EvalCell, ...]

    def lookup(self, model: str, series: str, horizon: int, metric: str) -> EvalCell:
        for cell in self.cells:
            if (cell.model, cell.series, cell.horizon, cell.metric) == (
                model,
                series,
                horizon,
                metric,
            ):
                return cell
        raise KeyError((model, series, horizon, metric))


def rmse(errors) -> float:
    """Root mean squared error, sqrt((1/H) sum e^2).

    The sum is exact (fsum), so the result does not depend on accumulation
    order and brute-force recomputation reproduces it bit for bit.
    """
    e = np.asarray(errors, dtype=float).ravel()
    if e.size == 0:
        raise EvaluationError("rmse of an empty error series")
    return math.sqrt(math.fsum((e * e).tolist()) / e.size)


def directional_accuracy(actual_change, forecast_change) -> float:
    """Fraction of steps whose change signs agree; sign(0) = 0 and a zero
    change only matches a zero change."""
    dy = np.asarray(actual_change, dtype=float).ravel()
    df = np.asarray(forecast_change, dtype=float).ravel()
    if dy.shape != df.shape:
        raise EvaluationError(f"length mismatch: {dy.shape} vs {df.shape}")
    if dy.size == 0:
        raise EvaluationError("no change observations")
    matches = np.sign(dy) == np.sign(df)
    return float(np.count_nonzero(matches)) / dy.size


def mda(actual, forecast) -> float:
    """Mean directional accuracy over consecutive differences of both series."""
    a = np.asarray(actual, dtype=float).ravel()
    f = np.asarray(forecast, dtype=float).ravel()
    if a.shape != f.shape:
        raise EvaluationError(f"length mismatch: {a.shape} vs {f.shape}")
    if a.size < 2:
        raise EvaluationError("mda needs at least two aligned observations")
    return directional_accuracy(np.diff(a), np.diff(f))


def epa_test(e1, e2, h: int) -> EpaResult:
    """Test of equal squared-error accuracy of two aligned forecast error series.

    The loss differential d_t = e1_t^2 - e2_t^2 is studentized with a
    Bartlett-kernel long-run variance truncated at lag h-1, the statistic is
    rescaled by the finite-sample factor sqrt((H + 1 - 2h + h(h-1)/H) / H),
    and the two-sided p-value uses the standard normal. A differential with
    zero variance (identical losses) returns statistic 0 and p exactly 1.
    """
    e1 = np.asarray(e1, dtype=float).ravel()
    e2 = np.asarray(e2, dtype=float).ravel()
    if e1.shape != e2.shape:
        raise EvaluationError(f"length mismatch: {e1.shape} vs {e2.shape}")
    H = e1.size
    if H < 10:
        raise EvaluationError(f"need >= 10 aligned errors, got {H}")
    if h < 1:
        raise EvaluationError(f"horizon must be >= 1, got {h}")
    d = e1 * e1 - e2 * e2
    dbar = d.mean()
    centered = d - dbar
    gamma0 = float(centered @ centered) / H
    if gamma0 == 0.0:
        return EpaResult(statistic=0.0, p_value=1.0, loss_diff=d)
    omega = gamma0
    for j in range(1, h):
        gamma_j = float(centered[j:] @ centered[:-j]) / H
        omega += 2.0 * (1.0 - j / h) * gamma_j
    if omega <= 0.0:
        return EpaResult(statistic=0.0, p_value=1.0, loss_diff=d)
    dm = dbar / math.sqrt(omega / H)
    harvey = math.sqrt((H + 1 - 2 * h + h * (h - 1) / H) / H)
    stat = dm * harvey
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return EpaResult(statistic=float(stat), p_value=float(p), loss_diff=d)


def star_marks(p: float) -> str:
    """Significance markers: *** below 1%, ** below 5%, * below 10% (strict)."""
    if not 0.0 <= p <= 1.0:
        raise EvaluationError(f"p-value outside [0, 1]: {p}")
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    return "*" if p < 0.10 else ""


def _column(fs: ForecastSet, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(actual, forecast) series at horizon index j for series k, NaN rows dropped."""
    a = fs.actuals[:, j, k]
    f = fs.values[:, j, k]
    keep = ~np.isnan(a)
    return a[keep], f[keep]


def _check_alignment(models: dict[str, ForecastSet]) -> None:
    ref_name = next(iter(models))
    ref = models[ref_name]
    for name, fs in models.items():
        if fs.origins != ref.origins:
            extra = sorted(set(fs.origins) ^ set(ref.origins))
            raise EvaluationError(
                f"model {name!r} origins mismatch {ref_name!r}: differing dates {extra}"
            )
        if fs.horizons != ref.horizons or fs.names != ref.names:
            raise EvaluationError(
                f"model {name!r} horizons/series differ from {ref_name!r}"
            )
        both = ~np.isnan(fs.actuals) & ~np.isnan(ref.actuals)
        if not np.array_equal(fs.actuals[both], ref.actuals[both]):
            o = int(np.argwhere((fs.actuals != ref.actuals) & both)[0][0])
            raise EvaluationError(
                f"model {name!r} actuals disagree with {ref_name!r} "
                f"at origin {fs.origins[o]}"
            )


def evaluate_forecasts(
    models: dict[str, ForecastSet],
    benchmark: str | None = None,
    mda_form: str = "consecutive",
) -> EvalReport:
    """RMSE and MDA per (model, series, horizon) plus per-horizon averages.

    mda_form "consecutive" (default) differences the forecast series across
    target dates; "origin" anchors each step at its own origin, comparing the
    change the forecast implies from horizon h-1 to h (the h = 1 base is the
    realized value at the origin). When a benchmark model is named, each other
    model's RMSE cell carries significance stars from the pairwise test of
    equal squared-error accuracy against it.
    """
    if not models:
        raise EvaluationError("no forecast sets to evaluate")
    if mda_form not in ("consecutive", "origin"):
        raise EvaluationError(f"unknown mda_form {mda_form!r}")
    if benchmark is not None and benchmark not in models:
        raise EvaluationError(f"benchmark {benchmark!r} not among models")
    _check_alignment(models)
    cells: list[EvalCell] = []
    for name in models:
        fs = models[name]
        K = len(fs.names)
        for j, h in enumerate(fs.horizons):
            rmse_col: list[float] = []
            mda_col: list[float] = []
            for k, series in enumerate(fs.names):
                a, f = _column(fs, j, k)
                if a.size == 0:
                    raise EvaluationError(
                        f"no evaluable points for {name}/{series}/h={h}"
                    )
                value = rmse(a - f)
                stars = ""
                if benchmark is not None and name != benchmark:
                    ab, fb = _column(models[benchmark], j, k)
                    if ab.size != a.size:
                        raise EvaluationError(
                            f"benchmark alignment failed for {name}/{series}/h={h}"
                        )
                    stars = star_marks(epa_test(a - f, ab - fb, h).p_value)
                cells.append(EvalCell(name, series, h, "rmse", value, stars))
                rmse_col.append(value)
                m = _mda_cell(fs, j, k, mda_form)
                cells.append(EvalCell(name, series, h, "mda", m))
                mda_col.append(m)
            cells.append(
                EvalCell(name, "average", h, "rmse", math.fsum(rmse_col) / K)
            )
            cells.append(
                EvalCell(name, "average", h, "mda", math.fsum(mda_col) / K)
            )
    return EvalReport(cells=tuple(cells))


def _mda_cell(fs: ForecastSet, j: int, k: int, form: str) -> float:
    if form == "consecutive":
        a, f = _column(fs, j, k)
        return mda(a, f)
    # origin-anchored: forecast change from horizon h-1 to h at a common origin
    f_now = fs.values[:, j, k]
    a_now = fs.actuals[:, j, k]
    if j == 0:
        # the h = 1 base is the realized value at the origin itself, which for
        # consecutive daily origins equals the previous origin's h = 1 actual
        a_prev = np.concatenate([[np.nan], fs.actuals[:-1, 0, k]])
        f_prev = a_prev
    else:
        a_prev = fs.actuals[:, j - 1, k]
        f_prev = fs.values[:, j - 1, k]
    keep = ~(np.isnan(a_now) | np.isnan(a_prev))
    if not np.any(keep):
        raise EvaluationError("no evaluable origin-anchored steps")
    return directional_accuracy(a_now[keep] - a_prev[keep], f_now[keep] - f_prev[keep])


def write_evaluation_csv(report: EvalReport, path) -> None:
    """``model,series,horizon,metric,value,stars`` rows."""
    write_csv(path, ["model", "series", "horizon", "metric", "value", "stars"],
              ([c.model, c.series, c.horizon, c.metric, number(c.value), c.stars]
               for c in report.cells))
