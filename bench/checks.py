"""Output checks for one pass, run outside the timed region.

Everything here is plain numpy and csv parsing; nothing calls into
``sparsevar``. Each check and each counted operation (cv cell, origin x
model, Granger pair) feeds the attempted/failed tally.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import math
import os

import numpy as np

from gen import date_at, true_edges
from workloads import HORIZONS, LAG, THRESHOLD, Workload

# Worst subgradient-condition violation allowed for model.json. The solver
# stops when no coefficient moves by more than tol = 1e-8 in a sweep; on
# standardized regressors that leaves a gradient residual of the same order.
KKT_BOUND = 1e-6
# Default-seed comparison against bench/reference/<workload>.json.
LAMBDA_RTOL = 1e-9      # lambda* is a grid point: the same point must win
COEF_ATOL = 1e-6        # A in standardized units
FORECAST_ATOL = 1e-6    # forecasts in panel units (series sd is about 1)
PVALUE_ATOL = 1e-6


class Tally:
    """Attempted and failed operations plus a log of named checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool, detail="") -> None:
        self.op(bool(ok))
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def f1(pred: set, true: set) -> float:
    tp = len(pred & true)
    denom = 2 * tp + len(pred - true) + len(true - pred)
    return 2 * tp / denom if denom else 1.0


def kkt_violation(values: np.ndarray, A: np.ndarray, lam: float, p: int) -> float:
    """Worst violation of the LASSO optimality conditions of
    (1/N) ||A Z - Y||_F^2 + lam ||A||_1 on the standardized, lag-embedded panel."""
    X = (values - values.mean(axis=0)) / values.std(axis=0)
    T = X.shape[0]
    Y = X[p:].T
    Z = np.vstack([X[p - lag: T - lag].T for lag in range(1, p + 1)])
    grad = (2.0 / Y.shape[1]) * (A @ Z - Y) @ Z.T
    viol = np.where(A != 0, np.abs(grad + lam * np.sign(A)), np.abs(grad) - lam)
    return float(max(viol.max(), 0.0))


def read_cv_report(path: str):
    """(lambda per row, loss per row with NaN for blank cells, lambda_star)."""
    lams, losses, lam_star = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# lambda_star ="):
                lam_star = float(line.split("=", 1)[1])
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            lams.append(float(row["lambda"]))
            losses.append(float(row["loss"]) if row["loss"] else math.nan)
    return np.array(lams), np.array(losses), lam_star


def read_forecasts(path: str) -> dict:
    """(origin, horizon, series) -> (forecast, actual)."""
    cells = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            actual = float(row["actual"]) if row["actual"] else math.nan
            cells[(row["origin"], int(row["horizon"]), row["series"])] = (
                float(row["forecast"]), actual)
    return cells


def read_matrix(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    P = np.array([[math.nan if v == "NA" else float(v) for v in r[1:]] for r in rows[1:]])
    return names, P


def read_edges(path: str) -> set[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {(r["from"], r["to"]) for r in csv.DictReader(fh)}


def _tune(w, d, values, truth, tally, ref):
    lams, losses, lam_star = read_cv_report(os.path.join(d, "cv_report.csv"))
    for loss in losses:
        tally.op(math.isfinite(loss))
    grid = np.unique(lams)[::-1]
    mean = np.array([losses[lams == lam].mean() for lam in grid])
    best = float(grid[np.flatnonzero(mean == np.nanmin(mean))[0]])
    tally.check("cv.lambda_star_is_first_minimizer", lam_star == best, [lam_star, best])
    with open(os.path.join(d, "model.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    A = np.array(model["A"])
    lam = model["solver"]["lambda"]
    tally.check("fit.lambda_is_lambda_star", lam == lam_star, [lam, lam_star])
    tally.check("fit.converged", model["solver"]["converged"])
    stats_err = max(np.max(np.abs(np.array(model["stats"]["means"]) - values.mean(axis=0))),
                    np.max(np.abs(np.array(model["stats"]["sds"]) / values.std(axis=0) - 1)))
    tally.check("fit.standardization_stats", stats_err <= 1e-12, stats_err)
    viol = kkt_violation(values, A, lam, LAG)
    tally.check("fit.kkt_violation", viol <= KKT_BOUND, viol)
    if ref is not None:
        tally.check("reference.lambda_star",
                    abs(lam_star - ref["lambda_star"]) <= LAMBDA_RTOL * ref["lambda_star"],
                    [lam_star, ref["lambda_star"]])
        err = float(np.max(np.abs(A - np.array(ref["A"]))))
        tally.check("reference.A", err <= COEF_ATOL, err)
    true_A = np.array(truth["A"])
    support_f1 = f1(set(zip(*np.nonzero(A))), set(zip(*np.nonzero(true_A))))
    # A maps standardized lags to standardized targets; in panel units entry
    # (i, lag block, j) scales by sd_i / sd_j
    sds = values.std(axis=0)
    A_raw = A * sds[:, None] / np.tile(sds, LAG)[None, :]
    coef_accuracy = 1.0 - float(np.linalg.norm(A_raw - true_A) / np.linalg.norm(true_A))
    return {"support_f1": support_f1, "coef_accuracy": coef_accuracy,
            "quality": coef_accuracy}, {"lambda_star": lam_star, "A": A.tolist()}


def _h1_average_rmse(cells, names) -> float:
    per_series = []
    for name in names:
        errs = [f - a for (o, h, s), (f, a) in cells.items() if h == 1 and s == name]
        per_series.append(math.sqrt(math.fsum(e * e for e in errs) / len(errs)))
    return math.fsum(per_series) / len(per_series)


def _forecast(w, d, values, truth, tally, ref):
    first, last = w.origins()
    names = [f"y{k + 1}" for k in range(w.k)]
    labels = [m[0] for m in w.models]
    out_ref, rmse = {}, {}
    for model in labels + ["ols"]:
        cells = read_forecasts(os.path.join(d, model, "forecasts.csv"))
        expected = {(date_at(i), h, s) for i in range(first, last + 1)
                    for h in range(1, HORIZONS + 1) for s in names}
        for i in range(first, last + 1):
            ok = all(
                (date_at(i), h, s) in cells and math.isfinite(cells[(date_at(i), h, s)][0])
                and cells[(date_at(i), h, s)][1] == values[i + h, k]
                for h in range(1, HORIZONS + 1) for k, s in enumerate(names))
            tally.op(ok)
        tally.check(f"forecast.{model}.no_extra_cells", set(cells) <= expected,
                    len(set(cells) - expected))
        rmse[model] = _h1_average_rmse(cells, names)
        out_ref[model] = [cells[key][0] for key in sorted(cells)]
        if ref is not None:
            err = float(np.max(np.abs(np.array(out_ref[model]) - np.array(ref[model]))))
            tally.check(f"reference.forecasts.{model}", err <= FORECAST_ATOL, err)
    reported = {}
    with open(os.path.join(d, "eval", "evaluation.csv"), newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["series"] == "average" and r["horizon"] == "1" and r["metric"] == "rmse":
                reported[r["model"]] = float(r["value"])
    for model in labels + ["ols"]:
        got = reported.get(model, math.nan)
        tally.check(f"evaluate.{model}.h1_average_rmse",
                    abs(got - rmse[model]) <= 1e-12 * rmse[model], [got, rmse[model]])
    rel = {label: rmse[label] / rmse["ols"] for label in labels}
    # geometric mean over the models of OLS RMSE / model RMSE
    quality = math.exp(-math.fsum(math.log(r) for r in rel.values()) / len(rel))
    return {"rmse_rel_ols": rel, "quality": quality}, out_ref


def _granger(w, d, values, truth, tally, ref):
    names, P = read_matrix(os.path.join(d, "granger_matrix.csv"))
    for e in range(w.k):
        for c in range(w.k):
            if c != e:
                tally.op(0.0 <= P[e, c] <= 1.0)
    edges = read_edges(os.path.join(d, "granger_edges.csv"))
    below = {(names[c], names[e]) for e in range(w.k) for c in range(w.k)
             if c != e and P[e, c] < THRESHOLD}
    tally.check("granger.edges_match_matrix", edges == below, sorted(edges ^ below))
    if ref is not None:
        err = float(np.nanmax(np.abs(P - np.array(ref["p_matrix"], dtype=float))))
        tally.check("reference.p_values", err <= PVALUE_ATOL, err)
        tally.check("reference.edges", edges == {tuple(x) for x in ref["edges"]},
                    sorted(edges ^ {tuple(x) for x in ref["edges"]}))
    A = np.array(truth["A"])
    true = {(names[c], names[e]) for c, e in true_edges(A, w.k, LAG)}
    edge_f1 = f1(edges, true)
    return {"edge_f1": edge_f1, "quality": edge_f1}, {
        "p_matrix": [[None if math.isnan(v) else v for v in row] for row in P],
        "edges": sorted(edges)}


CHECKERS = {"tune": _tune, "forecast": _forecast, "granger": _granger}


def check_pass(w: Workload, d: str, values, truth, tally: Tally, ref=None):
    """Checks one pass directory; returns (quality metrics, reference record)."""
    return CHECKERS[w.kind](w, d, values, truth, tally, ref)


def check_passes(w: Workload, passes: list[dict], values, truth, tally: Tally, ref=None):
    """Counts each pass's CLI calls, checks its outputs and compares them with
    pass 0's; returns pass 0's (quality metrics, reference record), or
    (None, None) when pass 0 failed."""
    quality = record = None
    for p in passes:
        for _, code in p["calls"]:
            tally.op(code == 0)
        if any(code != 0 for _, code in p["calls"]):
            tally.check(f"pass{p['index']}.outputs", False, "a CLI call failed")
            continue
        try:
            q, r = check_pass(w, p["dir"], values, truth, tally, ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.check(f"pass{p['index']}.outputs", False, repr(exc))
            continue
        if p["index"] == 0:
            quality, record = q, r
        else:
            diff = differing_files(passes[0]["dir"], p["dir"])
            tally.check(f"pass{p['index']}.identical_to_pass0", not diff, diff)
    return quality, record


def differing_files(a: str, b: str) -> list[str]:
    """Relative paths whose bytes differ between two pass directories."""
    diff = []
    for root, _, files in os.walk(a):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), a)
            other = os.path.join(b, rel)
            if not (os.path.exists(other) and filecmp.cmp(os.path.join(root, name), other,
                                                          shallow=False)):
                diff.append(rel)
    n_a = sum(len(f) for _, _, f in os.walk(a))
    n_b = sum(len(f) for _, _, f in os.walk(b))
    return sorted(diff) if n_a == n_b else sorted(diff) + ["<file count differs>"]
