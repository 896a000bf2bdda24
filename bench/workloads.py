"""Workload definitions and the closed-loop pass each one drives through the CLI.

Every workload uses lag order p = 2 and the grid ``--grid 50,0.001``. The
coefficient matrix is drawn from a fixed design seed per workload (density
0.2, magnitude 0.25, spectral radius <= 0.95); ``--seed`` draws the sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import gen

GRID = "50,0.001"
LAG = 2
DENSITY = 0.2
MAGNITUDE = 0.25
DESIGN_SEED = 2210
THRESHOLD = 0.01
HORIZONS = 4
N_SPLITS = 2  # CV folds of the forecast workload
# forecast origins stop this many rows before the panel end, so every
# horizon up to HORIZONS has a realized value
ORIGIN_GAP = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "tune", "forecast" or "granger"
    k: int
    t: int
    rho: float = 0.0     # AR(1) error parameter; 0 gives iid N(0, 1) errors
    # forecast workloads: (label, --estimator, --refit-policy) of each model
    # compared against OLS over the same origins
    models: tuple[tuple[str, str, str], ...] = ()
    n_origins: int = 0

    def params(self) -> dict:
        return {"kind": self.kind, "k": self.k, "p": LAG, "t": self.t, "rho": self.rho,
                "density": DENSITY, "magnitude": MAGNITUDE, "design_seed": DESIGN_SEED,
                "grid": GRID, "models": [list(m) for m in self.models],
                "n_origins": self.n_origins, "n_splits": N_SPLITS if self.models else None}

    def origins(self) -> tuple[int, int]:
        """First and last origin row of a forecast workload."""
        last = self.t - 1 - ORIGIN_GAP
        return last - self.n_origins + 1, last


# why each workload exists: bench/README.md and the workloads of BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tune_long", "tune", k=10, t=10000),
        Workload("forecast", "forecast", k=4, t=700, rho=0.5,
                 models=(("lasso", "lasso", "per_origin"), ("fgls", "fgls-lasso", "first")),
                 n_origins=10),
        Workload("granger_net", "granger", k=5, t=600),
    )
}


def generate(w: Workload, seed: int, outdir: str) -> dict:
    """Write the workload's panel.csv and truth.json for ``seed``; returns the truth."""
    return gen.generate(outdir, seed, DESIGN_SEED, w.k, LAG, w.t, DENSITY, MAGNITUDE, w.rho)


def read_lambda_star(path: str) -> str:
    """The selected penalty from the trailing comment of cv_report.csv, verbatim."""
    with open(path, encoding="utf-8") as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith("# lambda_star ="):
        raise ValueError(f"{path}: no lambda_star line")
    return last.split("=", 1)[1].strip()


def run_pass(w: Workload, panel: str, out: str, main) -> list[tuple[str, int]]:
    """Run one pass of CLI calls in order; returns (command, exit code) pairs.

    ``main`` is called as ``main(argv)``; the next call starts when the
    previous one returns. A call that needs an earlier call's output is
    skipped, and counted as failed, when that call failed.
    """
    common = ["--panel", panel, "--lag", str(LAG), "--grid", GRID]
    calls: list[tuple[str, int]] = []
    if w.kind == "tune":
        calls.append(("cv", main(["cv", *common, "--out", out])))
        try:
            if calls[-1][1] != 0:
                raise ValueError("cv failed")
            lam = read_lambda_star(os.path.join(out, "cv_report.csv"))
        except (OSError, ValueError):
            return calls + [("fit", -1)]
        calls.append(("fit", main(["fit", *common, "--out", out, "--estimator", "lasso",
                                   "--lambda", lam])))
    elif w.kind == "forecast":
        first, last = w.origins()
        span = ["--origins", f"{gen.date_at(first)}:{gen.date_at(last)}",
                "--horizons", str(HORIZONS)]
        for label, estimator, policy in w.models:
            calls.append((f"forecast-{label}", main([
                "forecast", *common, *span, "--out", os.path.join(out, label),
                "--estimator", estimator, "--refit-policy", policy,
                "--n-splits", str(N_SPLITS), "--test-size", "30"])))
        calls.append(("forecast-ols", main(["forecast", *common, *span,
                                            "--out", os.path.join(out, "ols"),
                                            "--estimator", "ols"])))
        if any(code != 0 for _, code in calls):
            return calls + [("evaluate", -1)]
        forecasts = []
        for label in [m[0] for m in w.models] + ["ols"]:
            forecasts += ["--forecast", f"{label}=" + os.path.join(out, label, "forecasts.csv")]
        calls.append(("evaluate", main(["evaluate", "--out", os.path.join(out, "eval"),
                                        *forecasts, "--benchmark", "ols"])))
    else:
        calls.append(("granger", main(["granger", *common, "--out", out,
                                       "--threshold", str(THRESHOLD)])))
    return calls
