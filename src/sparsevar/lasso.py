"""Per-equation LASSO estimation of VAR coefficients by cyclic coordinate descent.

The fitted objective is (1/N) ||A Z - Y||_F^2 + lambda ||A||_1 with the
entrywise L1 norm and N the number of embedding columns. The loss and penalty
both separate across rows of A, so the K equations are solved independently;
the implementation updates one regressor coordinate at a time for all
equations at once, which is exactly per-equation cyclic descent.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from sparsevar.panel import (
    LagEmbedding,
    StandardizationStats,
    TimePanel,
    lag_embed,
    standardize,
)

log = logging.getLogger("sparsevar.lasso")


class LassoError(ValueError):
    """Raised on invalid solver input."""


@dataclass(frozen=True)
class LassoGrid:
    """Log-spaced penalty grid: n_points from lambda_max down to ratio * lambda_max."""

    n_points: int = 100
    ratio: float = 1e-4

    def __post_init__(self):
        if self.n_points < 1:
            raise LassoError(f"grid needs >= 1 point, got {self.n_points}")
        if not 0 < self.ratio < 1:
            raise LassoError(f"grid ratio must be in (0, 1), got {self.ratio}")


@dataclass(frozen=True)
class LassoConfig:
    """Penalty, convergence control and grid definition for the solver.

    tol is the largest absolute coefficient change allowed in a sweep at
    convergence; max_sweeps caps the number of full passes.
    """

    lam: float = 0.0
    tol: float = 1e-8
    max_sweeps: int = 1000
    grid: LassoGrid = field(default_factory=LassoGrid)

    def __post_init__(self):
        if self.lam < 0:
            raise LassoError(f"lambda must be >= 0, got {self.lam}")
        if not self.tol > 0:
            raise LassoError(f"tol must be > 0, got {self.tol}")
        if self.max_sweeps < 1:
            raise LassoError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR: stacked coefficients, residual covariance, solver metadata.

    A is K x (K p) with lag-1 block first. rho holds per-equation AR(1) error
    parameters when fitted by FGLS, else None. stats are the standardization
    statistics of the data the model was fitted on (None if fitted on
    already-standardized input).
    """

    p: int
    names: tuple[str, ...]
    A: np.ndarray
    sigma_u: np.ndarray
    rho: np.ndarray | None = None
    stats: StandardizationStats | None = None
    lam: float = 0.0
    sweeps: int = 0
    converged: bool = True
    estimator: str = "lasso"
    objective_history: tuple[float, ...] = ()

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        K = A.shape[0]
        if A.ndim != 2 or A.shape[1] != K * self.p:
            raise LassoError(f"A shape {A.shape} inconsistent with K={K}, p={self.p}")
        if len(self.names) != K:
            raise LassoError(f"{len(self.names)} names for {K} equations")
        sigma = np.asarray(self.sigma_u, dtype=float)
        if sigma.shape != (K, K):
            raise LassoError(f"sigma_u shape {sigma.shape}, expected ({K}, {K})")
        if np.max(np.abs(sigma - sigma.T)) > 1e-10:
            raise LassoError("sigma_u is not symmetric")
        if np.min(np.linalg.eigvalsh((sigma + sigma.T) / 2)) < -1e-10:
            raise LassoError("sigma_u is not positive semidefinite")
        if self.rho is not None:
            rho = np.asarray(self.rho, dtype=float)
            if rho.shape != (K,):
                raise LassoError(f"rho shape {rho.shape}, expected ({K},)")
            if np.any(np.abs(rho) >= 1):
                raise LassoError("|rho| must be < 1")
            rho.setflags(write=False)
            object.__setattr__(self, "rho", rho)
        A = A.copy()
        A.setflags(write=False)
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "sigma_u", sigma)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_series(self) -> int:
        return self.A.shape[0]

    def nonzero_counts(self) -> np.ndarray:
        return np.count_nonzero(self.A, axis=1)

    def support(self) -> np.ndarray:
        return self.A != 0

    def to_json(self) -> str:
        doc = {
            "p": self.p,
            "names": list(self.names),
            "A": [list(row) for row in self.A],
            "sigma_u": [list(row) for row in self.sigma_u],
            "rho": None if self.rho is None else list(self.rho),
            "stats": None
            if self.stats is None
            else {"means": list(self.stats.means), "sds": list(self.stats.sds)},
            "solver": {
                "lambda": self.lam,
                "sweeps": self.sweeps,
                "converged": self.converged,
                "estimator": self.estimator,
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VarModel":
        doc = json.loads(text)
        stats = doc.get("stats")
        solver = doc.get("solver", {})
        return cls(
            p=int(doc["p"]),
            names=tuple(doc["names"]),
            A=np.array(doc["A"], dtype=float),
            sigma_u=np.array(doc["sigma_u"], dtype=float),
            rho=None if doc.get("rho") is None else np.array(doc["rho"], dtype=float),
            stats=None
            if stats is None
            else StandardizationStats(np.array(stats["means"]), np.array(stats["sds"])),
            lam=float(solver.get("lambda", 0.0)),
            sweeps=int(solver.get("sweeps", 0)),
            converged=bool(solver.get("converged", True)),
            estimator=str(solver.get("estimator", "lasso")),
        )


@dataclass(frozen=True)
class FglsState:
    """AR(1) error parameters and a description of the applied whitening."""

    rho: np.ndarray
    whitening: str


@dataclass(frozen=True)
class BicScore:
    """Per-equation and total BIC; noiseless flags mark RSS = 0 equations."""

    per_equation: np.ndarray
    total: float
    noiseless: np.ndarray


def soft_threshold(z, gamma):
    """Shrink toward zero: sign(z) * max(|z| - gamma, 0). gamma must be >= 0."""
    if np.any(np.asarray(gamma) < 0):
        raise LassoError("soft threshold requires gamma >= 0")
    out = np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)
    return float(out) if np.isscalar(z) else out


def objective_value(A: np.ndarray, Y: np.ndarray, Z: np.ndarray, lam: float) -> float:
    """(1/N) ||A Z - Y||_F^2 + lam * sum |A|."""
    resid = Y - A @ Z
    n = Y.shape[1]
    return float(np.sum(resid * resid) / n + lam * np.sum(np.abs(A)))


def _check_regressors(Z: np.ndarray, names: list[str] | None = None) -> None:
    norms = np.einsum("jn,jn->j", Z, Z)
    if np.any(norms == 0):
        j = int(np.flatnonzero(norms == 0)[0])
        label = names[j] if names else f"row {j}"
        raise LassoError(f"regressor {label} is identically zero")


def _check_descent(sweep: int, prev_obj: float, obj: float) -> None:
    """Raise if a sweep raised the objective beyond rounding."""
    if obj > prev_obj + 1e-12 * (1.0 + abs(prev_obj)):
        raise LassoError(f"objective increased across sweep {sweep}: {prev_obj!r} -> {obj!r}")


def _cd_solve(
    Y: np.ndarray,
    Z: np.ndarray,
    lam: float,
    tol: float,
    max_sweeps: int,
    A0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, bool, list[float]]:
    """Cyclic coordinate descent on all rows of A at once, residual form.

    Coordinates are visited in fixed lag-major order (the row order of Z);
    no randomization, so results are reproducible and schedule-independent.
    Each update touches all N sample columns. Used for single-penalty fits;
    ``lasso_path`` runs the same iteration in covariance form.
    Returns (A, sweeps, converged, per-sweep objective values).
    """
    K, n = Y.shape
    m = Z.shape[0]
    norms = np.einsum("jn,jn->j", Z, Z) / n
    A = np.zeros((K, m)) if A0 is None else np.array(A0, dtype=float)
    R = Y - A @ Z if A0 is not None else Y.copy()
    half_lam = lam / 2.0
    history: list[float] = []
    prev_obj = np.inf
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        max_change = 0.0
        for j in range(m):
            nj = norms[j]
            if nj == 0.0:
                continue
            zj = Z[j]
            rho_j = (R @ zj) / n + A[:, j] * nj
            new = soft_threshold(rho_j, half_lam) / nj
            delta = new - A[:, j]
            if np.any(delta != 0.0):
                R -= np.outer(delta, zj)
                A[:, j] = new
                change = float(np.max(np.abs(delta)))
                if change > max_change:
                    max_change = change
        # fresh residual for an exact objective (R accumulates drift otherwise)
        obj = objective_value(A, Y, Z, lam)
        _check_descent(sweeps, prev_obj, obj)
        prev_obj = obj
        history.append(obj)
        if max_change < tol:
            converged = True
            break
    return A, sweeps, converged, history


def _cd_gram(
    G: np.ndarray,
    C: np.ndarray,
    yy: float,
    lam: float,
    tol: float,
    max_sweeps: int,
    A: np.ndarray,
) -> tuple[int, bool]:
    """Covariance-form coordinate descent, updating A in place.

    G = Z Z^T / N, C = Y Z^T / N and yy = ||Y||_F^2 / N carry everything the
    residual form reads from the samples, so a sweep costs O(K m^2) whatever
    N is. Coordinate order, update, threshold and stopping rule are those of
    ``_cd_solve``. Returns (sweeps, converged).
    """
    m = G.shape[0]
    diag = np.diagonal(G)
    half_lam = lam / 2.0
    prev_obj = np.inf
    for sweep in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in range(m):
            gjj = diag[j]
            if gjj == 0.0:
                continue
            old = A[:, j]
            rho_j = C[:, j] - A @ G[:, j] + old * gjj
            new = np.sign(rho_j) * np.maximum(np.abs(rho_j) - half_lam, 0.0) / gjj
            change = float(np.max(np.abs(new - old)))
            if change > 0.0:
                A[:, j] = new
                if change > max_change:
                    max_change = change
        obj = float(
            yy - 2.0 * np.sum(A * C) + np.sum((A @ G) * A) + lam * np.sum(np.abs(A))
        )
        _check_descent(sweep, prev_obj, obj)
        prev_obj = obj
        if max_change < tol:
            return sweep, True
    return max_sweeps, False


def lambda_max(Y: np.ndarray, Z: np.ndarray) -> float:
    """Smallest penalty for which A = 0 satisfies the optimality conditions."""
    n = Y.shape[1]
    return float(np.max(np.abs((2.0 / n) * Y @ Z.T)))


def lambda_grid(lam_max: float, grid: LassoGrid) -> np.ndarray:
    """Descending log-spaced penalties from lam_max to ratio * lam_max."""
    if lam_max <= 0:
        raise LassoError(f"lambda_max must be > 0, got {lam_max}")
    if grid.n_points == 1:
        return np.array([lam_max])
    return np.geomspace(lam_max, lam_max * grid.ratio, grid.n_points)


def lasso_path(
    Y: np.ndarray,
    Z: np.ndarray,
    lams: np.ndarray,
    cfg: LassoConfig,
) -> Iterator[tuple[float, np.ndarray, bool, int]]:
    """Warm-started fits along a descending penalty sequence.

    The sample moments are formed once, on the first step; every penalty then
    runs in covariance form. C is built one column at a time as Y @ Z[j] / N,
    the same product the residual form takes on its first visit to j, so
    near-ties at the top of the grid resolve as they do in ``_cd_solve``.
    """
    n = Y.shape[1]
    G = Z @ Z.T / n
    C = np.empty((Y.shape[0], Z.shape[0]))
    for j in range(Z.shape[0]):
        C[:, j] = (Y @ Z[j]) / n
    yy = float(np.sum(Y * Y)) / n
    A = np.zeros_like(C)
    for lam in lams:
        sweeps, converged = _cd_gram(G, C, yy, float(lam), cfg.tol, cfg.max_sweeps, A)
        yield float(lam), A.copy(), converged, sweeps


def fit_lasso_var(
    embed: LagEmbedding,
    cfg: LassoConfig,
    stats: StandardizationStats | None = None,
    warm: np.ndarray | None = None,
    estimator: str = "lasso",
) -> VarModel:
    """Fit all K equations at the configured penalty (lambda = 0 gives OLS).

    Non-convergence within max_sweeps is reported through the model's
    converged flag, never silently.
    """
    Y, Z = embed.Y, embed.Z
    _check_regressors(Z, embed.regressor_names())
    A, sweeps, converged, history = _cd_solve(Y, Z, cfg.lam, cfg.tol, cfg.max_sweeps, warm)
    if not converged:
        log.warning(
            "coordinate descent hit max_sweeps=%d at lambda=%g", cfg.max_sweeps, cfg.lam
        )
    resid = Y - A @ Z
    sigma_u = resid @ resid.T / Y.shape[1]
    sigma_u = (sigma_u + sigma_u.T) / 2
    names = embed.names or tuple(f"y{k + 1}" for k in range(Y.shape[0]))
    return VarModel(
        p=embed.p,
        names=names,
        A=A,
        sigma_u=sigma_u,
        rho=None,
        stats=stats,
        lam=cfg.lam,
        sweeps=sweeps,
        converged=converged,
        estimator=estimator,
        objective_history=tuple(history),
    )


def _lag1_autocorr(u: np.ndarray) -> float:
    u = u - u.mean()
    denom = float(u @ u)
    if denom == 0.0:
        return 0.0
    return float(u[1:] @ u[:-1]) / denom


def prais_winsten(M: np.ndarray, rho: float) -> np.ndarray:
    """Quasi-difference along the last axis; first column scaled by sqrt(1 - rho^2)."""
    M = np.asarray(M, dtype=float)
    out = np.empty_like(M)
    out[..., 0] = np.sqrt(1.0 - rho * rho) * M[..., 0]
    out[..., 1:] = M[..., 1:] - rho * M[..., :-1]
    return out


def fit_fgls_lasso_var(
    embed: LagEmbedding,
    cfg: LassoConfig,
    stats: StandardizationStats | None = None,
) -> VarModel:
    """Two-stage fit allowing AR(1) serial correlation in the errors.

    Stage 1 is the homoskedastic fit; each equation's rho is the lag-1
    autocorrelation of its stage-1 residuals (clipped to |rho| <= 0.99), the
    Toeplitz AR(1) structure is removed by a Prais-Winsten quasi-difference of
    that equation's target and regressors, and the penalty is re-applied on
    the whitened data. Coefficients map original regressors to original
    targets throughout.
    """
    stage1 = fit_lasso_var(embed, cfg, stats=stats)
    Y, Z = embed.Y, embed.Z
    K, n = Y.shape
    resid = Y - stage1.A @ Z
    rho = np.clip([_lag1_autocorr(resid[k]) for k in range(K)], -0.99, 0.99)
    A = np.empty_like(stage1.A)
    sweeps = stage1.sweeps
    converged = stage1.converged
    history = list(stage1.objective_history)
    for k in range(K):
        yw = prais_winsten(Y[k: k + 1], rho[k])
        Zw = prais_winsten(Z, rho[k])
        row, sw, conv, hist = _cd_solve(
            yw, Zw, cfg.lam, cfg.tol, cfg.max_sweeps, stage1.A[k: k + 1].copy()
        )
        A[k] = row[0]
        sweeps = max(sweeps, sw)
        converged = converged and conv
        history.extend(hist)
    if not converged:
        log.warning("FGLS refit hit max_sweeps=%d at lambda=%g", cfg.max_sweeps, cfg.lam)
    resid = Y - A @ Z
    sigma_u = resid @ resid.T / n
    sigma_u = (sigma_u + sigma_u.T) / 2
    names = embed.names or tuple(f"y{k + 1}" for k in range(K))
    return VarModel(
        p=embed.p,
        names=names,
        A=A,
        sigma_u=sigma_u,
        rho=np.asarray(rho),
        stats=stats,
        lam=cfg.lam,
        sweeps=sweeps,
        converged=converged,
        estimator="fgls-lasso",
        objective_history=tuple(history),
    )


def kkt_violation(model: VarModel, embed: LagEmbedding, lam: float | None = None) -> float:
    """Worst subgradient-condition violation of the fitted coefficients.

    Active coefficients must satisfy gradient = -lambda * sign(coef); inactive
    ones |gradient| <= lambda. Returns the largest magnitude by which either
    condition fails.
    """
    lam = model.lam if lam is None else lam
    Y, Z = embed.Y, embed.Z
    A = model.A
    if A.shape != (Y.shape[0], Z.shape[0]):
        raise LassoError(
            f"model A shape {A.shape} does not match embedding ({Y.shape[0]}, {Z.shape[0]})"
        )
    n = Y.shape[1]
    grad = (2.0 / n) * (A @ Z - Y) @ Z.T
    active = A != 0
    viol_active = np.abs(grad + lam * np.sign(A))[active]
    viol_inactive = np.maximum(np.abs(grad[~active]) - lam, 0.0)
    worst = 0.0
    if viol_active.size:
        worst = max(worst, float(viol_active.max()))
    if viol_inactive.size:
        worst = max(worst, float(viol_inactive.max()))
    return worst


def bic_score(model: VarModel, embed: LagEmbedding) -> BicScore:
    """Per-equation N ln(RSS_k / N) + s_k ln(N) and the total across equations.

    An RSS of zero (noiseless data) yields a -inf sentinel with the matching
    noiseless flag set rather than an error.
    """
    Y, Z = embed.Y, embed.Z
    if model.A.shape != (Y.shape[0], Z.shape[0]):
        raise LassoError("model does not match embedding dimensions")
    n = Y.shape[1]
    resid = Y - model.A @ Z
    rss = np.einsum("kn,kn->k", resid, resid)
    s = np.count_nonzero(model.A, axis=1)
    noiseless = rss == 0.0
    per_eq = np.empty(Y.shape[0])
    with np.errstate(divide="ignore"):
        per_eq[:] = n * np.log(rss / n, where=~noiseless, out=np.full_like(per_eq, -np.inf))
    per_eq = per_eq + s * np.log(n)
    per_eq[noiseless] = -np.inf
    total = float(per_eq.sum()) if not noiseless.any() else float("-inf")
    return BicScore(per_equation=per_eq, total=total, noiseless=noiseless)


def fit_panel_var(
    panel: TimePanel,
    p: int,
    cfg: LassoConfig,
    estimator: str = "lasso",
) -> VarModel:
    """Standardize, lag-embed and fit a panel with the chosen estimator.

    estimator: "ols" (lambda forced to 0), "lasso", or "fgls-lasso".
    """
    std_panel, stats = standardize(panel)
    embed = lag_embed(std_panel, p)
    if estimator == "ols":
        return fit_lasso_var(embed, replace(cfg, lam=0.0), stats=stats, estimator="ols")
    if estimator == "lasso":
        return fit_lasso_var(embed, cfg, stats=stats)
    if estimator == "fgls-lasso":
        return fit_fgls_lasso_var(embed, cfg, stats=stats)
    raise LassoError(f"unknown estimator {estimator!r}")
