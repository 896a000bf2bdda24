"""Per-equation LASSO estimation of VAR coefficients by cyclic coordinate descent.

The fitted objective is (1/N) ||A Z - Y||_F^2 + lambda ||A||_1 with the
entrywise L1 norm and N the number of embedding columns. The loss and penalty
both separate across rows of A, so the K equations are solved independently;
the implementation updates one regressor coordinate at a time for all
equations at once, which is exactly per-equation cyclic descent. Every fit
runs in covariance form on the sample moments G = Z Z^T / N, C = Y Z^T / N and
||Y||^2 / N (Friedman, Hastie & Tibshirani, 2010). ``_cd_gram`` solves a stack
of independent groups of rows in lockstep, one batched step per coordinate,
each group with its own stopping rule: the CV folds' paths and the Granger
causes' paths share a grid and run as groups of one ``lasso_paths`` call, and
the forecast origins' fixed-penalty fits (OLS at lambda = 0) as groups of one
``_fit_stack`` call; a lone path or fit is one group. FGLS stage 2, whose rows
each have their own whitened moments, runs every CV fold's path points, or
every origin's equations, in one ``_cd_rows`` call. Each coordinate step is 8 numpy
calls; its threshold rho - clip(rho, -lambda / 2, lambda / 2) makes every zero +0.0.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

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
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise LassoError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise LassoError(f"tol must be finite and > 0, got {self.tol}")
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
                "objective_history": list(self.objective_history),
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
            objective_history=tuple(float(v) for v in solver.get("objective_history", ())),
        )


@dataclass(frozen=True)
class BicScore:
    """Per-equation and total BIC; noiseless flags mark RSS = 0 equations."""

    per_equation: np.ndarray
    total: float
    noiseless: np.ndarray


def soft_threshold(z, gamma):
    """Shrink toward zero: z - clip(z, -gamma, gamma) = sign(z) max(|z| - gamma, 0), or +0.0."""
    if not np.all(np.asarray(gamma) >= 0):  # NaN too
        raise LassoError("soft threshold requires gamma >= 0")
    out = z - np.minimum(np.maximum(z, np.negative(gamma)), gamma)
    return float(out) if np.isscalar(z) else out


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


def _cd_step(t: np.ndarray, c_j, x_j: np.ndarray, s_j, lo, hi, u: np.ndarray) -> None:
    """x_j <- (rho - clip(rho, lo, hi)) / s_j, rho = c_j - t + x_j s_j, t = X g_j: 7 ufunc
    calls in place via t and u; round-to-nearest is symmetric, so this is soft thresholding."""
    np.subtract(c_j, t, out=t)
    np.multiply(x_j, s_j, out=u)
    np.add(t, u, out=t)
    np.maximum(t, lo, out=u)
    np.minimum(u, hi, out=u)
    np.subtract(t, u, out=t)
    np.divide(t, s_j, out=x_j)


def _cd_gram(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lam: np.ndarray, tol: float,
             max_sweeps: int, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Covariance-form coordinate descent on g independent groups, updating A in place.

    Group i has moments G[i] = Z Z^T / N (m, m), C[i] = Y Z^T / N (R, m) and
    yy[i] = ||Y||_F^2 / N, which carry all a residual-form sweep reads from the
    samples, so a sweep costs O(g R m^2) whatever N is; lam is (g, 1), one
    penalty per group, or (g, R), one per row; A (g, R, m) is the warm start.
    Coordinates are visited in fixed lag-major order, one batched 8-call step
    (``matmul`` and ``_cd_step``, zeros +0.0) over the groups each. Each group
    keeps the joint stopping rule (max |W - W_start| over a sweep below tol), its
    own descent check and objective history; stopped groups leave the working
    arrays once half have stopped, and a lone group runs on 2-D views (a batch
    of one costs more). Returns per group (sweeps, converged, objective values).
    """
    lam = np.asarray(lam, dtype=float)
    if lam.min() < 0:
        raise LassoError(f"lambda must be >= 0, got {lam}")
    g = len(C)
    sweeps, converged = np.full(g, max_sweeps), np.zeros(g, dtype=bool)
    history: list[list[float]] = [[] for _ in range(g)]
    # a zero-variance regressor (zero row and column of G) stays at zero
    diag = np.diagonal(G, axis1=1, axis2=2)
    scale = np.where(diag > 0, diag, 1.0)
    groups, live, W = np.arange(g), np.ones(g, dtype=bool), None
    for sweep in range(1, max_sweeps + 1):
        if W is None or 2 * np.count_nonzero(live) <= len(live):
            if W is not None:  # the stopped groups are already in A
                A[groups[live]] = W[live]
                groups, live = groups[live], live[live]
            lone = len(groups) == 1
            sel = slice(groups[0], groups[0] + 1) if lone else groups  # a slice gives views
            W, Gw, Cw, yyw, lamw = A[sel], G[sel], C[sel], yy[sel], lam[sel]
            if lone:  # per coordinate j: views of column j of W, G and C, and G[j, j]
                X = W[0]
                cols = list(zip(X.T, Gw[0].T, Cw[0].T, scale[groups[0]]))
            else:  # the same per group, as (g, rows, 1) views
                X = W
                cols = list(zip(*(a.transpose(2, 0, 1)[..., None] for a in (W, Gw, Cw)),
                                scale[groups].T[:, :, None, None]))
            hi = lamw[0] / 2.0 if lone else lamw[..., None] / 2.0
            lo, (t, u) = -hi, np.empty((2,) + cols[0][2].shape)  # made once per compaction
        W_start = W.copy()
        for x_j, g_j, c_j, s_j in cols:
            _cd_step(np.matmul(X, g_j, out=t), c_j, x_j, s_j, lo, hi, u)
        if lamw.shape[1] == 1:
            l1 = lamw[:, 0] * np.abs(W).sum(axis=(1, 2))
        else:
            l1 = (lamw[:, None, :] @ np.abs(W).sum(axis=2)[:, :, None])[:, 0, 0]
        obj = yyw - 2.0 * (W * Cw).sum(axis=(1, 2)) + ((W @ Gw) * W).sum(axis=(1, 2)) + l1
        change = np.abs(W - W_start).max(axis=(1, 2))
        for k, (i, o, c) in enumerate(zip(groups.tolist(), obj.tolist(), change.tolist())):
            if live[k]:
                _check_descent(sweep, history[i][-1] if history[i] else np.inf, o)
                history[i].append(o)
                if c < tol:
                    live[k], sweeps[i], converged[i], A[i] = False, sweep, True, W[k]
        if not live.any():
            return sweeps, converged, history
    A[groups[live]] = W[live]
    return sweeps, converged, history


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


def _path_moments(Y: np.ndarray, Z: np.ndarray, per_row: bool = False) -> tuple:
    """G = Z Z^T / N, C = Y Z^T / N and ||Y||_F^2 / N of one path.

    C is built one column at a time as Y @ Z[j] / N and, for a path on a
    per-row grid, also one row at a time, as Y[r:r+1] @ Z[j] / N. A single
    product Y @ Z.T rounds some entries differently, which moves which
    coefficient enters at near-ties at the top of the grid; the Granger
    p-values are pinned bitwise to this rounding, so the paths keep it.
    """
    R, n = Y.shape
    rows = [slice(r, r + 1) for r in range(R)] if per_row else [slice(None)]
    C = np.empty((R, Z.shape[0]))
    for j in range(Z.shape[0]):
        for rs in rows:
            C[rs, j] = (Y[rs] @ Z[j]) / n
    return Z @ Z.T / n, C, float(np.sum(Y * Y)) / n


def lasso_paths(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lams: np.ndarray,
                cfg: LassoConfig) -> Iterator[tuple]:
    """Warm-started fits of g independent paths in lockstep along one penalty sequence.

    G (g, m, m), C (g, R, m) and yy (g,) stack each path's ``_path_moments``.
    ``lams`` is one descending sequence shared by every row of every path, or
    an (n_points, g, R) grid whose [:, i, r] column is row r of path i's own
    sequence. Each penalty is one ``_cd_gram`` call from the previous solution;
    every path keeps its own stopping rule, so it takes exactly the sweeps it
    takes alone and yields the same coefficients bit for bit. Yields per
    penalty (lam: a float, or the (g, R) grid row; A (g, R, m); converged (g,);
    sweeps (g,); objective histories).
    """
    A = np.zeros(C.shape)
    for lam in np.asarray(lams, dtype=float):
        pen = lam if lam.ndim else np.full((len(C), 1), lam)
        sweeps, converged, history = _cd_gram(G, C, yy, pen, cfg.tol, cfg.max_sweeps, A)
        yield (lam if lam.ndim else float(lam)), A.copy(), converged, sweeps, history


def lasso_path(
    Y: np.ndarray,
    Z: np.ndarray,
    lams: np.ndarray,
    cfg: LassoConfig,
) -> Iterator[tuple[float | np.ndarray, np.ndarray, bool, int]]:
    """Warm-started fits along a descending penalty sequence: ``lasso_paths`` of one path.

    ``lams`` is either one sequence shared by every row of Y, or an
    (n_points, R) grid whose column r is row r's own sequence, typically
    from row r's own ``lambda_max``; each yielded penalty is then the
    length-R row of the grid. Rows are separate regressions on the shared Z
    and run in one sweep; the stopping rule is joint, so ``converged`` and
    ``sweeps`` describe all rows together. The sample moments
    (``_path_moments``) are formed once; every penalty then runs in
    covariance form.
    """
    lams = np.asarray(lams, dtype=float)
    per_row = lams.ndim == 2
    G, C, yy = _path_moments(Y, Z, per_row)
    for lam, A, converged, sweeps, _ in lasso_paths(
        G[None], C[None], np.array([yy]), lams[:, None] if per_row else lams, cfg
    ):
        yield (lam[0] if per_row else lam), A[0], bool(converged[0]), int(sweeps[0])


def _fit_stack(gather: Callable[[int], tuple], n: int, cfg: LassoConfig,
               estimator: str) -> list[VarModel]:
    """The one fit path: n independent fits at cfg.lam in one lockstep solve.

    gather(i) builds item i's (LagEmbedding, stats) anew; only the stats and, in
    stage 1, the moments Z Z^T / N, Y Z^T / N and ||Y||^2 / N are kept, and the
    samples are gathered again for FGLS whitening and the residual covariance.
    Stage 1 is one ``_cd_gram`` call from zero, one group per item with its own
    stopping rule, so each item gets its solo fit bit for bit; "fgls-lasso"
    adds one ``_fgls_refit`` of every item's equations.
    """
    if n < 1 or estimator not in ("ols", "lasso", "fgls-lasso"):
        raise LassoError(f"unknown estimator {estimator!r}" if n > 0 else f"{n} items to fit")

    def moments(i: int) -> tuple:
        embed, stats = gather(i)
        Y, Z, N = embed.Y, embed.Z, embed.n_cols
        _check_regressors(Z, embed.regressor_names())
        return Z @ Z.T / N, Y @ Z.T / N, float(np.sum(Y * Y)) / N, stats

    G, C, yy, stats = zip(*map(moments, range(n)))
    A, rho = np.zeros((n,) + C[0].shape), [None] * n
    sweeps, converged, history = _cd_gram(np.stack(G), np.stack(C), np.array(yy),
                                          np.full((n, 1), cfg.lam), cfg.tol, cfg.max_sweeps, A)
    del G, C  # only the stats are kept; the samples are gathered again where they are read
    if estimator == "fgls-lasso":
        designs = ((embed.Y, embed.Z, 1) for embed, _ in map(gather, range(n)))
        A, rho, sweeps2, converged2, history2 = _fgls_refit(designs, A, np.full(n, cfg.lam), cfg)
        sweeps, converged = np.maximum(sweeps, sweeps2.max(axis=1)), converged & converged2.all(1)
        history = [h + h2 for h, h2 in zip(history, history2)]
    models = []
    for i, (embed, _) in enumerate(map(gather, range(n))):
        if not converged[i]:
            log.warning("%s fit hit max_sweeps=%d at lambda=%g", estimator, cfg.max_sweeps, cfg.lam)
        models.append(VarModel(
            p=embed.p, names=embed.names or tuple(f"y{k + 1}" for k in range(embed.n_series)),
            A=A[i], sigma_u=_residual_cov(embed.Y, embed.Z, A[i]), rho=rho[i], stats=stats[i],
            lam=cfg.lam, sweeps=int(sweeps[i]), converged=bool(converged[i]),
            estimator=estimator, objective_history=tuple(history[i])))
    return models


def fit_lasso_var(
    embed: LagEmbedding,
    cfg: LassoConfig,
    stats: StandardizationStats | None = None,
    estimator: str = "lasso",
) -> VarModel:
    """Fit all K equations at the configured penalty (lambda = 0 gives OLS).

    The one-item ``_fit_stack``, from zero on the whole embedding's moments;
    non-convergence within max_sweeps sets the model's converged flag.
    """
    return _fit_stack(lambda i: (embed, stats), 1, cfg, estimator)[0]


def _residual_cov(Y: np.ndarray, Z: np.ndarray, A: np.ndarray) -> np.ndarray:
    resid = Y - A @ Z
    sigma_u = resid @ resid.T / Y.shape[1]
    return (sigma_u + sigma_u.T) / 2


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


def _whitened_moments(Y: np.ndarray, Z: np.ndarray, rho: np.ndarray, out=None) -> tuple:
    """G, C and yy of each (point, equation) row of rho (P, K) on ``prais_winsten`` data.

    Whitening is linear: with X = [Y; Z], S0 = X X^T, S1 = sum_t x_t x_{t-1}^T and
    D = S0 - x_0 x_0^T - x_{n-1} x_{n-1}^T, n S_w(rho) = S0 - rho (S1 + S1^T) + rho^2 D.
    They are written into out, a (G, C, yy) of C-contiguous arrays, when it is given.
    """
    (K, n), m = Y.shape, Z.shape[0]
    X = np.vstack([Y, Z])
    S0, S1, x0, xl = X @ X.T, X[:, 1:] @ X[:, :-1].T, X[:, 0], X[:, -1]
    basis = np.stack([S0, -(S1 + S1.T), S0 - np.outer(x0, x0) - np.outer(xl, xl)]) / n
    coef = np.stack([np.ones_like(rho), rho, rho * rho], axis=-1)
    G, C, yy = out or (np.empty((rho.size, m, m)), np.empty((rho.size, m)), np.empty(rho.size))
    np.matmul(coef.reshape(-1, 3), basis[:, K:, K:].reshape(3, -1), out=G.reshape(-1, m * m))
    np.einsum("pkc,ckm->pkm", coef, basis[:, :K, K:], out=C.reshape(-1, K, m))
    np.einsum("pkc,ckk->pk", coef, basis[:, :K, :K], out=yy.reshape(-1, K))
    return G, C, yy


def _cd_rows(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lam: np.ndarray, tol: float,
             max_sweeps: int, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """``_cd_gram`` on R independent one-row problems, updating A (R, m) in place.

    Row r has its own symmetric G[r] (so column j of every Gram is G[:, j, :]),
    C[r], yy[r] and lam[r]; a step is ``einsum`` and ``_cd_step`` (zeros +0.0). Each
    row stops after its own first sweep with max |W - W_start| < tol and keeps its
    own objective history; stopped rows leave the working arrays once half have
    stopped, the live Grams moving to the front of G (G is overwritten, never
    copied). Returns per-row (sweeps, converged, histories).
    """
    R = len(C)
    sweeps, converged = np.full(R, max_sweeps), np.zeros(R, dtype=bool)
    history: list[list[float]] = [[] for _ in range(R)]
    diag = np.diagonal(G, axis1=1, axis2=2)
    # a zero regressor's coefficient starts and stays at 0
    work = (np.arange(R), A.copy(), C, yy, lam, np.where(diag > 0, diag, 1.0))
    live, cols = np.ones(R, dtype=bool), None
    for sweep in range(1, max_sweeps + 1):
        rows, W, Cw, yyw, lamw, dw = work
        if cols is None:  # per coordinate j: views of column j of W, G, C and the diagonal
            Gw = G[:len(rows)]  # the live Grams
            cols = list(zip(W.T, Gw.transpose(1, 0, 2), Cw.T, dw.T))
            lo, hi, (t, u) = -lamw / 2.0, lamw / 2.0, np.empty((2, len(rows)))
        W_start = W.copy()
        for x_j, g_j, c_j, s_j in cols:
            _cd_step(np.einsum("rm,rm->r", W, g_j, out=t), c_j, x_j, s_j, lo, hi, u)
        obj = (yyw - 2.0 * np.einsum("rm,rm->r", W, Cw)
               + np.einsum("rm,rmn,rn->r", W, Gw, W) + lamw * np.abs(W).sum(axis=1))
        for r, o in zip(rows[live].tolist(), obj[live].tolist()):
            _check_descent(sweep, history[r][-1] if history[r] else np.inf, o)
            history[r].append(o)
        done = live & (np.abs(W - W_start).max(axis=1) < tol)
        A[rows[done]], sweeps[rows[done]], converged[rows[done]] = W[done], sweep, True
        live &= ~done
        if not live.any():
            break
        if 2 * np.count_nonzero(live) <= len(live):
            for dst, src in enumerate(np.flatnonzero(live).tolist()):
                G[dst] = G[src]  # dst <= src: every live Gram moves before it is overwritten
            work = tuple(a[live] for a in work)
            live, cols = live[live], None
    A[work[0][live]] = work[1][live]
    return sweeps, converged, history


def _fgls_refit(designs: Iterable[tuple], A1: np.ndarray, lams, cfg: LassoConfig) -> tuple:
    """FGLS stage 2 for a stack of P stage-1 points A1 (P, K, m) at penalties lams (P,).

    ``designs`` yields (Y, Z, count): the samples of the next count points (a
    CV fold's, or one forecast origin's), read only while they are whitened.
    Each equation's rho is the lag-1 autocorrelation of its stage-1 residuals
    (clipped to |rho| <= 0.99); the penalty is re-applied on its Prais-Winsten
    whitened moments (``_whitened_moments``), warm-started from its own stage-1
    row, so all P K solves are independent and run in one ``_cd_rows`` loop.
    Returns A (P, K, m); rho, sweeps and converged (P, K); and per point its
    objectives, equations in row order.
    """
    P, K, m = A1.shape
    rho, G, C, yy = np.empty((P, K)), np.empty((P * K, m, m)), np.empty((P * K, m)), np.empty(P * K)
    start = 0
    for Y, Z, count in designs:
        pts, rows = slice(start, start + count), slice(start * K, (start + count) * K)
        rho[pts] = np.clip([[_lag1_autocorr(u) for u in Y - a @ Z] for a in A1[pts]], -0.99, 0.99)
        _whitened_moments(Y, Z, rho[pts], (G[rows], C[rows], yy[rows]))
        start += count
    if start != P:
        raise LassoError(f"designs cover {start} of {P} stage-1 points")
    A = np.array(A1, dtype=float).reshape(P * K, m)
    sweeps, converged, hist = _cd_rows(G, C, yy, np.repeat(lams, K), cfg.tol, cfg.max_sweeps, A)
    history = [[v for h in hist[i * K:(i + 1) * K] for v in h] for i in range(P)]
    return A.reshape(P, K, m), rho, sweeps.reshape(P, K), converged.reshape(P, K), history


def fit_fgls_lasso_var(
    embed: LagEmbedding,
    cfg: LassoConfig,
    stats: StandardizationStats | None = None,
) -> VarModel:
    """Two-stage fit allowing AR(1) serial correlation in the errors.

    The one-item ``_fit_stack``: stage 1 is the homoskedastic fit; stage 2
    (``_fgls_refit``) removes each equation's Toeplitz AR(1) structure by a
    Prais-Winsten quasi-difference and re-applies the penalty on the whitened
    data. Coefficients map original regressors to original targets throughout.
    """
    return _fit_stack(lambda i: (embed, stats), 1, cfg, "fgls-lasso")[0]


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


def _bic(rss: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Single-equation BIC n ln(RSS / n) + s ln(n); RSS = 0 gives -inf."""
    with np.errstate(divide="ignore"):
        return n * np.log(rss / n) + s * np.log(n)


def bic_score(model: VarModel, embed: LagEmbedding) -> BicScore:
    """Per-equation N ln(RSS_k / N) + s_k ln(N) and the total across equations.

    An RSS of zero (noiseless data) yields a -inf sentinel with the matching
    noiseless flag set rather than an error.
    """
    Y, Z = embed.Y, embed.Z
    if model.A.shape != (Y.shape[0], Z.shape[0]):
        raise LassoError("model does not match embedding dimensions")
    resid = Y - model.A @ Z
    rss = np.einsum("kn,kn->k", resid, resid)
    noiseless = rss == 0.0
    per_eq = _bic(rss, np.count_nonzero(model.A, axis=1), Y.shape[1])
    total = float(per_eq.sum()) if not noiseless.any() else float("-inf")
    return BicScore(per_equation=per_eq, total=total, noiseless=noiseless)


def fit_panel_vars(window: Callable[[int], TimePanel], n: int, p: int, cfg: LassoConfig,
                   estimator: str = "lasso") -> list[VarModel]:
    """``fit_panel_var`` of window(0) .. window(n - 1) in one ``_fit_stack``, each as alone;
    window(i) is called wherever its samples are read, so must return the same panel."""
    cfg = replace(cfg, lam=0.0) if estimator == "ols" else cfg

    def gather(i: int) -> tuple:
        std_panel, stats = standardize(window(i))
        return lag_embed(std_panel, p), stats

    return _fit_stack(gather, n, cfg, estimator)


def fit_panel_var(
    panel: TimePanel,
    p: int,
    cfg: LassoConfig,
    estimator: str = "lasso",
) -> VarModel:
    """Standardize, lag-embed and fit a panel: one item of the stacked fit ``fit_panel_vars``.

    estimator: "ols" (lambda forced to 0), "lasso", or "fgls-lasso".
    """
    cfg = replace(cfg, lam=0.0) if estimator == "ols" else cfg
    std_panel, stats = standardize(panel)
    embed = lag_embed(std_panel, p)
    if estimator == "fgls-lasso":
        return fit_fgls_lasso_var(embed, cfg, stats=stats)
    return fit_lasso_var(embed, cfg, stats=stats, estimator=estimator)
