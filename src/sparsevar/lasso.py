"""Per-equation LASSO estimation of VAR coefficients by cyclic coordinate descent.

The fitted objective is (1/N) ||A Z - Y||_F^2 + lambda ||A||_1 with the
entrywise L1 norm and N the number of embedding columns. The loss and penalty
both separate across rows of A, so the K equations are solved independently;
the implementation updates one regressor coordinate at a time for all
equations at once, which is exactly per-equation cyclic descent. Every fit runs in
covariance form on the sample moments G = Z Z^T / N, C = Y Z^T / N and ||Y||^2 / N
(Friedman, Hastie & Tibshirani, 2010), read from a design's samples once, with Y Y^T / N
(for Sigma_u) and, for FGLS, its Prais-Winsten basis (``_pw_basis``). Every fit is a
``lasso_paths`` call, the one driver, on a stack of independent groups of rows in lockstep,
each group with its own stopping rule: the CV folds' paths and the Granger causes' paths
share a grid and run as its groups; a fixed-penalty fit (OLS at lambda = 0) is a path of one
point from zero, the forecast origins' fits one group each (``_fit_stack``); FGLS stage 2,
whose rows each have their own whitened moments, is a path of one point from stage 1, one
group of one row per (point, equation), in calls of whole designs whose Grams stay within
``_GRAM_FLOATS`` (8 MB). Its one exact stage, ``_settle``, comes before any
sweep and solves each group small enough on a predicted sign pattern; the KKT check alone
decides if it stops there, one sweep (at lambda = 0 no sign is read: an admitted OLS fit
settles in one solve). A path is piecewise linear in lambda (LARS), so a group settles blocks
of up to 8 next penalties per exact-stage call, each on a pattern extrapolated from its last
two points, and keeps the prefix that passes the test of a one-penalty-at-a-time walk. A
group that does not settle sweeps in ``_cd_gram``, the sweep kernel, and stops by tol or at
the sweep cap. Each coordinate step is 8 numpy calls; its threshold rho - clip(rho,
-lambda / 2, lambda / 2) makes every zero +0.0. Every Gram is exactly symmetric, so a step
reads its row j for column j, and compaction moves the live Grams within G.
"""

from __future__ import annotations

import contextlib
import json
import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from sparsevar import SparsevarError
from sparsevar.panel import (
    LagEmbedding,
    StandardizationStats,
    TimePanel,
    lag_embed,
    standardize,
)

log = logging.getLogger("sparsevar.lasso")

ESTIMATORS = ("ols", "lasso", "fgls-lasso")  # "ols" is the lasso at lambda = 0
TUNED = ("lasso", "fgls-lasso")  # the estimators whose penalty cross-validation selects
# FGLS stage-2 Gram floats solved in one stack, 8 MB: CV folds, or fitted panels
_GRAM_FLOATS = 1 << 20


class LassoError(SparsevarError):
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

    tol is the largest absolute coefficient change allowed in a sweep at convergence;
    max_sweeps caps the sweeps (full passes) per penalty, which ``VarModel.sweeps``
    counts, one ``objective_history`` value each; an exact solve that settles a fit
    before any pass counts as its one sweep.
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


def _objective(W: np.ndarray, WG: np.ndarray, C: np.ndarray, yy: np.ndarray,
               lam: np.ndarray) -> np.ndarray:
    """Per group yy - 2 <W, C> + <W G, W> + the penalty, from the product WG = W @ G."""
    l1 = (lam[:, 0] * np.abs(W).sum(axis=(1, 2)) if lam.shape[1] == 1
          else (lam[:, None, :] @ np.abs(W).sum(axis=2)[:, :, None])[:, 0, 0])
    return yy - 2.0 * (W * C).sum(axis=(1, 2)) + (WG * W).sum(axis=(1, 2)) + l1


def _admitted(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active counts of pattern S (g, R, m), per group pads and pad^3 <= max(4 m^2, 20^3)."""
    k = (S != 0) @ np.ones(S.shape[2], dtype=np.float32)  # exact: 3x np.count_nonzero
    pad = np.minimum((k.max(axis=1).astype(int) + 3) & -4, S.shape[2])
    return k, pad, pad ** 3 <= max(4 * S.shape[2] ** 2, 20 ** 3)


def _predict(A, AG, A2, A2G, C, t, hi) -> np.ndarray:
    """Sign pattern at lambda = lambda_1 - t (lambda_2 - lambda_1), linear in lambda (LARS) from
    path point A at lambda_1 and A2 before it: x = A + t (A - A2), D = D_1 + t (D_1 - D_2),
    D_i = C - A_i G. An active coordinate keeps its sign unless x crosses zero, where it
    drops; an inactive one enters where |D| > lambda / 2 (hi), signed like D."""
    D = C - AG
    x, d = A + t * (A - A2), D + t * (D - (C - A2G))
    return np.where(A != 0, np.sign(A) * (np.sign(x) == np.sign(A)),
                    np.where(np.abs(d) > hi, np.sign(d), 0)).astype(np.int8)


def _finish(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lam: np.ndarray, W: np.ndarray,
            obj: np.ndarray, live: np.ndarray, S: np.ndarray, grp: np.ndarray,
            WG: np.ndarray) -> tuple:
    """Exact solves of the live items on their sign patterns S (items, R, m).

    Item i is penalty lam[i] of group grp[i], whose G, C and yy it indexes, never copies.
    Each row solves G_AA x_A = c_A - (lambda / 2) s_A on its active set A, padded with
    identity rows to the item's own pad (padding moves a solve's bits); one batched
    ``np.linalg.solve`` per pad, in chunks whose arrays (Grams G[grp], systems M of R s^2
    per item, the R s-sized b and x, the R m-sized X, X G and gradient) take at most G / 64
    or 1 MB, so a bench-scale block is one chunk. An item is tried when ``_admitted`` (20
    unknowns and fewer are bound by call overhead; above, a solve costs about a sweep),
    and accepted, W and WG taking x and x G, when every active sign holds (at lambda = 0
    any sign), every inactive coordinate has |c_j - g_j^T x| <= lambda / 2 and the
    objective passes the descent check against obj. A singular system rejects its own item
    only. A rejected item's S becomes its held signs plus x's violators, signed like their
    gradient. Returns (accepted, objectives: x's where accepted, else obj's)."""
    g, R, m = W.shape
    k, pad, admitted = _admitted(S)
    cand = live & admitted
    done, fin = np.zeros(g, dtype=bool), obj.copy()
    hi = lam[..., None] / 2.0
    with np.errstate(all="ignore"):
        for s in sorted(set(pad[cand].tolist())):
            its = np.flatnonzero(cand & (pad == s))
            step = max(1, max(G.size // 64, 1 << 17) // (m * m + R * s * (s + 2) + 3 * R * m))
            for part in (its[i:i + step] for i in range(0, len(its), step)):
                n, gp, h, sign, Cp = len(part), grp[part], hi[part], S[part], C[grp[part]]
                order = np.argsort(sign == 0, axis=2, kind="stable")[..., :s]  # active first
                free = np.arange(s) >= k[part][..., None]  # identity rows and columns
                # no index of M's size: the gather's only scratch is numpy's fixed buffers
                M = G[gp[:, None, None, None], order[..., :, None], order[..., None, :]]
                np.copyto(M, np.eye(s), where=free[..., :, None] | free[..., None, :])
                at = np.arange(n * R).reshape(n, R, 1) * m + order  # flat offsets in X and Cp
                b = Cp.reshape(-1).take(at) - h * sign.reshape(-1).take(at)
                b[free] = 0.0
                try:
                    x = np.linalg.solve(M, b[..., None])[..., 0] if s else b
                except np.linalg.LinAlgError:  # one by one; a singular system stays NaN
                    x = np.full(b.shape, np.nan)
                    for i in np.ndindex(b.shape[:-1]):
                        with contextlib.suppress(np.linalg.LinAlgError):
                            x[i] = np.linalg.solve(M[i], b[i])
                del M  # the rest of the chunk is not made beside it
                X, valid = np.zeros(Cp.shape), ~free
                X.reshape(-1)[at[valid]] = x[valid]
                XG, held = X @ G[gp], (np.sign(X) == sign) | (h == 0.0)
                f, D, o = _objective(X, XG, Cp, yy[gp], lam[part]), Cp - XG, obj[part]
                viol = np.abs(D) > h
                ok = ((f <= o + 1e-12 * (1.0 + np.abs(o))) & held.all(axis=(1, 2))
                      & ~(viol & (sign == 0)).any(axis=(1, 2)))
                W[part[ok]], WG[part[ok]], done[part[ok]] = X[ok], XG[ok], True
                fin[part[ok]] = f[ok]
                if not ok.all():
                    S[part[~ok]] = np.where(sign != 0, sign * held,
                                            np.where(viol, np.sign(D), 0))[~ok]
    return done, fin


def _settle(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lam: np.ndarray, W: np.ndarray,
            S: np.ndarray, obj: np.ndarray, grp: np.ndarray, head: np.ndarray, WG: np.ndarray,
            nxt: np.ndarray) -> tuple:
    """The exact stage: one ``_finish`` call on items that are blocks of each group's next
    penalties, in order, each on its own predicted pattern S. A block's head starts from
    the group's warm start, whose objective there obj is, and keeps up to four attempts,
    each from the held signs and violators of the last. The speculative rest (obj inf) is
    kept only as a prefix, by the test a sequential solve makes: an item passes
    ``_finish``'s test, the item before it was kept, and its objective passes the descent
    check against that item's objective at its own penalty (at nxt, from that item's X and
    X G). Returns (kept, objectives, the kept items' objectives at nxt)."""
    ok, f = _finish(G, C, yy, lam, W, obj, np.ones(len(W), dtype=bool), S, grp, WG)
    for _ in range(3):
        if (head & ~ok).any():
            more, f = _finish(G, C, yy, lam, W, f, head & ~ok, S, grp, WG)
            ok |= more
    ahead = _objective(W, WG, C[grp], yy[grp], nxt)
    for i in np.flatnonzero(~head).tolist():
        o = ahead[i - 1]
        ok[i] &= ok[i - 1] and f[i] <= o + 1e-12 * (1.0 + abs(o))
    return ok, f, ahead


def _to_front(G: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Move the Grams G[idx] (idx ascending) to the front of G in place; returns them."""
    for dst, src in enumerate(idx.tolist()):
        if dst < src:  # every one moves before it is overwritten
            G[dst] = G[src]
    return G[:len(idx)]


def _cd_gram(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lam: np.ndarray, tol: float,
             max_sweeps: int, A: np.ndarray) -> tuple:
    """Covariance-form coordinate descent on g independent groups, updating A in place.

    The sweep kernel: the exact stage is ``lasso_paths``'. Group i has moments
    G[i] = Z Z^T / N (m, m), C[i] = Y Z^T / N (R, m) and yy[i] = ||Y||_F^2 / N, which
    carry all a residual-form sweep reads from the samples, so a sweep costs O(g R m^2)
    whatever N is; lam is (g, 1), one penalty per group, or (g, R), one per row; A
    (g, R, m) is the warm start. Every group sweeps from A in fixed lag-major order, one
    batched 8-call step (``matmul`` and ``_cd_step``, zeros +0.0) per coordinate, a lone
    group as a batch of one; it reads row j of each Gram, contiguous, for column j, so
    every G[i] must be exactly symmetric. Each group stops by the joint rule
    (max |W - W_start| over a sweep below tol) or at max_sweeps, with its own descent
    check and one objective per sweep. Stopped groups leave the working arrays once half
    have stopped, the live Grams moving to the front of G (G is overwritten, never
    copied). Every decision reads the group's own arrays only, so it returns the same bits
    in any batch. Returns (sweeps, converged, objectives).
    """
    lam = np.asarray(lam, dtype=float)
    if lam.min() < 0:
        raise LassoError(f"lambda must be >= 0, got {lam}")
    sweeps, converged = np.full(len(C), max_sweeps), np.zeros(len(C), dtype=bool)
    history: list[list[float]] = [[] for _ in range(len(C))]
    # a zero-variance regressor (zero row and column of G) stays at zero
    diag = np.diagonal(G, axis1=1, axis2=2)
    scale = np.where(diag > 0, diag, 1.0)
    groups, live, W = np.arange(len(C)), np.ones(len(C), dtype=bool), None
    for sweep in range(1, max_sweeps + 1):
        if W is None or 2 * np.count_nonzero(live) <= len(live):
            if W is not None:  # the stopped groups are already in A
                A[groups[live]] = W[live]
            Gw = _to_front(G, np.flatnonzero(live))
            groups, live = groups[live], live[live]
            W, yyw, lamw = A[groups], yy[groups], lam[groups]
            Cw = C if len(groups) == len(C) else C[groups]  # read only: no copy of all of C
            # per coordinate j: (g, rows, 1) views of column j of W and C, row j of G, and G[j, j]
            cols = list(zip(W.transpose(2, 0, 1)[..., None], Gw.transpose(1, 0, 2)[..., None],
                            Cw.transpose(2, 0, 1)[..., None], scale[groups].T[:, :, None, None]))
            hi = lamw[..., None] / 2.0
            lo, (t, u) = -hi, np.empty((2,) + cols[0][2].shape)  # made once per compaction
        W_start = W.copy()
        for x_j, g_j, c_j, s_j in cols:
            _cd_step(np.matmul(W, g_j, out=t), c_j, x_j, s_j, lo, hi, u)
        obj = _objective(W, W @ Gw, Cw, yyw, lamw)
        stop = (np.abs(W - W_start).max(axis=(1, 2)) < tol).tolist()
        for k, (i, o) in enumerate(zip(groups.tolist(), obj.tolist())):
            if live[k]:
                _check_descent(sweep, history[i][-1] if history[i] else np.inf, o)
                history[i].append(o)
                if stop[k]:
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

    C stacks the products Y @ Z[j] / N of each column or, on a per-row grid, Y[r] @ Z[j] / N
    of each entry. A single Y @ Z.T rounds some entries otherwise, which moves which
    coefficient enters at near-ties at the top of the grid; the Granger p-values are pinned
    bitwise to this rounding, so the paths keep it.
    """
    n = Y.shape[1]
    C = ((Y[:, None, None, :] @ Z[None, :, :, None])[..., 0, 0] if per_row
         else (Y[None] @ Z[:, :, None])[..., 0].T)
    return Z @ Z.T / n, np.ascontiguousarray(C) / n, float(np.sum(Y * Y)) / n


def lasso_paths(G: np.ndarray, C: np.ndarray, yy: np.ndarray, lams: np.ndarray,
                cfg: LassoConfig, A0: np.ndarray | None = None) -> Iterator[tuple]:
    """Warm-started fits of g independent paths in lockstep along one penalty sequence.

    G (g, m, m), C (g, R, m) and yy (g,) stack each path's ``_path_moments``. ``lams`` is
    one descending sequence shared by every row of every path, or an (n_points, g, R)
    grid whose [:, i, r] column is row r of path i's own sequence (R = 1: one per path).
    Path i starts from A0[i] (A0 (g, R, m)), else from zero: a fixed-penalty fit is a path
    of one point. Each round, every group admitted at its warm start's counts puts its
    next b penalties into one ``_settle`` call, each on the pattern ``_predict``
    extrapolates from the group's last two points (t per row on per-row grids; t = 0 from
    one point); the kept prefix settles them, one sweep each. b doubles after a block kept
    whole, else falls to the kept length, at least 2; at most 8. The last two kept items
    and their X G, and the last one's objective at the next penalty, carry over. Each
    group's state is a row of stacked arrays (at one point, the warm start alone), so a
    round's products, objectives and patterns are batched calls, in chunks of at most
    G / 64 or 128 KB. A group not admitted waits while ahead of the slowest; it, or a
    group whose head fails, sweeps one penalty from its warm start (``_cd_gram``), and the
    prediction restarts. No block reaches 8 penalties past the slowest, so at most 8
    penalties' results wait to be yielded; a round's items fit one ``_finish`` chunk at
    pad m, heads apart. Each path yields its solo sweeps and coefficients bit for bit.
    Until every group is at its last penalty, sweeps run on copies of their Grams; then on
    G itself, which they overwrite: a caller that reads G at the last yield or after
    passes a copy. Yields per penalty (lam: a float, or the (g, R) grid row; A (g, R, m);
    converged, sweeps (g,); histories).
    """
    lams = np.asarray(lams, dtype=float)
    n, (g, R, m), q, r = len(lams), C.shape, min(len(lams), 2), min(len(lams), 8)
    pen = lams.reshape(n, 1, 1).repeat(g, axis=1) if lams.ndim == 1 else lams
    step = max(1, max(G.size // 64, 1 << 14) // (m * m + 2 * R * m))  # groups, items per chunk
    # each group's last q points (the last at [:, -1]), their products with G, penalties, and
    # the last one's objective at the next penalty (nan: not formed, as at a warm start)
    X, XG, L = np.empty((g, q, R, m)), np.empty((g, q, R, m)), np.empty((g, q) + pen.shape[2:])
    X[:], L[:], f1 = 0.0 if A0 is None else A0[:, None], pen[0, :, None], np.full(g, np.nan)
    # results waiting to be yielded, penalty j's in slot j % 8 (at one point, the state's
    # point), and the swept groups' histories
    out, swept = X[None, :, -1] if n == 1 else np.empty((r, g, R, m)), {}
    out_ok, out_sweeps, out_f = np.ones((r, g), bool), np.ones((r, g), int), np.zeros((r, g))
    pos, blen = np.zeros(g, dtype=int), np.full(g, 2)
    for j in range(n):
        while pos.min() <= j:
            lo, start = int(pos.min()), pos.copy()
            act = (pos < min(n, lo + 8)).nonzero()[0]
            adm = _admitted(X[act, -1])[2]
            act, adm = act[adm | (pos[act] == lo)], act[adm]
            new = adm[np.isnan(f1[adm])]  # warm starts and swept points
            for part in (new[i:i + step] for i in range(0, len(new), step)):
                Xp = X[part, -1]
                XGp = Xp @ G[part]
                XG[part], f1[part] = XGp[:, None], _objective(Xp, XGp, C[part], yy[part],
                                                             pen[pos[part], part])
            share = max(1, max(G.size // 64, 1 << 17) // (m * (m + R * (m + 5))) // (len(adm) or 1))
            b = np.minimum(blen[adm], min(n, lo + 8) - pos[adm]).clip(max=share)
            grp, ends = adm.repeat(b), b.cumsum()  # each group's items in order
            at = pos[grp] + np.arange(len(grp)) - (ends - b).repeat(b)
            lam, nxt, head = pen[at, grp], pen[np.minimum(at + 1, n - 1), grp], at == pos[grp]
            S = np.empty((len(grp), R, m), dtype=np.int8)
            for i in range(0, len(grp), step):
                s, k = slice(i, i + step), grp[i:i + step]
                Xk, XGk, l1, l2 = X[k], XG[k], L[k, -1], L[k, 0]
                t = np.divide(l1 - lam[s], l2 - l1, out=np.zeros(l1.shape), where=l2 != l1)
                S[s] = _predict(Xk[:, -1], XGk[:, -1], Xk[:, 0], XGk[:, 0], C[k], t[..., None],
                                lam[s, :, None] / 2.0)
            XG = XG if lo < n - 1 else None  # the last round: no prediction follows
            W, obj = np.zeros((2, len(grp), R, m)), np.where(head, f1[grp], np.inf)  # X, X G
            ok, f, ahead = (_settle(G, C, yy, lam, W[0], S, obj, grp, head, W[1], nxt)
                            if len(grp) else (head, obj, obj))  # no item: no exact-stage call
            slots = (at[ok] % 8, grp[ok])
            out[slots], out_f[slots] = W[0, ok], f[ok]
            pos += np.bincount(grp[ok], minlength=g)
            if lo < n - 1:  # the next block's length; each group that kept a point: its last two
                kept = pos[adm] - start[adm]
                blen[adm] = np.where(kept == b, 2 * blen[adm], kept).clip(2, 8)
                last, gk, two = (ends - b + kept - 1)[kept > 0], adm[kept > 0], kept[kept > 0] > 1
                for state, src in ((X, W[0]), (XG, W[1]), (L, lam)):
                    state[gk, 0] = state[gk, -1]
                    state[gk[two], 0], state[gk, -1] = src[last[two] - 1], src[last]
                f1[gk] = ahead[last]
            del W, S
            sw = act[pos[act] == start[act]]
            if len(sw):  # in the last round no penalty remains: compact G, not a copy
                A, k = X[sw, -1], pos[sw]
                sweeps, converged, history = _cd_gram(G[sw] if lo < n - 1 else _to_front(G, sw),
                                                      C[sw], yy[sw], pen[k, sw], cfg.tol,
                                                      cfg.max_sweeps, A)
                out[k % 8, sw], out_ok[k % 8, sw], out_sweeps[k % 8, sw] = A, converged, sweeps
                swept.update(zip(zip(k.tolist(), sw.tolist()), history))
                X[sw], L[sw], f1[sw], pos[sw] = A[:, None], pen[k, sw][:, None], np.nan, k + 1
        i = j % 8
        history = [swept.pop((j, k), [v]) for k, v in enumerate(out_f[i].tolist())]
        yield ((lams[j] if lams.ndim > 1 else float(lams[j])), out[i].copy(), out_ok[i].copy(),
               out_sweeps[i].copy(), history)
        out_ok[i], out_sweeps[i] = True, 1


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


def _fit_stack(items: Iterable[tuple], cfg: LassoConfig, estimator: str) -> list[VarModel]:
    """The one fit path: independent fits at cfg.lam ("ols": at 0) in one lockstep solve.

    Each item, a (LagEmbedding, stats) pair, is read once: into G = Z Z^T / N, C = Y Z^T / N,
    ||Y||^2 / N and Y Y^T / N, and for "fgls-lasso" its ``_pw_basis``. Stage 1 is one
    ``lasso_paths`` call of one point from zero, one group per item with its own stopping
    rule, so each item gets its solo fit bit for bit; "fgls-lasso" adds one ``_fgls_refit``
    of every item's equations. Sigma_u = Y Y^T / N - A C^T - C A^T + A G A^T, symmetrized.
    """
    if estimator not in ESTIMATORS:
        raise LassoError(f"unknown estimator {estimator!r}")
    cfg = replace(cfg, lam=0.0) if estimator == "ols" else cfg
    fgls = estimator == "fgls-lasso"

    def read(embed: LagEmbedding, stats) -> tuple:
        Y, Z, N = embed.Y, embed.Z, embed.n_cols
        _check_regressors(Z, embed.regressor_names())
        return (Z @ Z.T / N, Y @ Z.T / N, float(np.sum(Y * Y)) / N, Y @ Y.T / N,
                (_pw_basis(Y, Z), N, 1) if fgls else None,
                (embed.p, embed.names or tuple(f"y{k + 1}" for k in range(len(Y))), stats))

    parts = [read(*item) for item in items]  # each item's samples, read once
    (G, C, yy, YY, designs, meta), n = zip(*parts), len(parts)
    _, A, converged, sweeps, history = next(lasso_paths(np.stack(G), np.stack(C), np.array(yy),
                                                        [cfg.lam], cfg))  # on a copy of G
    rho = [None] * n
    if fgls:
        A, rho, sweeps2, converged2, history2 = _fgls_refit(designs, A, np.full(n, cfg.lam), cfg)
        sweeps, converged = np.maximum(sweeps, sweeps2.max(axis=1)), converged & converged2.all(1)
        history = [h + h2 for h, h2 in zip(history, history2)]
    models = []
    for i, (p, names, stats) in enumerate(meta):
        if not converged[i]:
            log.warning("%s fit hit max_sweeps=%d at lambda=%g", estimator, cfg.max_sweeps, cfg.lam)
        AC = A[i] @ C[i].T
        sigma_u = YY[i] - AC - AC.T + A[i] @ G[i] @ A[i].T
        models.append(VarModel(
            p=p, names=names, A=A[i], sigma_u=(sigma_u + sigma_u.T) / 2, rho=rho[i], stats=stats,
            lam=cfg.lam, sweeps=int(sweeps[i]), converged=bool(converged[i]),
            estimator=estimator, objective_history=tuple(history[i])))
    return models


def fit_lasso_var(embed: LagEmbedding, cfg: LassoConfig,
                  stats: StandardizationStats | None = None, estimator: str = "lasso") -> VarModel:
    """Fit all K equations at the configured penalty ("ols", or lambda = 0, gives OLS).

    The one-item ``_fit_stack``, a path of one point from zero on the whole embedding's
    moments; non-convergence within max_sweeps sets the model's converged flag.
    """
    return _fit_stack([(embed, stats)], cfg, estimator)[0]


def _pw_basis(Y: np.ndarray, Z: np.ndarray) -> tuple:
    """All FGLS stage 2 reads of a design X = [Y; Z] of n samples: with S0 = X X^T and
    S1 = sum_t x_t x_{t-1}^T, [S0, -(S1 + S1^T), S0 - x_0 x_0^T - x_{n-1} x_{n-1}^T] / n and
    [sum_t x_t, x_0 + x_{n-1}] / n, which ``_ar1_rho`` and ``_whitened_moments`` read."""
    X, n = np.vstack([Y, Z]), Y.shape[1]
    S0, S1, x0, xl = X @ X.T, X[:, 1:] @ X[:, :-1].T, X[:, 0], X[:, -1]
    return (np.stack([S0, -(S1 + S1.T), S0 - np.outer(x0, x0) - np.outer(xl, xl)]) / n,
            np.stack([X.sum(axis=1), x0 + xl]) / n)


def _ar1_rho(basis: tuple, n: int, A1: np.ndarray) -> np.ndarray:
    """Lag-1 autocorrelation (P, K) of the centred residuals W x_t, W = [I, -A1[i]], of the
    stage-1 points A1 (P, K, m) on n samples, from their ``_pw_basis``: with s = sum_t x_t,
    e = x_0 + x_{n-1} and u = W s / n, num = diag(W S1 W^T) - u W (2 s - e) + (n - 1) u^2 over
    den = diag(W S0 W^T) - n u^2, batched quadratic forms in W; 0 where den <= 0."""
    (M, v), (P, K, _) = basis, A1.shape
    W = np.concatenate([np.broadcast_to(np.eye(K), (P, K, K)), -A1], axis=2)
    q0, q1 = ((W[:, None] @ M[:2]) * W[:, None]).sum(axis=3).transpose(1, 0, 2)
    u, e = (W @ v.T).transpose(2, 0, 1)
    num, den = -q1 / 2 - u * (2 * u - e) + (n - 1) / n * u * u, q0 - u * u
    return np.divide(num, den, out=np.zeros((P, K)), where=den > 0)


def _whitened_moments(basis: tuple, rho: np.ndarray, out=None) -> tuple:
    """G, C and yy of each (point, equation) row of rho (P, K) on Prais-Winsten data, which
    is linear: on the ``_pw_basis`` stack B, S_w(rho) = B_0 + rho B_1 + rho^2 B_2. They are
    written into out, a (G, C, yy) of C-contiguous arrays, when it is given."""
    K, M = rho.shape[-1], basis[0]
    m = M.shape[1] - K
    coef = np.stack([np.ones_like(rho), rho, rho * rho], axis=-1)
    G, C, yy = out or (np.empty((rho.size, m, m)), np.empty((rho.size, m)), np.empty(rho.size))
    np.matmul(coef.reshape(-1, 3), M[:, K:, K:].reshape(3, -1), out=G.reshape(-1, m * m))
    np.einsum("pkc,ckm->pkm", coef, M[:, :K, K:], out=C.reshape(-1, K, m))
    np.einsum("pkc,ckk->pk", coef, M[:, :K, :K], out=yy.reshape(-1, K))
    return G, C, yy


def _fgls_refit(designs: Iterable[tuple], A1: np.ndarray, lams, cfg: LassoConfig) -> tuple:
    """FGLS stage 2 for a stack of P stage-1 points A1 (P, K, m) at penalties lams (P,).

    ``designs`` yields (basis, n, count): the ``_pw_basis`` and sample count of the next
    count points' design (a CV fold's, or one fit item's). Each equation's rho is the lag-1
    autocorrelation of its centred stage-1 residuals (``_ar1_rho``, clipped to |rho| <=
    0.99); the penalty is re-applied on its whitened moments (``_whitened_moments``),
    warm-started from its own stage-1 row: one group of one row per (point, equation), each
    with its own stopping rule. Whole designs are whitened and solved together, as many as
    keep their Gram rows within ``_GRAM_FLOATS`` (at least one design), each such set in one
    ``lasso_paths`` call of one point on a per-row grid, in one (G, C, yy) buffer that the
    call may overwrite and the next set reuses. A design is never split: the whitened
    products round differently by batch size, while every row's solve has its own bits in
    any batch. Returns A (P, K, m); rho, sweeps and converged (P, K); and per point its
    objectives, equations in row order.
    """
    P, K, m = A1.shape
    sets, start = [], 0  # each set's designs of one point or more: (basis, n, first, end)
    for basis, n, count in designs:
        if count:
            if not sets or (start + count - sets[-1][0][2]) * K * m * m > _GRAM_FLOATS:
                sets.append([])
            sets[-1].append((basis, n, start, start + count))
        start += count
    if start != P:
        raise LassoError(f"designs cover {start} of {P} stage-1 points")
    size = max((part[-1][3] - part[0][2] for part in sets), default=0) * K
    buf = np.empty((size, m, m)), np.empty((size, m)), np.empty(size)
    rho, A = np.empty((P, K)), np.empty((P * K, 1, m))
    sweeps, converged, hist = np.empty(P * K, dtype=int), np.empty(P * K, dtype=bool), []
    for part in sets:
        first, last = part[0][2], part[-1][3]
        for basis, n, i, j in part:
            rho[i:j] = np.clip(_ar1_rho(basis, n, A1[i:j]), -0.99, 0.99)
            _whitened_moments(basis, rho[i:j], tuple(a[(i - first) * K:(j - first) * K]
                                                     for a in buf))
        G, C, yy, r = *(a[:(last - first) * K] for a in buf), slice(first * K, last * K)
        _, A[r], converged[r], sweeps[r], h = next(lasso_paths(
            G, C[:, None], yy, np.repeat(lams[first:last], K).reshape(1, -1, 1), cfg,
            A1[first:last].reshape(-1, 1, m)))
        hist += h
    history = [[v for h in hist[i * K:(i + 1) * K] for v in h] for i in range(P)]
    return A.reshape(P, K, m), rho, sweeps.reshape(P, K), converged.reshape(P, K), history


def fit_fgls_lasso_var(embed: LagEmbedding, cfg: LassoConfig,
                       stats: StandardizationStats | None = None) -> VarModel:
    """Two-stage fit allowing AR(1) serial correlation in the errors, the one-item
    ``_fit_stack``: stage 1 is the homoskedastic fit; stage 2 (``_fgls_refit``) removes each
    equation's AR(1) structure by a Prais-Winsten quasi-difference and re-applies the
    penalty on the whitened data. Coefficients map original regressors to original targets."""
    return _fit_stack([(embed, stats)], cfg, "fgls-lasso")[0]


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
    grad = (2.0 / Y.shape[1]) * (A @ Z - Y) @ Z.T
    viol = np.where(A != 0, np.abs(grad + lam * np.sign(A)), np.abs(grad) - lam)
    return float(viol.max(initial=0.0))


def _bic(rss: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Single-equation BIC n ln(RSS / n) + s ln(n); RSS = 0 gives -inf."""
    with np.errstate(divide="ignore"):
        return n * np.log(rss / n) + s * np.log(n)


def fit_panel_vars(panels: Sequence[TimePanel], p: int, cfg: LassoConfig,
                   estimator: str = "lasso") -> list[VarModel]:
    """``fit_panel_var`` of each panel, each as alone, in ``_fit_stack``s of as many panels as
    keep their FGLS stage-2 Grams (K (K p)^2 floats a panel) within ``_GRAM_FLOATS``: 8 panels
    at K = 50, p = 1. This also bounds the moments a stack holds from its one read. Each panel
    is standardized and lag-embedded once, as the stack reads it."""
    if not len(panels):
        raise LassoError("0 items to fit")
    # p < 1: lag_embed's error
    step = max(1, _GRAM_FLOATS // max(1, panels[0].n_series ** 3 * p * p))
    return [model for i in range(0, len(panels), step) for model in _fit_stack(
        ((lag_embed(std, p), stats) for std, stats in map(standardize, panels[i:i + step])),
        cfg, estimator)]


def fit_panel_var(panel: TimePanel, p: int, cfg: LassoConfig,
                  estimator: str = "lasso") -> VarModel:
    """Standardize, lag-embed and fit a panel (estimator: one of ``ESTIMATORS``): the
    stacked fit ``fit_panel_vars`` of one."""
    return fit_panel_vars([panel], p, cfg, estimator)[0]
